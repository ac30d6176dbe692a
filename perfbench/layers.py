"""Per-layer metrics from the spans the tracing launcher recorded.

A span is ``[id, name, start, end, parent, request_id, thread, extra]``
(``perf_counter`` seconds, the same clock in every process on Linux).
A layer's self time is its span's duration minus the durations of its
direct child spans.  Ratios are reported next to the count they divide
by, and a ratio with a zero denominator reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from stats import pct

#: Backends the solver registry ships; per-backend counts always listed.
BACKENDS = ("highs", "simplex", "fastsolve")
#: Layers whose spans may be charged to one submission's own work.
_WORK = ("admission", "decompose", "journal.append")
#: How much of the blocking path's busy time (the run on batch, the
#: service loop thread on serve, its command waits left out) its
#: recorded child spans must explain; below it the run fails.
COVERAGE_BOUND = 0.95


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Spans:
    """Spans indexed by id, parent and name."""

    def __init__(self, raw: list[list]):
        self.by_id = {s[0]: s for s in raw}
        self.children = defaultdict(list)
        for span in raw:
            if span[4] in self.by_id:
                self.children[span[4]].append(span)
        self.by_name = defaultdict(list)
        for span in raw:
            self.by_name[span[1]].append(span)

    def durations_ms(self, name: str) -> list[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.by_name.get(name, [])]

    def self_ms(self, span) -> float:
        child = sum(c[3] - c[2] for c in self.children.get(span[0], []))
        return (span[3] - span[2] - child) * 1e3

    def self_total_ms(self, name: str) -> float:
        return sum(self.self_ms(s) for s in self.by_name.get(name, []))

    def total_ms(self, name: str) -> float:
        return sum(self.durations_ms(name))


def flatten_metrics(snapshot: dict) -> tuple[dict, dict]:
    """Counters summed across a service or a router's shards, and each
    histogram's per-registry p50s."""
    registries = [snapshot]
    if "shards" in snapshot:
        registries = [
            s for s in snapshot["shards"].values() if isinstance(s, dict)
        ] + [snapshot.get("router", {})]
    counters: dict[str, float] = defaultdict(float)
    p50s: dict[str, list] = defaultdict(list)
    for registry in registries:
        for name, entry in registry.items():
            if not isinstance(entry, dict):
                continue
            if entry.get("type") == "counter":
                counters[name] += entry.get("value") or 0
            elif entry.get("type") == "histogram" and entry.get("count"):
                p50s[name].append(entry.get("p50") or 0.0)
    return dict(counters), dict(p50s)


def solver_metrics(spans: Spans, counters: dict, declines: dict) -> dict:
    out = {}
    solves = []
    for tag in ("admission", "lexmin", "planner"):
        durations = spans.durations_ms(f"lp.solve.{tag}")
        solves += durations
        out[f"lp.solve.calls.{tag}"] = len(durations)
        out[f"lp.solve.total_ms.{tag}"] = sum(durations)
    out["lp.solve.calls"] = len(solves)
    out["lp.solve.total_ms"] = sum(solves)
    out["lp.solve.p99_ms"] = pct(solves, 0.99)
    attempts = spans.by_name.get("lp.attempt", [])
    for backend in BACKENDS:
        mine = [(s[3] - s[2]) * 1e3 for s in attempts if s[7] == backend]
        out[f"lp.solve.calls.{backend}"] = len(mine)
        out[f"lp.solve.total_ms.{backend}"] = sum(mine)
        out[f"lp.solve.declined.{backend}"] = sum(
            n for key, n in declines.items() if key.split(":")[0] == backend
        )
    out["lp.solve.declined"] = sum(declines.values())
    out["lp.solve.retry"] = counters.get("lp.solve.retry", 0)
    out["lp.solve.failures"] = counters.get("lp.solve.failures", 0)
    # Every LP the fast path was asked to take: solved there, or declined
    # by its capability probe (a bailout inside it still counts as routed).
    routed = out["lp.solve.calls.fastsolve"] + out["lp.solve.declined.fastsolve"]
    out["lp.fast_routed"] = routed
    out["lp.fast_hit_ratio"] = _ratio(counters.get("lp.fastsolve.hit", 0), routed)
    return out


def planner_metrics(spans: Spans, counters: dict) -> dict:
    plans = spans.durations_ms("plan")
    n = len(plans)
    return {
        "plan.calls": n,
        "plan.p50_ms": pct(plans, 0.5),
        "plan.p99_ms": pct(plans, 0.99),
        "plan.self_total_ms": spans.self_total_ms("plan"),
        "plan.cache_hit_ratio": _ratio(counters.get("sched.plan.cache.hit", 0), n),
        "plan.warm_ratio": _ratio(counters.get("sched.plan.warm", 0), n),
        "plan.degraded": counters.get("sched.plan.failures", 0),
        "lexmin.calls": len(spans.by_name.get("lexmin", [])),
        "lexmin.self_total_ms": spans.self_total_ms("lexmin"),
        "lp.build.calls": len(spans.by_name.get("lp.build", [])),
        "lp.build.total_ms": spans.total_ms("lp.build"),
        "lexmin.warm_fallback": counters.get("lexmin.warm.fallback", 0),
        "sched.replan.calls": len(spans.by_name.get("sched.replan", [])),
        "sched.replan.total_ms": spans.total_ms("sched.replan"),
        "sched.decide.calls": len(spans.by_name.get("sched.decide", [])),
        "sched.decide.p99_ms": pct(spans.durations_ms("sched.decide"), 0.99),
        "engine.step.calls": len(spans.by_name.get("engine.step", [])),
        "engine.step.self_total_ms": spans.self_total_ms("engine.step"),
        "decompose.calls": len(spans.by_name.get("decompose", [])),
        "decompose.total_ms": spans.total_ms("decompose"),
    }


def admission_metrics(spans: Spans) -> dict:
    checks = spans.by_name.get("admission", [])
    durations = [(s[3] - s[2]) * 1e3 for s in checks]
    committed = [s[7][0] for s in checks if s[7]]
    admits = sum(1 for s in checks if s[7] and s[7][1])
    return {
        "admission.calls": len(checks),
        "admission.p50_ms": pct(durations, 0.5),
        "admission.p99_ms": pct(durations, 0.99),
        "admission.accept_ratio": _ratio(admits, len(checks)),
        "admission.committed_jobs_p50": pct(committed, 0.5),
        "admission.committed_jobs_max": max(committed, default=0),
    }


def serve_metrics(
    spans: Spans,
    counters: dict,
    p50s: dict,
    client_ms: dict[str, float],
    window: tuple[float, float],
) -> dict:
    """Frontend, router, service-loop and journal layers of a serve run.

    ``client_ms`` maps request id -> client latency from the moment the
    request was written; ``window`` is the load phase in ``perf_counter``
    seconds.
    """
    submits = spans.by_name.get("service.submit", [])
    routed = spans.by_name.get("router.submit", [])
    # The layer the HTTP frontend hands a submission to.
    handler = {s[5]: s for s in (routed or submits) if s[5]}
    http_self = [
        client_ms[rid] - (span[3] - span[2]) * 1e3
        for rid, span in handler.items()
        if rid in client_ms
    ]
    work = defaultdict(float)
    for name in _WORK:
        for span in spans.by_name.get(name, []):
            parent = spans.by_id.get(span[4])
            if span[5] and (parent is None or parent[1] not in _WORK):
                work[span[5]] += span[3] - span[2]
    waits = [
        (s[3] - s[2] - work.get(s[5], 0.0)) * 1e3 for s in submits if s[5]
    ]
    router_self = [spans.self_ms(s) for s in routed]
    journal = spans.durations_ms("journal.append")
    busy = loop_busy(spans, window)
    return {
        "http.requests": len(spans.by_name.get("http", [])),
        "http.self_p50_ms": pct(http_self, 0.5),
        "http.self_p99_ms": pct(http_self, 0.99),
        "router.submit.calls": len(routed),
        "router.self_p99_ms": pct(router_self, 0.99),
        "router.spill_ratio": _ratio(
            counters.get("router.adhoc.spilled", 0),
            counters.get("router.submit.adhoc", 0),
        ),
        "service.submit.calls": len(submits),
        "service.submit_p50_ms": pct(
            [(s[3] - s[2]) * 1e3 for s in submits], 0.5
        ),
        "service.submit_p99_ms": pct(
            [(s[3] - s[2]) * 1e3 for s in submits], 0.99
        ),
        "service.wait_p99_ms": pct(waits, 0.99),
        "service.shed": counters.get("service.queue.shed", 0),
        "service.saturated": counters.get("service.saturated", 0),
        "service.replan.batch_size_p50": pct(
            p50s.get("service.replan.batch_size", []), 0.5
        ),
        "service.loop_busy_frac": busy,
        "journal.append.calls": len(journal),
        "journal.append_p50_ms": pct(journal, 0.5),
        "journal.append_p99_ms": pct(journal, 0.99),
    }


def loop_busy(spans: Spans, window: tuple[float, float]) -> float:
    """Mean share of *window* each service loop thread spent not waiting
    for a command."""
    lo, hi = window
    shares = []
    for loop in spans.by_name.get("service.loop", []):
        idle = 0.0
        for child in spans.children.get(loop[0], []):
            if child[1] == "service.idle":
                idle += max(0.0, min(child[3], hi) - max(child[2], lo))
        span = min(loop[3], hi) - max(loop[2], lo)
        if span > 0:
            shares.append(1.0 - idle / span)
    return sum(shares) / len(shares) if shares else 0.0


def coverage(spans: Spans, root: str) -> float:
    """Share of the blocking path's busy time that named child spans
    explain: for each *root* span (the run, or a service loop), its
    direct children's durations over its own, both without the loop's
    waits for a command (``service.idle``), so idle time never counts as
    explained."""
    busy = covered = 0.0
    for span in spans.by_name.get(root, []):
        children = spans.children.get(span[0], [])
        idle = sum(c[3] - c[2] for c in children if c[1] == "service.idle")
        busy += span[3] - span[2] - idle
        covered += sum(c[3] - c[2] for c in children if c[1] != "service.idle")
    return _ratio(covered, busy)
