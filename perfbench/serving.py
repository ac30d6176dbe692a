"""The serve workloads: ``repro serve`` under open-loop HTTP load.

An untraced run starts seven server processes:

* six *nominal* phases, each on a fresh server: the workload's fixed
  rate for a share of ``--seconds``, then SIGTERM.  Together they send
  the entity library about once, in the seed's order.  Latency,
  goodput, acceptance and turnaround pool their submissions; drain,
  server CPU and memory are medians over the six servers.  Each drained
  summary and journal is checked against the load generator's ledger;
* the *ladder*: short probes on one server at a fixed grid of rising
  rates, for the sustained rate.

``setup_s`` is the median of the seven start-ups.  A traced run repeats
one nominal phase twice, untraced and under the tracing launcher, for
the per-layer table and the tracing overhead.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import layers
from openloop import Send, drive, get_json
from inputs import EntityPool, make_sends
from server import Server
from stats import median, pct, tail

HERE = os.path.dirname(os.path.abspath(__file__))
#: Submissions answered later than this miss (the SLO of BENCH_throughput).
LATENCY_LIMIT_MS = 250.0
#: A run whose generator sent later than this (p99) measured the client.
LAG_LIMIT_MS = 50.0
#: A ladder probe's answers must all arrive this soon after its last send.
PROBE_GRACE_S = 2.0
#: Nominal phases per run, each on a fresh server with its own inputs.
NOMINAL_REPEATS = 6


#: Ladder rungs: each probe's rate over the last one's, and how many.
LADDER_GROWTH = 1.25
LADDER_PROBES = 6


@dataclass(frozen=True)
class ServeSpec:
    serve_args: tuple
    workflow_every: int  # one workflow per this many arrivals; 0: ad-hoc only
    nominal_rate: float
    nominal_share: float  # of --seconds, per nominal phase
    probe_share: float  # of --seconds, per ladder probe
    ladder_start: float

    @property
    def shards(self) -> int:
        """Services behind the frontend: ``--shards N``, else one."""
        args = list(self.serve_args)
        return int(args[args.index("--shards") + 1]) if "--shards" in args else 1


SERVE_MIX = ServeSpec(
    serve_args=("--async",),
    workflow_every=5,
    nominal_rate=8.0,
    nominal_share=0.16,
    probe_share=0.1,
    ladder_start=40.0,
)
ROUTER_ADHOC = ServeSpec(
    serve_args=("--shards", "3"),
    workflow_every=0,
    nominal_rate=200.0,
    nominal_share=0.1,
    probe_share=0.08,
    ladder_start=188.0,
)


@dataclass
class Phase:
    """One server's life under load, and what was checked."""

    sends: list = field(default_factory=list)
    setup_s: float = 0.0
    stop_s: float = 0.0
    exit_code: int = 0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0  # server CPU over its life
    run_cpu_s: float = 0.0  # server CPU from the start of the load to exit
    window: tuple = (0.0, 0.0)
    stdout: str = ""
    stderr: str = ""
    journals: list = field(default_factory=list)
    drains: list = field(default_factory=list)  # per drained service
    metrics: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)


class _ServerRun:
    """A server process plus the seeded entities and schedules sent to it."""

    def __init__(self, spec, seed, tag, workdir, spans=None, pool=None):
        self.spec = spec
        self.seed = seed if isinstance(seed, tuple) else (seed,)
        self.loads = 0
        self.journal = os.path.join(workdir, f"{tag}.journal")
        self.pool = pool or EntityPool(seed, tag)
        self.results = os.path.join(workdir, f"{tag}.results.json")
        launcher = [sys.executable, os.path.join(HERE, "tracer.py"), self.results]
        if spans:
            launcher += ["--spans", spans]
        self.server = Server(
            launcher, [*spec.serve_args, "--journal", self.journal], workdir
        )
        self.phase = Phase(setup_s=self.server.setup_s)

    def load(self, rate: float, duration: float, grace_s: float | None = None):
        rng = np.random.default_rng([*self.seed, self.loads, int(rate * 1e3)])
        sends = make_sends(self.pool, rate, duration, rng, self.spec.workflow_every)
        kwargs = {"grace_s": grace_s} if grace_s is not None else {}
        drive(
            self.server.host,
            self.server.port,
            sends,
            connections=min(os.cpu_count() or 2, 2),
            # Workflow windows are rebased onto the slot /status reports.
            poll_status=self.spec.workflow_every > 0,
            **kwargs,
        )
        self.loads += 1
        self.phase.sends += sends
        return sends

    def stop(self, drain: bool) -> Phase:
        stopped = self.server.stop(signal.SIGTERM if drain else signal.SIGKILL)
        phase = self.phase
        phase.stop_s = stopped.stop_s
        phase.exit_code = stopped.exit_code
        phase.peak_rss_mb = stopped.peak_rss_mb
        phase.cpu_s = stopped.cpu_s
        phase.stdout = stopped.stdout
        phase.stderr = stopped.stderr
        phase.journals = self.journal_paths()
        if drain and os.path.exists(self.results):
            with open(self.results, encoding="utf-8") as handle:
                phase.drains = json.load(handle)["drains"]
        self._check_journal()
        if drain:
            self._check_drained()
        return phase

    def journal_paths(self) -> list[str]:
        if self.spec.shards > 1:
            return [f"{self.journal}.shard{i}" for i in range(self.spec.shards)]
        return [self.journal]

    def _check_journal(self) -> None:
        """Every acknowledged accept is journaled exactly once, on one
        shard; nothing is journaled that was not sent."""
        from repro.service.journal import read_journal
        from repro.verify import check_cross_shard_conservation

        phase = self.phase
        acked = {s.entity_id for s in phase.sends if s.status == 200}
        unanswered = {s.entity_id for s in phase.sends if s.answered < 0}
        owned = {}
        for path in self.journal_paths():
            records, skipped = read_journal(path)
            if skipped:
                phase.violations.append(f"{path}: {skipped} unreadable lines")
            owned[path] = [
                r.entity.workflow_id if r.kind == "workflow" else r.entity.job_id
                for r in records
                if r.kind in ("workflow", "adhoc")
            ]
        journaled = [i for ids in owned.values() for i in ids]
        phantom = set(journaled) - acked - unanswered
        if phantom:
            phase.violations.append(f"{len(phantom)} journaled entities never acknowledged")
        # Lost or duplicated accepts, across shards when there are several.
        report = check_cross_shard_conservation(acked, owned)
        phase.violations += [str(v) for v in report.violations[:5]]

    def _check_drained(self) -> None:
        phase = self.phase
        wf = _SUMMARY_WF.search(phase.stdout)
        ad = _SUMMARY_AD.search(phase.stdout)
        if phase.exit_code != 0:
            phase.violations.append(
                f"server exited {phase.exit_code}: {phase.stderr[-300:]!r}"
            )
        if not wf or not ad:
            phase.violations.append("no drain summary")
            return
        acked_wf = sum(1 for s in phase.sends if s.kind == "workflow" and s.status == 200)
        acked_ad = sum(1 for s in phase.sends if s.kind == "adhoc" and s.status == 200)
        if int(wf.group(1)) != acked_wf:
            phase.violations.append(
                f"summary: {wf.group(1)} workflows accepted, ledger {acked_wf}"
            )
        if int(ad.group(1)) != acked_ad:
            phase.violations.append(
                f"summary: {ad.group(1)} ad-hoc accepted, ledger {acked_ad}"
            )
        if self.spec.shards > 1:
            verdict = phase.stdout.split("conservation:")[-1].splitlines()[0]
            if " 0 violations" not in verdict:
                phase.violations.append(f"server conservation verdict: {verdict.strip()}")


_SUMMARY_WF = re.compile(r"workflows: (\d+) accepted, (\d+) rejected, (\d+) missed")
_SUMMARY_AD = re.compile(r"ad-hoc:\s+(\d+) accepted, (\d+) shed")


def _latencies_ms(sends: list[Send]) -> list[float]:
    return [s.latency_s * 1e3 if s.answered >= 0 else math.inf for s in sends]


def _failed(send: Send) -> bool:
    """Transport error, timeout, 5xx, or malformed/duplicate (400)."""
    return send.answered < 0 or send.status >= 500 or send.status == 400


def _lag_p99_ms(sends: list[Send]) -> float:
    return pct([s.lag_s * 1e3 for s in sends if s.sent >= 0], 0.99)


def _nominal(spec, seed, duration, workdir, tag, spans=None, pool=None) -> Phase:
    run = _ServerRun(spec, seed, tag, workdir, spans, pool)
    try:
        cpu0 = run.server.cpu_s()
        start = time.perf_counter()
        run.load(spec.nominal_rate, duration)
        run.phase.window = (start, time.perf_counter())
        if spans:
            run.phase.metrics = get_json(
                run.server.host, run.server.port, "/metrics"
            )
    except BaseException:
        run.server.kill()
        raise
    phase = run.stop(drain=True)
    phase.run_cpu_s = phase.cpu_s - cpu0
    return phase


def _probe_verdict(sends: list[Send]) -> tuple[bool, float]:
    """(sustainable?, tail ms) for one ladder probe."""
    latencies = _latencies_ms(sends)
    value, _ = tail(latencies)
    # A growing backlog shows as the last arrivals waiting longest.
    last = latencies[int(len(latencies) * 0.8):]
    ok = (
        value <= LATENCY_LIMIT_MS
        and median(last) <= LATENCY_LIMIT_MS
        and not any(_failed(s) for s in sends)
        and _lag_p99_ms(sends) <= LAG_LIMIT_MS
    )
    return ok, value


def _ladder(spec, seed, seconds, workdir) -> tuple[float, list[str], Phase]:
    """Probe a fixed grid of rising rates on one server and fit where the
    tail latency crosses the limit.

    One short probe's tail hangs on whether a long replan lands in it, so
    a single crossing between two probes is noisy.  A robust line of log
    tail against log rate over every probe is steadier; the estimate is
    where it meets the limit, kept within one grid step of the probed
    range.  Two failing probes in a row end the ladder.
    """
    run = _ServerRun(spec, seed, "ladder", workdir)
    trail, points = [], []
    try:
        rate, failures = spec.ladder_start, 0
        for _ in range(LADDER_PROBES):
            sends = run.load(rate, seconds * spec.probe_share, grace_s=PROBE_GRACE_S)
            ok, tail_ms = _probe_verdict(sends)
            trail.append(f"{rate:.0f}/s {'pass' if ok else 'fail'} ({tail_ms:.0f} ms)")
            # Cap a runaway tail; a probe that failed on errors or backlog
            # with a tail under the limit counts as at the limit.
            capped = min(tail_ms, 4 * LATENCY_LIMIT_MS)
            points.append((rate, capped if ok else max(capped, LATENCY_LIMIT_MS)))
            failures = 0 if ok else failures + 1
            if failures == 2:
                break
            rate *= LADDER_GROWTH
    except BaseException:
        run.server.kill()
        raise
    phase = run.stop(drain=False)
    lo = spec.ladder_start / LADDER_GROWTH
    hi = points[-1][0] * LADDER_GROWTH
    return _crossing(points, lo, hi), trail, phase


def _crossing(points, lo, hi) -> float:
    """Rate where a Theil-Sen line of log latency on log rate meets the
    limit, clamped to [lo, hi]."""
    if len(points) < 2:
        return lo
    x = np.log([r for r, _ in points])
    y = np.log([max(t, 1e-3) for _, t in points])
    # Median pairwise slope: one outlying probe cannot tilt the line.
    slope = float(np.median([
        (y[j] - y[i]) / (x[j] - x[i])
        for i in range(len(x))
        for j in range(i + 1, len(x))
    ]))
    intercept = float(np.median(y - slope * x))
    if slope <= 0:
        estimate = hi if y.max() <= math.log(LATENCY_LIMIT_MS) else lo
    else:
        estimate = math.exp((math.log(LATENCY_LIMIT_MS) - intercept) / slope)
    return min(max(estimate, lo), hi)


def _adhoc_turnaround_s(phases: list[Phase]) -> float:
    """Mean ad-hoc turnaround (simulated seconds) over every ad-hoc job the
    drained services ran, as ``summarize`` computes it for a batch run."""
    drains = [d for p in phases for d in p.drains if d["adhoc_jobs"]]
    jobs = sum(d["adhoc_jobs"] for d in drains)
    total = sum(d["adhoc_turnaround_s"] * d["adhoc_jobs"] for d in drains)
    return total / jobs if jobs else 0.0


def measure(spec: ServeSpec, seed: int, seconds: int, workdir: str) -> dict:
    """The untraced run: end-to-end metrics."""
    length = seconds * spec.nominal_share
    # One pool across the nominal servers: together they send the library
    # about once, in the seed's order.
    pool = EntityPool(seed, "nominal")
    nominals = [
        _nominal(spec, (seed, k), length, workdir, f"nominal{k}", pool=pool)
        for k in range(NOMINAL_REPEATS)
    ]
    sustained, trail, ladder = _ladder(spec, seed, seconds, workdir)
    setups = [p.setup_s for p in nominals] + [ladder.setup_s]
    sends = [s for p in nominals for s in p.sends]
    latencies = _latencies_ms(sends)
    tail_ms, tail_pct = tail(latencies)
    good = sum(
        1 for s, ms in zip(sends, latencies) if s.status == 200 and ms <= LATENCY_LIMIT_MS
    )
    wf_sends = [s for s in sends if s.kind == "workflow"]
    admitted = missed = 0
    for phase in nominals:
        wf = _SUMMARY_WF.search(phase.stdout)
        if wf:
            admitted += int(wf.group(1))
            missed += int(wf.group(3))
    violations = [v for p in nominals + [ladder] for v in p.violations]
    lag = _lag_p99_ms(sends)
    failed = sum(1 for s in sends if _failed(s)) + len(violations)
    if lag > LAG_LIMIT_MS:
        failed += 1
        violations.append(f"invalid: generator lag p99 {lag:.1f} ms > {LAG_LIMIT_MS:g} ms")
    attempted = len(sends) + len(ladder.sends)
    metrics = {
        "setup_s": (median(setups), "s"),
        # The program's own work on the phase, load and drain: under the
        # GIL, server CPU seconds are the time its interpreter was busy.
        "run_wall_s": (median([p.run_cpu_s for p in nominals]), "s"),
        "drain_s": (median([p.stop_s for p in nominals]), "s"),
        "submit_p50_ms": (pct(latencies, 0.5), "ms"),
        # Workflows go through admission, decomposition and a journal
        # append on the loop thread; with none sent (router-adhoc) this
        # is every submission's median, as submit_p50_ms.
        "workflow_submit_p50_ms": (
            pct(_latencies_ms(wf_sends) if wf_sends else latencies, 0.5),
            "ms",
        ),
        "submit_tail_ms": (tail_ms, "ms"),
        "goodput_frac": (good / len(sends), "ratio"),
        "sustained_rate_per_s": (sustained, "1/s"),
        "completed_frac": (1.0 - failed / attempted, "ratio"),
        # With no workflow traffic (router-adhoc) nothing can be refused
        # or late, so both read 1.
        "workflow_accept_frac": (
            sum(1 for s in wf_sends if s.status == 200) / len(wf_sends) if wf_sends else 1.0,
            "ratio",
        ),
        "workflows_met_frac": (1.0 - missed / admitted if admitted else 1.0, "ratio"),
        "adhoc_turnaround_s": (_adhoc_turnaround_s(nominals), "s"),
        "peak_rss_mb": (median([p.peak_rss_mb for p in nominals]), "MB"),
    }
    notes = [
        f"nominal {spec.nominal_rate:g}/s, {NOMINAL_REPEATS} servers x {length:g} s: "
        f"{len(sends)} sent ({len(wf_sends)} workflows); generator lag p99 {lag:.1f} ms",
        f"submit_tail_ms is p{tail_pct:.1f} of {len(latencies)} samples",
        "pooled latency p90 / p95 / p99: "
        + " / ".join(f"{pct(latencies, q):.1f}" for q in (0.9, 0.95, 0.99))
        + " ms; drains "
        + ", ".join(f"{p.stop_s:.3f}" for p in nominals)
        + " s; server CPU from load to exit "
        + ", ".join(f"{p.run_cpu_s:.3f}" for p in nominals)
        + " s",
        f"ladder ({seconds * spec.probe_share:g} s probes, fitted crossing): "
        + ", ".join(trail),
        f"setup_s is the median of {len(setups)} start-ups; "
        f"{len(violations)} correctness violations",
        *violations[:10],
    ]
    return dict(metrics=metrics, attempted=attempted, failed=failed, notes=notes)


def traced(spec: ServeSpec, seed: int, seconds: int, workdir: str) -> dict:
    """The traced run: per-layer metrics, coverage and overhead."""
    length = seconds / 3
    plain = _nominal(spec, seed, length, workdir, "plain")
    spans_path = os.path.join(workdir, "serve-spans.json")
    phase = _nominal(spec, seed, length, workdir, "traced", spans=spans_path)
    with open(spans_path, encoding="utf-8") as handle:
        dumped = json.load(handle)
    spans = layers.Spans(dumped["spans"])
    counters, p50s = layers.flatten_metrics(phase.metrics)
    client = {
        s.request_id: (s.answered - s.sent) * 1e3 for s in phase.sends if s.answered >= 0
    }
    out = {}
    out.update(layers.serve_metrics(spans, counters, p50s, client, phase.window))
    out.update(layers.planner_metrics(spans, counters))
    out.update(layers.admission_metrics(spans))
    out.update(layers.solver_metrics(spans, counters, dumped["declines"]))
    lo, hi = phase.window
    busy_ms = out["service.loop_busy_frac"] * (hi - lo) * 1e3 * spec.shards
    lp_ms = sum(
        (s[3] - s[2]) * 1e3
        for name in ("lp.solve.admission", "lp.solve.lexmin", "lp.solve.planner")
        for s in spans.by_name.get(name, [])
        if lo <= s[2] <= hi
    )
    out["lp.solve.share"] = lp_ms / busy_ms if busy_ms else 0.0
    out["loadgen.sent"] = len(phase.sends)
    out["loadgen.lag_p99_ms"] = _lag_p99_ms(phase.sends)
    out["server.cpu_ms_per_submit"] = phase.run_cpu_s * 1e3 / max(len(phase.sends), 1)
    out["journal.bytes"] = sum(
        os.path.getsize(p) for p in phase.journals if os.path.exists(p)
    )
    out["router.shard_skew"] = _shard_skew(phase.sends)
    out["trace.coverage"] = layers.coverage(spans, "service.loop")
    plain_p50 = pct(_latencies_ms(plain.sends), 0.5)
    traced_p50 = pct(_latencies_ms(phase.sends), 0.5)
    out["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0
    violations = plain.violations + phase.violations
    attempted = len(plain.sends) + len(phase.sends)
    failed = sum(1 for p in (plain, phase) for s in p.sends if _failed(s)) + len(violations)
    notes = [
        f"blocking path: the service loop thread(s), busy "
        f"{out['service.loop_busy_frac']:.1%} of the load window; LP solves take "
        f"{out['lp.solve.share']:.1%} of that busy time; recorded spans explain "
        f"{out['trace.coverage']:.1%} of the loop's busy time "
        f"(bound {layers.COVERAGE_BOUND:.0%})",
        f"tracing overhead on submit_p50_ms: {out['trace.overhead_frac']:+.1%} "
        f"({traced_p50:.2f} ms traced vs {plain_p50:.2f} ms untraced, "
        f"{spec.nominal_rate:g}/s for {length:g} s each)",
        *violations[:10],
    ]
    return dict(
        layer_metrics=out,
        attempted=attempted,
        failed=failed,
        notes=notes,
        coverage_ok=out["trace.coverage"] >= layers.COVERAGE_BOUND,
        absent=(),
        declines=dumped["declines"],
    )


def _shard_skew(sends: list[Send]) -> float:
    """Max over mean accepted submissions per shard (1.0 = even)."""
    counts: dict[str, int] = {}
    for s in sends:
        if s.status == 200 and s.shard:
            counts[s.shard] = counts.get(s.shard, 0) + 1
    if not counts:
        return 0.0
    return max(counts.values()) / (sum(counts.values()) / len(counts))
