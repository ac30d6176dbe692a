"""Layer spans recorded from outside the program.

:func:`install` replaces each layer's public entry point — in the module
where callers look it up — with a wrapper that records one span: name,
start, end, parent span, request id and thread.  Spans stay in memory
and :func:`dump` writes them out once, at exit.  Parents follow a
context variable, so they nest correctly per thread and per asyncio
task.

Run as a script, this is the launcher the serve workloads start::

    python perfbench/tracer.py RESULTS.json [--spans SPANS.json] <repro CLI args...>

It calls the same ``repro.cli.main`` entry point the ``repro`` command
runs.  With ``--spans`` it first installs the span wrappers; either way
it notes each drained service's ad-hoc turnaround (which the CLI does
not print) and writes both files when the CLI returns.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import Future

_ids = itertools.count()
_spans: dict[int, tuple] = {}
_current: contextvars.ContextVar[int] = contextvars.ContextVar("span", default=-1)
_declines: dict[str, int] = {}
_drains: list[dict] = []
_perf = time.perf_counter


def _record(sid, name, start, end, parent, rid, extra):
    _spans[sid] = (
        name,
        start,
        end,
        parent,
        rid,
        threading.current_thread().name,
        extra,
    )


def _wrap(owner, attr: str, name: str, *, rid=None, extra=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``rid(args, kwargs)`` extracts a request id; ``extra(args, kwargs,
    result)`` returns a small JSON-able annotation.  A call returning a
    :class:`~concurrent.futures.Future` (the service's ``wait=False``
    submit) ends its span when the future resolves.
    """
    from repro.obs import current_request_id

    fn = getattr(owner, attr)

    def request_id(args, kwargs):
        return rid(args, kwargs) if rid else current_request_id()

    if asyncio.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            sid = next(_ids)
            parent = _current.get()
            token = _current.set(sid)
            start = _perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _perf()
                _current.reset(token)
                _record(sid, name, start, end, parent, request_id(args, kwargs), None)

        setattr(owner, attr, async_wrapper)
        return

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = next(_ids)
        parent = _current.get()
        token = _current.set(sid)
        start = _perf()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _perf()
            _current.reset(token)
            note = extra(args, kwargs, result) if extra and result is not None else None
            rid_value = request_id(args, kwargs)
            if isinstance(result, Future):
                result.add_done_callback(
                    lambda _f: _record(
                        sid, name, start, _perf(), parent, rid_value, note
                    )
                )
            else:
                _record(sid, name, start, end, parent, rid_value, note)

    setattr(owner, attr, wrapper)


def _kw(key):
    return lambda args, kwargs: kwargs.get(key)


def _record_decline(backend, problem) -> None:
    """Solver routing declined *problem*: count it by backend and reason."""
    reason = "unsupported"
    if getattr(backend, "name", "") == "fastsolve":
        from repro.lp import fastsolve

        reason = fastsolve._structure_of(problem).reason or "unstructured"
    key = f"{getattr(backend, 'name', '?')}:{reason.split(':')[0][:60]}"
    _declines[key] = _declines.get(key, 0) + 1


def install() -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.analysis.experiments as experiments
    import repro.cluster.http as cluster_http
    import repro.cluster.router as router
    import repro.cluster.shards as shards
    import repro.core.admission as admission
    import repro.core.flowtime as flowtime
    import repro.core.lexmin as lexmin
    import repro.lp.solver as solver
    import repro.schedulers.flowtime_sched as flowtime_sched
    import repro.service.aio as aio
    import repro.service.core as service_core
    import repro.service.journal as journal
    import repro.simulator.engine as engine
    import repro.simulator.runtime as runtime

    # HTTP frontends: the async service's per-request dispatch and the
    # threaded router's POST handler.
    _wrap(
        aio.AsyncServiceHTTPServer,
        "_dispatch",
        "http",
        rid=lambda a, k: a[1].headers.get("x-request-id"),
    )
    _wrap(
        cluster_http._RouterHandler,
        "do_POST",
        "http",
        rid=lambda a, k: a[0].headers.get("X-Request-Id"),
    )
    # Router and the shard call it makes.
    for method in ("submit_workflow", "submit_adhoc"):
        _wrap(router.ShardRouter, method, "router.submit", rid=_kw("request_id"))
        _wrap(shards.LocalShard, method, "router.shard_call", rid=_kw("request_id"))
        _wrap(
            service_core.SchedulerService,
            method,
            "service.submit",
            rid=_kw("request_id"),
        )
    # The service loop thread: its whole life, its waits for commands, and
    # each kind of work it does between waits (slot steps are engine.step).
    _wrap(service_core.SchedulerService, "_loop", "service.loop")
    _wrap(service_core.SchedulerService, "_next_command", "service.idle")
    for method, name in (
        ("_handle_submission", "service.handle"),
        ("_handle_call", "service.call"),
        ("_refresh_status", "service.status"),
        ("_drain_out", "service.drain"),
        ("_finish", "service.finish"),
    ):
        _wrap(service_core.SchedulerService, method, name)
    # Admission and decomposition, where the service looks them up.
    _wrap(
        service_core,
        "check_admission",
        "admission",
        extra=lambda a, k, r: [len(a[1]), bool(r.admit)],
    )
    for module in (service_core, admission, flowtime_sched, experiments):
        _wrap(module, "decompose_deadline", "decompose")
    # Planner, lexmin, LP build and solve (tagged by the calling layer).
    _wrap(flowtime.FlowTimePlanner, "plan", "plan")
    _wrap(flowtime, "lexmin_schedule", "lexmin")
    _wrap(lexmin, "build_round_lp", "lp.build")
    _wrap(admission, "solve_lp", "lp.solve.admission")
    _wrap(lexmin, "solve_lp", "lp.solve.lexmin")
    _wrap(solver, "solve_lp", "lp.solve.planner")
    _wrap(
        solver,
        "_attempt",
        "lp.attempt",
        extra=lambda a, k, r: a[0],
    )
    supports = solver._supports

    def counting_supports(backend, problem):
        ok = supports(backend, problem)
        if not ok:
            _record_decline(backend, problem)
        return ok

    solver._supports = counting_supports
    # Scheduler callbacks and the engine slot.
    _wrap(flowtime_sched.FlowTimeScheduler, "on_events", "sched.replan")
    _wrap(flowtime_sched.FlowTimeScheduler, "assign", "sched.decide")
    _wrap(runtime.EngineCore, "step", "engine.step")
    _wrap(engine.Simulation, "run", "sim.run")
    # Journal appends (fsync included).
    for method in ("append_workflow", "append_adhoc"):
        _wrap(journal.SubmissionJournal, method, "journal.append")


def record_drains() -> None:
    """Keep each drained service result's ad-hoc turnaround.

    The serve path prints no turnaround; this reads it from the result
    ``SchedulerService.drain`` returns, after the load has ended.
    """
    from repro.model.job import JobKind
    from repro.service.core import SchedulerService
    from repro.simulator.metrics import adhoc_turnaround_seconds

    drain = SchedulerService.drain

    @functools.wraps(drain)
    def recording_drain(self, *args, **kwargs):
        result = drain(self, *args, **kwargs)
        count = sum(1 for _ in result.jobs_of_kind(JobKind.ADHOC))
        _drains.append(
            {
                "adhoc_jobs": count,
                "adhoc_turnaround_s": adhoc_turnaround_seconds(result) if count else 0.0,
            }
        )
        return result

    SchedulerService.drain = recording_drain


def dump(path: str) -> None:
    """Write every finished span (and decline reasons) as JSON."""
    spans = [
        [sid, *span] for sid, span in sorted(_spans.items()) if span is not None
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": spans, "declines": _declines}, handle)


def main(argv: list[str]) -> int:
    results, cli_args = argv[0], argv[1:]
    spans = None
    if cli_args[:1] == ["--spans"]:
        spans, cli_args = cli_args[1], cli_args[2:]
        install()
    record_drains()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(results, "w", encoding="utf-8") as handle:
            json.dump({"drains": _drains}, handle)
        if spans:
            dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
