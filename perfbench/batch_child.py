"""One batch process: the ``repro run`` path over a few seeded traces.

Usage: ``python perfbench/batch_child.py SEED FIRST COUNT [SPANS.json]``

Makes the same ``run_one`` -> ``Simulation.run()`` call as ``repro run``
(FlowTime, default ``SimulationConfig``, cpu=64/mem=128) on traces
``FIRST .. FIRST+COUNT-1`` of the run seeded with ``SEED``, checks each
result with ``ScheduleValidator`` and ``check_reported``, and prints one
JSON line.  ``ready_at`` is the monotonic clock when the first
``Simulation.run()`` began, so the parent can time set-up from spawn.
With ``SPANS.json`` the layer wrappers are installed first and the
spans are written there.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _vmhwm_mb() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def main(argv: list[str]) -> int:
    seed, first, count = (int(x) for x in argv[:3])
    spans_path = argv[3] if len(argv) > 3 else None
    if spans_path:
        import tracer

        tracer.install()
    from inputs import batch_trace, capacity
    from repro.analysis.experiments import canonical_windows, run_one
    from repro.simulator.engine import Simulation, SimulationConfig
    from repro.simulator.metrics import summarize
    from repro.simulator.runtime import EngineCore
    from repro.verify import ScheduleValidator

    # Two timing shims: the run as a whole, and each slot step within it
    # (slot, start, end, workflows that arrived in it).
    timings: list[tuple[float, float]] = []
    steps: list[tuple[int, float, float, int]] = []
    inner_run, inner_step = Simulation.run, EngineCore.step

    def timed_run(self):
        start = time.monotonic()
        try:
            return inner_run(self)
        finally:
            timings.append((start, time.monotonic()))

    def timed_step(self):
        slot, start = self.slot, time.monotonic()
        outcome = inner_step(self)
        steps.append((slot, start, time.monotonic(), outcome.n_workflow_arrivals))
        return outcome

    Simulation.run, EngineCore.step = timed_run, timed_step
    cluster = capacity()
    runs = []
    counters: dict[str, float] = {}
    hwm = 0.0
    for index in range(first, first + count):
        trace = batch_trace(seed, index)
        steps.clear()
        # The validator's windows, computed once: run_one would compute
        # the same ones, and a second decomposition would double the
        # decompose layer's traced figures.
        windows = canonical_windows(trace, cluster)
        outcome = run_one(
            "FlowTime", trace, cluster, config=SimulationConfig(), windows=windows
        )
        hwm = max(hwm, _vmhwm_mb())
        result = outcome.result
        validator = ScheduleValidator(
            cluster,
            workflows=trace.workflows,
            jobs=trace.adhoc_jobs,
            windows=windows,
        )
        report = validator.validate(result)
        validator.check_windows(result, report)
        validator.check_reported(result, summarize(result, windows), report)
        start, end = timings[-1]
        last_arrival = max(
            [wf.start_slot for wf in trace.workflows]
            + [job.arrival_slot for job in trace.adhoc_jobs]
        )
        arrived = [e for slot, _, e, _ in steps if slot <= last_arrival]
        n_jobs = sum(len(wf.jobs) for wf in trace.workflows) + len(trace.adhoc_jobs)
        runs.append(
            {
                "trace": index,
                "start": start,
                "wall_s": end - start,
                "slots": result.n_slots,
                "step_ms": [(e - b) * 1e3 for _, b, e, _ in steps],
                # The steps that took in a workflow: FlowTime plans it there.
                "intake_ms": [(e - b) * 1e3 for _, b, e, n in steps if n],
                # Running out the backlog once the last arrival is handled.
                "drain_s": end - (arrived[-1] if arrived else start),
                "jobs": n_jobs,
                "jobs_missed": outcome.n_missed_jobs,
                "finished": result.finished,
                "workflows": len(trace.workflows),
                "workflows_missed": outcome.n_missed_workflows,
                "adhoc_turnaround_s": outcome.adhoc_turnaround_s,
                "violations": [v.check for v in report.violations][:5],
                "n_violations": len(report.violations),
            }
        )
        for name, stats in result.metrics.items():
            if stats.get("type") == "counter":
                counters[name] = counters.get(name, 0) + stats["value"]
    if spans_path:
        tracer.dump(spans_path)
    print(
        json.dumps(
            {
                "ready_at": runs[0]["start"] if runs else time.monotonic(),
                "runs": runs,
                "peak_rss_mb": hwm,
                "counters": counters,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
