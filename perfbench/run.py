#!/usr/bin/env python3
"""End-to-end benchmark of the three canonical paths.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 25 --trace 0

``--workload all`` runs the three in turn.  Workloads (perfbench/RATIONALE.md
records why each was chosen):

* ``batch-mixed`` — ``repro run``: ``run_one`` -> ``Simulation.run()``
  over seeded mixed CPU+memory traces, in child processes.
* ``serve-mix`` — ``repro serve --async --journal``, admission on,
  open-loop Poisson load at a 1:4 workflow:ad-hoc mix.
* ``router-adhoc`` — ``repro serve --shards 3 --journal``, open-loop
  ad-hoc load.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload once untraced and once under the tracing launcher
(``perfbench/tracer.py``) and reports the per-layer metrics plus the
tracing overhead.  Every run checks the program's outputs; the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TMP_ROOT = ".perfbench_tmp"
CHILD_TIMEOUT_S = 170.0

# -- batch-mixed --------------------------------------------------------------

#: Processes per run; each reports one set-up time.
BATCH_CHILDREN = 4
#: Layers the batch path never reaches: reported 0, shown as absent.
SERVE_ONLY_LAYERS = (
    "http.",
    "router.",
    "service.",
    "journal.",
    "admission.",
    "loadgen.",
    "server.",
)


def _batch_child(seed: int, first: int, count: int, spans: str | None = None) -> dict:
    from server import repro_env

    argv = [
        sys.executable,
        os.path.join(HERE, "batch_child.py"),
        str(seed),
        str(first),
        str(count),
    ]
    if spans:
        argv.append(spans)
    spawned = time.monotonic()
    proc = subprocess.run(
        argv,
        capture_output=True,
        text=True,
        env=repro_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"batch child failed: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_at"] - spawned
    return out


def _batch_failures(runs: list[dict]) -> int:
    return sum(1 for r in runs if r["n_violations"] or not r["finished"])


def _traces_per_child(seconds: int) -> int:
    """Traces run by each process: about one second of run per trace."""
    return max(1, seconds // BATCH_CHILDREN)


def batch_mixed(seed: int, seconds: int, trace: bool, workdir: str) -> dict:
    from stats import median, pct, tail

    if trace:
        return batch_traced(seed, seconds, workdir)
    per_child = _traces_per_child(seconds)
    children = [
        _batch_child(seed, i * per_child, per_child) for i in range(BATCH_CHILDREN)
    ]
    runs = [r for c in children for r in c["runs"]]
    failed = _batch_failures(runs)
    workflows = sum(r["workflows"] for r in runs)
    missed = sum(r["workflows_missed"] for r in runs)
    jobs = sum(r["jobs"] for r in runs)
    late_jobs = sum(r["jobs_missed"] for r in runs)
    steps = [ms for r in runs for ms in r["step_ms"]]
    intakes = [ms for r in runs for ms in r["intake_ms"]]
    step_tail, step_pct = tail(steps)
    turnarounds = [
        r["adhoc_turnaround_s"] for r in runs if not math.isnan(r["adhoc_turnaround_s"])
    ]
    # A few traces of a seed's twenty can run several times longer than
    # the rest; per-trace medians keep them from setting the figure.
    metrics = {
        "setup_s": (median([c["setup_s"] for c in children]), "s"),
        "run_wall_s": (median([r["wall_s"] for r in runs]), "s"),
        "drain_s": (median([r["drain_s"] for r in runs]), "s"),
        "submit_p50_ms": (pct(steps, 0.5), "ms"),
        "workflow_submit_p50_ms": (pct(intakes, 0.5), "ms"),
        "submit_tail_ms": (step_tail, "ms"),
        "goodput_frac": (1.0 - late_jobs / jobs, "ratio"),
        "sustained_rate_per_s": (median([r["slots"] / r["wall_s"] for r in runs]), "1/s"),
        "completed_frac": (1.0 - failed / len(runs), "ratio"),
        "workflow_accept_frac": (1.0, "ratio"),
        "workflows_met_frac": (1.0 - missed / workflows, "ratio"),
        "adhoc_turnaround_s": (sum(turnarounds) / len(turnarounds), "s"),
        "peak_rss_mb": (median([c["peak_rss_mb"] for c in children]), "MB"),
    }
    notes = [
        f"{len(runs)} traces in {len(children)} processes; "
        f"{failed} failed the validator or did not finish",
        f"submit_* = per-slot decision latency (EngineCore.step); "
        f"submit_tail_ms is p{step_pct:.1f} of {len(steps)} steps; "
        f"workflow_submit_p50_ms = median of the {len(intakes)} steps that took in a workflow",
        "run_wall_s, drain_s: medians over traces; sustained_rate_per_s = "
        "median simulated slots per wall second; "
        "workflow_accept_frac = 1 (the batch path admits every workflow)",
    ]
    for r in runs:
        if r["n_violations"]:
            notes.append(f"trace {r['trace']}: {r['violations']}")
    return dict(metrics=metrics, attempted=len(runs), failed=failed, notes=notes)


def batch_traced(seed: int, seconds: int, workdir: str) -> dict:
    import layers

    count = _traces_per_child(seconds)
    plain = _batch_child(seed, 0, count)
    spans_path = os.path.join(workdir, "batch-spans.json")
    traced = _batch_child(seed, 0, count, spans_path)
    with open(spans_path) as handle:
        dumped = json.load(handle)
    spans = layers.Spans(dumped["spans"])
    counters = traced["counters"]
    runs = plain["runs"] + traced["runs"]
    failed = _batch_failures(runs)
    plain_wall = sum(r["wall_s"] for r in plain["runs"])
    traced_wall = sum(r["wall_s"] for r in traced["runs"])
    run_ms = spans.total_ms("sim.run")
    out = {}
    out.update(layers.planner_metrics(spans, counters))
    out.update(layers.admission_metrics(spans))
    out.update(layers.solver_metrics(spans, counters, dumped["declines"]))
    out["lp.solve.share"] = out["lp.solve.total_ms"] / run_ms if run_ms else 0.0
    out["trace.coverage"] = layers.coverage(spans, "sim.run")
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    notes = [
        f"blocking path: Simulation.run(); engine.step spans explain "
        f"{out['trace.coverage']:.1%} of it (bound {layers.COVERAGE_BOUND:.0%})",
        f"tracing overhead on run_wall_s: {out['trace.overhead_frac']:+.1%} "
        f"({traced_wall:.2f} s traced vs {plain_wall:.2f} s untraced, {count} traces)",
    ]
    return dict(
        layer_metrics=out,
        attempted=len(runs),
        failed=failed,
        notes=notes,
        coverage_ok=out["trace.coverage"] >= layers.COVERAGE_BOUND,
        absent=SERVE_ONLY_LAYERS,
        declines=dumped["declines"],
    )


def _serve(spec_name: str):
    def run(seed: int, seconds: int, trace: bool, workdir: str) -> dict:
        import serving

        spec = getattr(serving, spec_name)
        return (serving.traced if trace else serving.measure)(spec, seed, seconds, workdir)

    return run


WORKLOADS = {
    "batch-mixed": batch_mixed,
    "serve-mix": _serve("SERVE_MIX"),
    "router-adhoc": _serve("ROUTER_ADHOC"),
}


def _exit_on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def _cpu_ticks() -> list[int]:
    """The machine's CPU time counters (``/proc/stat``), or none."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _steal_note(before: list[int], after: list[int]) -> str:
    """How much CPU time the host took from this machine during the run.

    Timings from a run with high steal read slower than the program is;
    the note lets a reader tell host noise from a regression.
    """
    delta = [b - a for a, b in zip(before, after)]
    if len(delta) < 8 or not sum(delta):
        return "host cpu steal: unknown"
    busy = sum(delta) - delta[3] - delta[4]  # all but idle and iowait
    return f"host cpu steal: {delta[7] / busy if busy else 0.0:.1%} of busy cpu time"


def _benchmark_spec() -> dict:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[*sorted(WORKLOADS), "all"],
        help="one workload, or all three in turn (metrics named workload.metric)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "cli.py")):
        print(
            "error: run from the root of a checkout (no src/repro here)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    # A signal ends the run through the normal unwinding, so every server
    # and child process started so far is killed and reaped.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    spec = _benchmark_spec()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    os.makedirs(TMP_ROOT, exist_ok=True)
    for name in names:
        workdir = tempfile.mkdtemp(dir=TMP_ROOT)
        ticks = _cpu_ticks()
        try:
            outcome = WORKLOADS[name](args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        outcome["notes"].append(_steal_note(ticks, _cpu_ticks()))
        results[name] = report(spec, name, bool(args.trace), outcome)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


def report(spec: dict, workload: str, traced: bool, outcome: dict) -> dict:
    """Print one workload's table; return its result object."""
    print(f"workload {workload} ({'traced' if traced else 'untraced'})")
    for note in outcome["notes"]:
        print(f"  {note}")
    metrics = {}
    failed = int(outcome["failed"])
    if traced:
        values = outcome["layer_metrics"]
        absent = outcome.get("absent", ())
        for entry in spec["per_layer"]:
            name, unit = entry["name"], entry["unit"]
            value = float(values.get(name, 0.0))
            shown = (
                "absent (layer not on this path)"
                if name.startswith(tuple(absent)) and not value
                else f"{value:.6g} {unit}"
            )
            print(f"  {name:<34} {shown}")
            metrics[name] = {"value": value, "unit": unit}
        for reason, n in sorted(outcome.get("declines", {}).items()):
            print(f"  lp decline {reason}: {n}")
        # Spans that leave too much of the blocking path unexplained make
        # the per-layer table wrong: a failed check, not a warning.
        if not outcome["coverage_ok"]:
            failed += 1
            print("  violation: spans explain less of the blocking path than the bound")
    else:
        values = dict(outcome["metrics"])
        for entry in spec["end_to_end"]:
            name = entry["name"]
            value, unit = values.pop(name)
            print(f"  {name:<24} {value:.6g} {unit}")
            metrics[name] = {"value": float(value), "unit": entry["unit"]}
        # Measured and printed, but too noisy between seeds at this run
        # length to carry a regression bound (perfbench/RATIONALE.md).
        for name, (value, unit) in values.items():
            print(f"  {name:<24} {value:.6g} {unit}  (not gated)")
    return {
        "correct": failed == 0,
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
