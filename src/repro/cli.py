"""Command-line interface.

The subcommands cover the library's workflow end to end::

    python -m repro generate-trace --out trace.json --seed 15
    python -m repro decompose --trace trace.json --workflow wf0
    python -m repro run --trace trace.json --scheduler FlowTime --gantt
    python -m repro run --trace trace.json --trace-out run.jsonl --metrics
    python -m repro run --trace trace.json --verify
    python -m repro verify run.jsonl --workload trace.json
    python -m repro compare --trace trace.json
    python -m repro serve --port 8080 --batch-window 0.1
    python -m repro trace query run.jsonl --request 4f2a...
    python -m repro top --url http://127.0.0.1:8080

Cluster size is given with ``--cpu/--mem`` (every command defaults to the
64-core / 128-GB mixed-cluster setup the examples use).  Traces are the
replayable JSON files of :mod:`repro.workloads.traces`, so a comparison run
on another machine sees byte-identical workloads.

Global flags (before the subcommand): ``--version``; ``-v/--verbose`` and
``-q/--quiet`` set the observability log level (repeat ``-v`` for debug);
``-v`` on a ``run`` also prints the per-phase timing table.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Sequence

from repro.analysis.experiments import run_comparison, run_one
from repro.analysis.gantt import render_gantt, render_utilization
from repro.analysis.reporting import (
    format_comparison_table,
    format_phase_table,
    format_slowest_slot,
    turnaround_ratios,
)
from repro.core.decomposition import decompose_deadline
from repro.model.cluster import ClusterCapacity
from repro.obs import JsonlSink, Observability
from repro.schedulers.registry import available_schedulers
from repro.simulator.engine import SimulationConfig
from repro.workloads.traces import generate_trace, load_trace, save_trace


def verbosity_to_level(quiet: bool, verbose: int) -> int:
    """Map -q/-v flags to a logging level (the obs layer's log level).

    Default is WARNING (instrumentation is silent unless asked); ``-v``
    surfaces run milestones (INFO), ``-vv`` the debug firehose; ``-q``
    keeps only errors.
    """
    if quiet:
        return logging.ERROR
    if verbose >= 2:
        return logging.DEBUG
    if verbose == 1:
        return logging.INFO
    return logging.WARNING


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cpu", type=int, default=64, help="cluster CPU cores")
    parser.add_argument("--mem", type=int, default=128, help="cluster memory (GB)")


def _add_fault_args(parser: argparse.ArgumentParser) -> None:
    """Failure/estimation-error injection flags shared by run and serve."""
    fault = parser.add_argument_group(
        "fault injection",
        "seeded robustness knobs (docs/ROBUSTNESS.md); all off by default",
    )
    fault.add_argument(
        "--setback-prob",
        type=float,
        default=0.0,
        metavar="P",
        help="per-job/slot probability of a progress setback (lost work)",
    )
    fault.add_argument(
        "--max-setback",
        type=int,
        default=4,
        metavar="UNITS",
        help="a setback destroys 1..UNITS executed task-slots (uniform)",
    )
    fault.add_argument(
        "--error-low",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="lower bound of the multiplicative duration-error factor "
        "(true = estimate * factor)",
    )
    fault.add_argument(
        "--error-high",
        type=float,
        default=1.0,
        metavar="FACTOR",
        help="upper bound of the duration-error factor",
    )
    fault.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for setback and duration-error draws",
    )


def _fault_models(args: argparse.Namespace):
    """(FailureModel | None, ErrorModel | None) from the fault flags."""
    from repro.estimation.errors import ErrorModel
    from repro.simulator.failures import FailureModel

    failures = None
    if args.setback_prob > 0.0:
        failures = FailureModel(
            setback_prob=args.setback_prob,
            max_setback_units=args.max_setback,
            seed=args.fault_seed,
        )
    error_model = None
    if (args.error_low, args.error_high) != (1.0, 1.0):
        error_model = ErrorModel(low=args.error_low, high=args.error_high)
    return failures, error_model


def _cluster(args: argparse.Namespace) -> ClusterCapacity:
    return ClusterCapacity.uniform(cpu=args.cpu, mem=args.mem)


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlowTime (ICDCS 2018) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v info + timing tables, -vv debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="log errors only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate-trace", help="generate a replayable workload trace (JSON)"
    )
    gen.add_argument("--out", required=True, help="output JSON path")
    gen.add_argument("--workflows", type=int, default=4)
    gen.add_argument("--jobs", type=int, default=12, help="jobs per workflow")
    gen.add_argument("--adhoc", type=int, default=30, help="number of ad-hoc jobs")
    gen.add_argument(
        "--looseness",
        type=float,
        nargs=2,
        default=(4.0, 8.0),
        metavar=("MIN", "MAX"),
        help="deadline as a multiple of the critical path",
    )
    gen.add_argument("--rate", type=float, default=0.7, help="ad-hoc arrivals/slot")
    gen.add_argument("--spread", type=int, default=50, help="workflow start spread")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--scientific",
        action="store_true",
        help="use Bharathi scientific shapes instead of layered random DAGs",
    )
    _add_cluster_args(gen)

    dec = sub.add_parser(
        "decompose", help="show the decomposed per-job deadline windows"
    )
    dec.add_argument("--trace", required=True)
    dec.add_argument("--workflow", help="workflow id (default: all)")
    dec.add_argument(
        "--chart", action="store_true", help="render windows as ASCII bars"
    )
    _add_cluster_args(dec)

    run = sub.add_parser("run", help="simulate one scheduler over a trace")
    run.add_argument("--trace", required=True)
    run.add_argument(
        # Resolved from the live registry, so schedulers added via
        # register_scheduler() are immediately accepted with no CLI edits.
        "--scheduler", default="FlowTime", choices=sorted(available_schedulers())
    )
    run.add_argument("--slot-seconds", type=float, default=10.0)
    run.add_argument(
        "--no-plan-cache",
        action="store_true",
        help="disable the FlowTime plan cache (ablation; ignored by "
        "schedulers without a planner)",
    )
    run.add_argument(
        "--no-warm-start",
        action="store_true",
        help="disable warm-started lexmin solves (ablation; ignored by "
        "schedulers without a planner)",
    )
    run.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a JSONL event trace of the run (arrivals, placements, "
        "completions, deadline misses) to PATH",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="print the per-phase timing table (decompose, lp.build, "
        "lp.solve, sched.decide, sim.slot, ...)",
    )
    run.add_argument(
        "--solve-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-LP-solve wall-time budget; a blown budget triggers the "
        "scheduler's degraded mode instead of stalling the loop "
        "(FlowTime only)",
    )
    run.add_argument(
        "--verify",
        action="store_true",
        help="run the independent verification layer (docs/VERIFICATION.md): "
        "per-slot runtime assertions plus a full end-of-run validation and "
        "reported-metric recomputation; exits 1 on any violation",
    )
    run.add_argument(
        "--engine",
        default="slots",
        choices=["slots", "events"],
        help="engine core: 'slots' steps every slot; 'events' jumps idle "
        "virtual-time gaps via an event queue (outcome-identical; see "
        "docs/PERFORMANCE.md)",
    )
    _add_cluster_args(run)
    _add_fault_args(run)

    ver = sub.add_parser(
        "verify",
        help="independently validate a JSONL run trace",
        description="Re-derive correctness from a run's JSONL event trace "
        "(written by `repro run --trace-out` or `repro serve --trace-out`): "
        "lifecycle ordering, unique completions, placement windows. Given "
        "the workload (--workload) the full set applies: per-slot capacity, "
        "DAG precedence, demand conservation, and recomputed headline "
        "metrics. Exits 1 on any violation.",
    )
    ver.add_argument("run_trace", metavar="RUN_JSONL", help="JSONL event trace")
    ver.add_argument(
        "--workload",
        metavar="TRACE_JSON",
        help="the workload trace the run executed (enables capacity, "
        "precedence, and conservation checks plus metric recomputation)",
    )
    ver.add_argument(
        "--slot-seconds",
        type=float,
        default=None,
        help="slot length for metric conversion (default: the run_start "
        "event's recorded value)",
    )
    _add_cluster_args(ver)

    report = sub.add_parser(
        "report", help="regenerate the core paper figures as one Markdown file"
    )
    report.add_argument("--out", help="write to this path (default: stdout)")
    report.add_argument("--scale", choices=["quick", "full"], default="quick")
    report.add_argument("--seed", type=int, default=15)

    cmp_parser = sub.add_parser(
        "compare", help="run several schedulers over the same trace"
    )
    cmp_parser.add_argument("--trace", required=True)
    cmp_parser.add_argument(
        "--algorithms",
        nargs="+",
        default=["FlowTime", "CORA", "EDF", "Fair", "FIFO"],
        choices=sorted(available_schedulers()),
    )
    _add_cluster_args(cmp_parser)

    serve = sub.add_parser(
        "serve",
        help="run the online scheduler service behind a JSON/HTTP API",
        description="Start a long-running scheduler service. Submit "
        "workflows (POST /workflows) and ad-hoc jobs (POST /jobs) in the "
        "trace wire format; inspect GET /plan, /status, /metrics. SIGTERM "
        "or Ctrl-C drains gracefully: admission stops, in-flight work "
        "finishes, the trace flushes, and a run summary prints.",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (0 binds an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--scheduler", default="FlowTime", choices=sorted(available_schedulers())
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="shard the cluster into N independent scheduler services "
        "behind a routing frontend (docs/SHARDING.md); each shard owns a "
        "1/N capacity slice, its own journal (--journal PATH.shardN) and "
        "solver stack. 1 (default) serves the classic single service",
    )
    serve.add_argument(
        "--rebalance-interval",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="skyline rebalancer cycle period with --shards > 1 "
        "(0 disables periodic rebalancing; POST /rebalance still works)",
    )
    serve.add_argument(
        "--reconcile-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="periodic migration-orphan reconcile period with --shards > 1 "
        "(0 disables the loop; POST /reconcile still works)",
    )
    serve.add_argument(
        "--failover",
        action="store_true",
        help="with --shards > 1: run the supervisor daemon — restart dead "
        "shards and, past the --dead-after grace, re-home their committed "
        "workflows from their journals (docs/ROBUSTNESS.md)",
    )
    serve.add_argument(
        "--probe-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="failure-detector heartbeat period with --shards > 1",
    )
    serve.add_argument(
        "--dead-after",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how long a shard must fail probes before it is declared "
        "dead (and, with --failover, eligible for workflow re-homing)",
    )
    serve.add_argument("--slot-seconds", type=float, default=10.0)
    serve.add_argument(
        "--engine",
        default="slots",
        choices=["slots", "events"],
        help="engine core for each service: 'events' makes idle virtual "
        "time and drain cost proportional to actual work (outcome-"
        "identical to 'slots'; jumping is disabled under --realtime)",
    )
    serve.add_argument(
        "--async",
        dest="async_http",
        action="store_true",
        help="serve over the asyncio HTTP frontend instead of the "
        "thread-per-connection stdlib server (single service only; the "
        "high-throughput path — see BENCH_throughput.json)",
    )
    serve.add_argument(
        "--realtime",
        action="store_true",
        help="advance one slot per --slot-seconds of wall time (live "
        "pacing); default is virtual time (as fast as work exists)",
    )
    serve.add_argument(
        "--batch-window",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="re-planning batch window: submissions arriving within this "
        "window coalesce into one plan call",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="max outstanding ad-hoc jobs before shedding (backpressure)",
    )
    serve.add_argument(
        "--no-admission",
        action="store_true",
        help="admit every workflow without the feasibility check",
    )
    serve.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a JSONL event trace (flushed on drain) to PATH",
    )
    serve.add_argument(
        "--trace-rotate-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size-cap the --trace-out file: rotate to PATH.1..PATH.N when "
        "it would exceed MB megabytes, so a long-running server cannot "
        "fill the disk (default: unbounded)",
    )
    serve.add_argument(
        "--trace-rotate-backups",
        type=int,
        default=3,
        metavar="N",
        help="rotated generations to keep (with --trace-rotate-mb)",
    )
    slo = serve.add_argument_group(
        "service-level objectives", "thresholds behind GET /slo"
    )
    slo.add_argument(
        "--slo-objective",
        type=float,
        default=0.99,
        metavar="FRACTION",
        help="fraction of admitted workflows that must meet their deadline",
    )
    slo.add_argument(
        "--slo-decide-p99",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="decide-latency p99 ceiling",
    )
    slo.add_argument(
        "--slo-window",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="rolling SLO evaluation window (burn rate, rolling p99)",
    )
    serve.add_argument(
        "--journal",
        metavar="PATH",
        help="write-ahead journal of accepted submissions (JSONL, fsync on "
        "accept); an existing journal is replayed on start, so a killed "
        "service restarts with zero lost accepted work",
    )
    serve.add_argument(
        "--solve-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-LP-solve wall-time budget; a blown budget triggers "
        "degraded mode instead of stalling the loop (FlowTime only)",
    )
    chaos = serve.add_argument_group(
        "chaos injection",
        "seeded solver-fault injection for robustness experiments "
        "(scripts/chaos_smoke.py drives these)",
    )
    chaos.add_argument(
        "--chaos-fault-prob",
        type=float,
        default=0.0,
        metavar="P",
        help="per-solve-attempt probability of an injected solver fault",
    )
    chaos.add_argument(
        "--chaos-slow-prob",
        type=float,
        default=0.0,
        metavar="P",
        help="per-attempt probability of an injected slow solve",
    )
    chaos.add_argument(
        "--chaos-slow-s",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="duration of an injected slow solve",
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0, help="chaos fault-plan seed"
    )
    _add_cluster_args(serve)
    _add_fault_args(serve)

    trace_parser = sub.add_parser(
        "trace",
        help="query a JSONL run trace",
        description="Inspect a run's JSONL event trace (written by "
        "`repro run --trace-out` or `repro serve --trace-out`).",
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_query = trace_sub.add_parser(
        "query",
        help="reconstruct one request's timeline by its request id",
        description="Join every event belonging to one submission — "
        "admission decision, arrivals, placements, completion, deadline "
        "outcome — out of the flat trace, by the X-Request-Id it was "
        "submitted under.",
    )
    trace_query.add_argument(
        "run_trace", metavar="RUN_JSONL", help="JSONL event trace"
    )
    trace_query.add_argument(
        "--request", required=True, metavar="ID", help="request id to join"
    )
    trace_query.add_argument(
        "--json",
        action="store_true",
        help="emit the timeline as JSON instead of text",
    )
    trace_query.add_argument(
        "--max-events",
        type=int,
        default=50,
        help="cap on listed events in text output",
    )

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a running scheduler service",
        description="Poll /status, /metrics and /slo of a `repro serve` "
        "instance and render throughput, rolling latencies, queue depth, "
        "and the SLO error budget. Ctrl-C exits.",
    )
    top.add_argument(
        "--url", required=True, help="server root, e.g. http://127.0.0.1:8080"
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period (seconds)"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=None,
        help="render this many frames, then exit (default: loop forever)",
    )
    top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    cluster = _cluster(args)
    trace = generate_trace(
        n_workflows=args.workflows,
        jobs_per_workflow=args.jobs,
        n_adhoc=args.adhoc,
        capacity=cluster,
        looseness=tuple(args.looseness),
        adhoc_rate_per_slot=args.rate,
        workflow_spread_slots=args.spread,
        scientific=args.scientific,
        seed=args.seed,
    )
    save_trace(trace, args.out)
    print(
        f"wrote {args.out}: {trace.n_deadline_jobs} deadline jobs in "
        f"{len(trace.workflows)} workflows + {len(trace.adhoc_jobs)} ad-hoc jobs"
    )
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    cluster = _cluster(args)
    trace = load_trace(args.trace)
    workflows = [
        wf
        for wf in trace.workflows
        if args.workflow is None or wf.workflow_id == args.workflow
    ]
    if not workflows:
        print(f"error: no workflow {args.workflow!r} in {args.trace}", file=sys.stderr)
        return 2
    for workflow in workflows:
        result = decompose_deadline(workflow, cluster)
        method = "critical-path fallback" if result.used_fallback else "resource-demand"
        print(
            f"{workflow.workflow_id}: window [{workflow.start_slot}, "
            f"{workflow.deadline_slot}), {method}, "
            f"{len(result.node_sets)} levels"
        )
        if args.chart:
            from repro.analysis.windows_chart import render_windows

            print(render_windows(workflow, result.windows))
        else:
            for job_id in sorted(result.windows):
                window = result.windows[job_id]
                print(
                    f"  {job_id:<24} [{window.release_slot:>5}, "
                    f"{window.deadline_slot:>5})"
                )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    cluster = _cluster(args)
    trace = load_trace(args.trace)
    failures, error_model = _fault_models(args)
    if error_model is not None:
        # Estimates stay put; the true structure deviates per the model —
        # the scheduler plans against erroneous estimates while the engine
        # executes reality (EXT-1 style robustness runs).
        from repro.estimation.errors import (
            apply_estimation_errors,
            apply_workflow_estimation_errors,
        )

        trace = dc_replace(
            trace,
            workflows=tuple(
                apply_workflow_estimation_errors(
                    wf, error_model, seed=args.fault_seed + i
                )
                for i, wf in enumerate(trace.workflows)
            ),
            adhoc_jobs=tuple(
                apply_estimation_errors(
                    trace.adhoc_jobs, error_model, seed=args.fault_seed
                )
            ),
        )
    sink = JsonlSink(args.trace_out) if args.trace_out else None
    obs = Observability(
        sink=sink, level=verbosity_to_level(args.quiet, args.verbose)
    )
    planner_opts = {}
    if args.no_plan_cache:
        planner_opts["plan_cache"] = False
    if args.no_warm_start:
        planner_opts["warm_start"] = False
    if args.solve_budget is not None:
        planner_opts["solve_budget_s"] = args.solve_budget
    scheduler_kwargs = (
        {"planner": planner_opts}
        if planner_opts and args.scheduler.startswith("FlowTime")
        else None
    )
    from repro.verify import VerificationError

    try:
        with obs:
            outcome = run_one(
                args.scheduler,
                trace,
                cluster,
                config=SimulationConfig(
                    slot_seconds=args.slot_seconds,
                    record_execution=args.gantt,
                    failures=failures,
                    verify=args.verify,
                    engine=args.engine,
                ),
                scheduler_kwargs=scheduler_kwargs,
                obs=obs,
            )
    except VerificationError as error:
        print(error.report.render(), file=sys.stderr)
        return 1
    result = outcome.result
    if args.verify:
        report = result.verification
        # The runtime layer passed; also cross-check the reported metrics
        # against an independent recomputation from the raw records.
        from repro.analysis.experiments import canonical_windows
        from repro.simulator.metrics import summarize
        from repro.verify import ScheduleValidator

        windows = canonical_windows(trace, cluster)
        validator = ScheduleValidator(
            cluster,
            workflows=trace.workflows,
            jobs=trace.adhoc_jobs,
            windows=windows,
            allow_setbacks=failures is not None,
        )
        validator.check_windows(result, report)
        validator.check_reported(result, summarize(result, windows), report)
        if not report.ok:
            print(report.render(), file=sys.stderr)
            return 1
        print(report.summary())
    turnaround = outcome.adhoc_turnaround_s
    turnaround_text = (
        "n/a (no ad-hoc jobs)" if turnaround != turnaround else f"{turnaround:.1f} s"
    )
    print(f"scheduler:            {args.scheduler}")
    print(f"finished:             {result.finished} ({result.n_slots} slots)")
    print(f"jobs missed:          {outcome.n_missed_jobs}")
    print(f"workflows missed:     {outcome.n_missed_workflows}")
    print(f"ad-hoc turnaround:    {turnaround_text}")
    if sink is not None:
        print(f"trace:                wrote {sink.n_events} events to {args.trace_out}")
    print(render_utilization(result, cluster))
    if args.metrics or args.verbose:
        print()
        print(format_phase_table(result.metrics))
        slowest = format_slowest_slot(result.metrics)
        if slowest:
            print(slowest)
    if args.gantt:
        print()
        print(render_gantt(result))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.obs import read_trace
    from repro.verify import recompute_trace_metrics, validate_trace

    events = read_trace(args.run_trace)
    if not events:
        print(f"error: {args.run_trace} contains no events", file=sys.stderr)
        return 2
    trace = windows = capacity = None
    if args.workload:
        from repro.analysis.experiments import canonical_windows

        trace = load_trace(args.workload)
        capacity = _cluster(args)
        windows = canonical_windows(trace, capacity)
    report = validate_trace(
        events, trace=trace, capacity=capacity, windows=windows
    )
    print(report.render())
    try:
        metrics = recompute_trace_metrics(
            events, trace=trace, windows=windows, slot_seconds=args.slot_seconds
        )
    except ValueError as error:
        print(f"metrics: not recomputable ({error})")
    else:
        turnaround = metrics["adhoc_turnaround_s"]
        print("recomputed from the trace:")
        if windows:
            print(f"  jobs missed:        {int(metrics['jobs_missed'])}")
            print(f"  max delta:          {metrics['max_delta_s']:.1f} s")
        print(f"  workflows missed:   {int(metrics['workflows_missed'])}")
        print(
            "  ad-hoc turnaround:  "
            + ("n/a" if turnaround is None else f"{turnaround:.1f} s")
        )
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    # Only `trace query` exists today; argparse enforces the subcommand.
    import json as json_module

    from repro.obs import format_timeline, read_trace, request_timeline

    events = read_trace(args.run_trace)
    timeline = request_timeline(events, args.request)
    if args.json:
        print(json_module.dumps(timeline.to_dict(), indent=2))
    else:
        print(format_timeline(timeline, max_events=args.max_events))
    return 0 if timeline.found else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service import run_top

    iterations = 1 if args.once else args.iterations
    try:
        return run_top(
            args.url, interval_s=args.interval, iterations=iterations
        )
    except KeyboardInterrupt:
        return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cluster = _cluster(args)
    trace = load_trace(args.trace)
    comparison = run_comparison(trace, cluster, args.algorithms)
    print(format_comparison_table(comparison))
    if "FlowTime" in comparison.names:
        print("\nad-hoc turnaround relative to FlowTime:")
        for name, ratio in turnaround_ratios(comparison).items():
            print(f"  {name:<14} {ratio:5.2f}x")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.reporting import run_report

    text = run_report(scale=args.scale, seed=args.seed)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading
    from contextlib import ExitStack

    from repro.service import SchedulerService, ServiceConfig, serve_http

    cluster = _cluster(args)
    failures, error_model = _fault_models(args)
    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    scheduler_kwargs = {}
    if args.solve_budget is not None and args.scheduler.startswith("FlowTime"):
        scheduler_kwargs["planner"] = {"solve_budget_s": args.solve_budget}
    config = ServiceConfig(
        scheduler=args.scheduler,
        scheduler_kwargs=scheduler_kwargs,
        slot_seconds=args.slot_seconds,
        realtime=args.realtime,
        batch_window_s=args.batch_window,
        adhoc_queue_limit=args.queue_limit,
        admission=not args.no_admission,
        journal_path=args.journal,
        failures=failures,
        error_model=error_model,
        fault_seed=args.fault_seed,
        slo_deadline_objective=args.slo_objective,
        slo_decide_p99_s=args.slo_decide_p99,
        slo_window_s=args.slo_window,
        engine=args.engine,
    )
    if args.shards > 1:
        if args.async_http:
            # Shards inherit --engine through ServiceConfig, but the
            # router frontend is thread-based; keep the combination an
            # explicit error rather than a silent fallback.
            print(
                "error: --async supports a single service only "
                "(use --shards 1)",
                file=sys.stderr,
            )
            return 2
        return _serve_sharded(args, cluster, config)
    sink = None
    if args.trace_out:
        max_bytes = (
            int(args.trace_rotate_mb * 1024 * 1024)
            if args.trace_rotate_mb
            else None
        )
        sink = JsonlSink(
            args.trace_out,
            max_bytes=max_bytes,
            backups=args.trace_rotate_backups,
        )
    obs = Observability(
        sink=sink, level=verbosity_to_level(args.quiet, args.verbose)
    )
    with ExitStack() as stack:
        if args.chaos_fault_prob > 0.0 or args.chaos_slow_prob > 0.0:
            from repro.chaos import ChaosConfig, chaos_solver

            chaos = stack.enter_context(
                chaos_solver(
                    ChaosConfig(
                        solver_fault_prob=args.chaos_fault_prob,
                        solver_slow_prob=args.chaos_slow_prob,
                        solver_slow_s=args.chaos_slow_s,
                        seed=args.chaos_seed,
                    )
                )
            )
            print(
                f"chaos: fault_prob={args.chaos_fault_prob} "
                f"slow_prob={args.chaos_slow_prob} seed={args.chaos_seed}",
                flush=True,
            )
        service = SchedulerService(cluster, config, obs=obs).start()
        if args.async_http:
            from repro.service import serve_http_async

            server = serve_http_async(service, host=args.host, port=args.port)
        else:
            server = serve_http(service, host=args.host, port=args.port)
        frontend = "asyncio" if args.async_http else "threaded"
        print(
            f"serving {args.scheduler} on {server.url} "
            f"({frontend} frontend, {args.engine} engine)",
            flush=True,
        )
        print(
            "endpoints: POST /workflows  POST /jobs  GET /plan  GET /status  "
            "GET /metrics[?format=prometheus]  GET /slo  GET /healthz  "
            "GET /readyz",
            flush=True,
        )
        if args.journal:
            print(f"journal:   {args.journal}", flush=True)

        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        stop.wait()

        # Graceful drain: stop accepting requests, finish in-flight work,
        # flush the trace, then summarise the run.
        print("draining...", file=sys.stderr, flush=True)
        server.shutdown()
        result = service.drain()
        status = service.status()
        missed = sum(not w.met_deadline for w in result.workflows.values())
        print(f"drained after {result.n_slots} slots (finished={result.finished})")
        print(
            f"workflows: {status.accepted_workflows} accepted, "
            f"{status.rejected_workflows} rejected, {missed} missed deadline"
        )
        print(
            f"ad-hoc:    {status.accepted_adhoc} accepted, "
            f"{status.shed_adhoc} shed"
        )
        plan_failures = getattr(service.scheduler, "plan_failures", 0)
        if plan_failures:
            print(f"degraded:  {plan_failures} plan failures survived")
        if sink is not None:
            rotated = (
                f" ({sink.rotations} rotations)" if sink.rotations else ""
            )
            print(
                f"trace:     wrote {sink.n_events} events to "
                f"{args.trace_out}{rotated}"
            )
    obs.close()
    return 0


def _serve_sharded(args: argparse.Namespace, cluster, config) -> int:
    """``repro serve --shards N``: a router frontend over N local shards.

    Each shard owns a 1/N capacity slice, its own journal
    (``--journal PATH.shardN``), trace sink (``--trace-out
    PATH.shardN``) and metrics registry; the router multiplexes the
    single-service HTTP dialect over the fleet and the skyline
    rebalancer runs on its own cadence (docs/SHARDING.md).
    """
    import signal
    import threading
    from dataclasses import replace as dc_replace

    from repro.cluster import (
        DetectorConfig,
        FailureDetector,
        LocalShard,
        Rebalancer,
        RouterHTTPServer,
        ShardRouter,
        Supervisor,
        SupervisorConfig,
        slice_capacity,
    )
    from repro.verify import check_cross_shard_conservation

    try:
        slices = slice_capacity(cluster, args.shards)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    level = verbosity_to_level(args.quiet, args.verbose)
    shards = []
    for i, capacity_slice in enumerate(slices):
        shard_config = dc_replace(
            config,
            journal_path=f"{args.journal}.shard{i}" if args.journal else None,
        )

        def obs_factory(index: int = i):
            sink = (
                JsonlSink(f"{args.trace_out}.shard{index}")
                if args.trace_out
                else None
            )
            return Observability(sink=sink, level=level)

        shards.append(
            LocalShard(
                f"shard{i}",
                capacity_slice,
                shard_config,
                obs_factory=obs_factory,
            ).start()
        )
    router = ShardRouter(shards)
    rebalancer = Rebalancer(router)
    if args.rebalance_interval > 0:
        rebalancer.start(args.rebalance_interval)
    if args.reconcile_interval > 0:
        router.start_reconcile_loop(args.reconcile_interval)
    detector = FailureDetector(
        shards,
        DetectorConfig(
            probe_interval_s=args.probe_interval,
            dead_after_s=args.dead_after,
        ),
        obs=router.obs,
    ).start()
    router.attach_detector(detector)
    supervisor = None
    if args.failover:
        supervisor = Supervisor(
            router,
            detector,
            SupervisorConfig(failover_after_s=args.dead_after),
            rebalancer=rebalancer,
        ).start(args.probe_interval)
    server = RouterHTTPServer(
        router,
        rebalancer=rebalancer,
        supervisor=supervisor,
        host=args.host,
        port=args.port,
    )
    server_thread = threading.Thread(
        target=server.serve_forever, name="repro-router-http", daemon=True
    )
    server_thread.start()
    print(
        f"serving {args.scheduler} x{args.shards} shards behind router on "
        f"{server.url}",
        flush=True,
    )
    print(
        "endpoints: POST /workflows  POST /jobs  POST /rebalance  "
        "POST /reconcile  POST /failover  GET /status  GET /metrics  "
        "GET /slo  GET /shards  GET /healthz  GET /readyz",
        flush=True,
    )
    if supervisor is not None:
        print(
            f"failover:  supervisor on (probe {args.probe_interval}s, "
            f"dead after {args.dead_after}s)",
            flush=True,
        )
    if args.journal:
        print(
            f"journals:  {args.journal}.shard0..shard{args.shards - 1}",
            flush=True,
        )

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    stop.wait()

    print("draining...", file=sys.stderr, flush=True)
    server.shutdown()
    if supervisor is not None:
        supervisor.stop()
    detector.stop()
    rebalancer.stop()
    router.stop_reconcile_loop()
    router.reconcile()
    missed = 0
    for shard in shards:
        result = shard.drain()
        missed += sum(
            not w.met_deadline for w in result.workflows.values()
        )
    status = router.status()
    aggregate = status["aggregate"]
    owned = router.owned_by_shard()
    orphans = {
        name: list(entries)
        for name, entries in router.orphans_by_shard().items()
    }
    report = check_cross_shard_conservation(
        [wid for ids in owned.values() for wid in ids], owned, orphans
    )
    print(
        f"workflows: {aggregate['accepted_workflows']} accepted, "
        f"{aggregate['rejected_workflows']} rejected, {missed} missed "
        "deadline"
    )
    print(
        f"ad-hoc:    {aggregate['accepted_adhoc']} accepted, "
        f"{aggregate['shed_adhoc']} shed"
    )
    for name in sorted(owned):
        shard_status = status["shards"].get(name, {})
        print(
            f"  {name}: {shard_status.get('accepted_workflows', 0)} "
            f"workflows, {shard_status.get('accepted_adhoc', 0)} ad-hoc, "
            f"{len(owned[name])} owned at drain"
        )
    print(f"conservation: {report.summary()}")
    return 0 if report.ok else 1


_COMMANDS = {
    "generate-trace": _cmd_generate,
    "decompose": _cmd_decompose,
    "run": _cmd_run,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "top": _cmd_top,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=verbosity_to_level(args.quiet, args.verbose),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    logging.getLogger("repro").setLevel(
        verbosity_to_level(args.quiet, args.verbose)
    )
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError) as error:
        # Bad paths, malformed trace files, workload validation failures:
        # report cleanly instead of tracebacking at the user.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
