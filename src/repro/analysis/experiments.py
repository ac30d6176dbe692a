"""The comparison harness behind every Fig. 4/5-style experiment.

One call runs the same trace under several schedulers and collects the
paper's metrics.  Per-job deadline metrics are judged against *canonical
windows* — the resource-demand decomposition computed once from the
workload — identical for every algorithm, exactly as the paper's "90
deadline-aware jobs" are judged regardless of scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.decomposition import decompose_deadline
from repro.core.decomposition_types import JobWindow
from repro.estimation.history import RunHistory, synthesize_history
from repro.model.cluster import ClusterCapacity
from repro.obs import Observability
from repro.schedulers.registry import make_scheduler
from repro.simulator.engine import Simulation, SimulationConfig
from repro.simulator.metrics import (
    adhoc_turnaround_seconds,
    deadline_deltas_seconds,
    missed_jobs,
    missed_workflows,
)
from repro.simulator.result import SimulationResult
from repro.workloads.traces import SyntheticTrace


@dataclass(frozen=True)
class AlgorithmOutcome:
    """Everything measured for one scheduler on one trace."""

    name: str
    result: SimulationResult
    deltas_seconds: Mapping[str, float]
    missed_jobs: tuple[str, ...]
    missed_workflows: tuple[str, ...]
    adhoc_turnaround_s: float

    @property
    def n_missed_jobs(self) -> int:
        return len(self.missed_jobs)

    @property
    def n_missed_workflows(self) -> int:
        return len(self.missed_workflows)


@dataclass(frozen=True)
class ComparisonResult:
    """Outcomes per algorithm plus the shared ground-truth windows."""

    outcomes: tuple[AlgorithmOutcome, ...]
    windows: Mapping[str, JobWindow]

    def outcome(self, name: str) -> AlgorithmOutcome:
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.outcomes)


def canonical_windows(
    trace: SyntheticTrace, capacity: ClusterCapacity
) -> dict[str, JobWindow]:
    """The per-job deadline ground truth: decomposed once, shared by all."""
    windows: dict[str, JobWindow] = {}
    for workflow in trace.workflows:
        result = decompose_deadline(workflow, capacity)
        windows.update(result.windows)
    return windows


def run_one(
    name: str,
    trace: SyntheticTrace,
    capacity: ClusterCapacity,
    *,
    windows: Mapping[str, JobWindow] | None = None,
    history: RunHistory | None = None,
    config: SimulationConfig | None = None,
    scheduler_kwargs: dict | None = None,
    obs: Observability | None = None,
) -> AlgorithmOutcome:
    """Run one scheduler over a trace and measure the paper's metrics.

    ``obs`` injects an observability handle (trace sink, shared registry)
    into the simulation; by default each run gets a private registry and
    no trace.
    """
    if windows is None:
        windows = canonical_windows(trace, capacity)
    scheduler = make_scheduler(name, history=history, **(scheduler_kwargs or {}))
    sim = Simulation(
        cluster=capacity,
        scheduler=scheduler,
        workflows=trace.workflows,
        adhoc_jobs=trace.adhoc_jobs,
        config=config,
        obs=obs,
    )
    result = sim.run()
    return AlgorithmOutcome(
        name=name,
        result=result,
        deltas_seconds=deadline_deltas_seconds(result, windows),
        missed_jobs=tuple(missed_jobs(result, windows)),
        missed_workflows=tuple(missed_workflows(result)),
        adhoc_turnaround_s=adhoc_turnaround_seconds(result),
    )


def run_comparison(
    trace: SyntheticTrace,
    capacity: ClusterCapacity,
    algorithms: Sequence[str] = ("FlowTime", "CORA", "EDF", "Fair", "FIFO"),
    *,
    config: SimulationConfig | None = None,
    history: RunHistory | None = None,
    synthesize_morpheus_history: bool = True,
    scheduler_kwargs: Mapping[str, dict] | None = None,
) -> ComparisonResult:
    """Run several schedulers over the same trace (the Fig. 4 experiment).

    Args:
        trace: the shared workload.
        capacity: the shared cluster.
        algorithms: scheduler names in presentation order (defaults to the
            paper's Fig. 4 legend).
        config: simulator configuration.
        history: prior-run history for Morpheus; when None and Morpheus is
            requested, plausible history is synthesised from the workflows.
        scheduler_kwargs: per-algorithm constructor overrides.
    """
    windows = canonical_windows(trace, capacity)
    if history is None and "Morpheus" in algorithms and synthesize_morpheus_history:
        history = RunHistory()
        for i, workflow in enumerate(trace.workflows):
            synthesized = synthesize_history(workflow, capacity, seed=i)
            for template, runs in synthesized.runs.items():
                for run in runs:
                    history.add(template, run)
    outcomes = []
    for name in algorithms:
        kwargs = dict((scheduler_kwargs or {}).get(name, {}))
        outcomes.append(
            run_one(
                name,
                trace,
                capacity,
                windows=windows,
                history=history,
                config=config,
                scheduler_kwargs=kwargs,
            )
        )
    return ComparisonResult(outcomes=tuple(outcomes), windows=windows)
