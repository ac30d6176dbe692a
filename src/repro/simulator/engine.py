"""The slot-based batch simulation frontend.

One :class:`Simulation` run drives one scheduler over one *canned* workload
(workflows plus an ad-hoc stream) on one cluster.  Per slot:

1. deliver the slot's events (workflow/job arrivals, readiness transitions,
   completions from the previous slot) to the scheduler;
2. ask the scheduler for task-unit grants and validate them — grants to
   unknown, unready, or finished jobs and grants exceeding capacity are
   engine errors (they would be scheduler bugs, not workload conditions);
3. execute: each granted unit runs one *true* task-slot; a job whose
   estimate was wrong simply finishes earlier or later than the scheduler
   believed (the scheduler only ever sees believed progress);
4. process completions, releasing dependent jobs for the next slot.

Tasks are preemptible at slot boundaries with retained progress, the
executable reading of the paper's formulation (its demand constraint (2)
treats a job as a divisible amount of work placed freely in its window).

The slot machinery itself lives in :class:`~repro.simulator.runtime.
EngineCore`, shared with the online scheduler service
(:mod:`repro.service`): this class owns the *batch* clock — register the
whole workload up front, then spin slots as fast as possible until every
job completes (or ``max_slots``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.model.cluster import ClusterCapacity
from repro.model.job import Job
from repro.model.workflow import Workflow
from repro.obs import Observability, use_obs
from repro.simulator.failures import FailureModel
from repro.simulator.nodes import NodeCluster
from repro.simulator.result import SimulationResult
from repro.simulator.runtime import EngineCore, make_engine_core

if TYPE_CHECKING:  # imported lazily to avoid a package import cycle
    from repro.schedulers.base import Scheduler


@dataclass(frozen=True)
class SimulationConfig:
    """Engine knobs.

    Attributes:
        slot_seconds: wall-clock duration of one slot (paper: 10 s).
        max_slots: hard stop; a run not finished by then returns
            ``finished=False`` with whatever completed.
        strict: validate scheduler assignments (grants to unready jobs,
            over-capacity grants) by raising instead of clamping.
        record_execution: keep a per-slot record of executed task units per
            job (enables Gantt rendering; costs memory on long runs).
        failures: optional failure model injecting progress setbacks.
        node_cluster: optional node-level topology; when set, granted task
            units must also *pack* onto individual nodes, and units lost to
            fragmentation are recorded (schedulers keep the aggregate view).
        verify: run the independent runtime assertion layer
            (:mod:`repro.verify`): every slot is re-checked against
            capacity/readiness/completion invariants as it executes, the
            full :class:`~repro.verify.ScheduleValidator` runs over the
            final result, and the run raises
            :class:`~repro.verify.VerificationError` on any violation
            (``repro run --verify``).  Off by default — it costs a
            per-slot recheck and turns on execution recording.
        engine: which engine core steps the clock — ``"slots"`` (the
            historical slot-stepped :class:`~repro.simulator.runtime.
            EngineCore`) or ``"events"`` (the event-queue
            :class:`~repro.simulator.events.EventEngineCore`, which
            jumps idle gaps; outcome-identical, see
            ``tests/test_engine_equivalence.py``).
    """

    slot_seconds: float = 10.0
    max_slots: int = 50_000
    strict: bool = True
    record_execution: bool = False
    failures: FailureModel | None = None
    node_cluster: NodeCluster | None = None
    verify: bool = False
    engine: str = "slots"


class Simulation:
    """One simulation run binding a cluster, a scheduler, and a workload."""

    def __init__(
        self,
        cluster: ClusterCapacity,
        scheduler: "Scheduler",
        workflows: Iterable[Workflow] = (),
        adhoc_jobs: Iterable[Job] = (),
        config: SimulationConfig | None = None,
        obs: Observability | None = None,
    ):
        self.cluster = cluster
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        # Each simulation owns its observability handle (metrics registry +
        # trace sink); the default records metrics into a private registry
        # and traces nowhere.  It is installed as the context-wide handle
        # only while ``run`` executes, so concurrent/sequential simulations
        # never share metric state.
        self.obs = obs if obs is not None else Observability()
        self._core = make_engine_core(cluster, scheduler, self.config, self.obs)
        self._core.validate_cluster()
        for workflow in workflows:
            self._core.add_workflow(workflow)
        for job in adhoc_jobs:
            self._core.add_adhoc(job)

    @property
    def workflows(self) -> dict[str, Workflow]:
        return self._core.workflows

    # -- run loop --------------------------------------------------------------

    def run(self) -> SimulationResult:
        # Install this simulation's observability handle for the whole run
        # so the algorithm layers (decomposition, LP, admission) reached
        # from scheduler callbacks record into *this* registry.
        with use_obs(self.obs):
            return self._run_loop()

    def _run_loop(self) -> SimulationResult:
        core = self._core
        core.emit_run_start()
        while not core.finished and core.slot < self.config.max_slots:
            core.step()
        core.flush_pending_events()
        core.finalize_metrics()
        finished = core.finished
        core.emit_run_end(finished)
        result = core.result(finished)
        if self.config.verify:
            result.verification = self._verify(core, result)
        return result

    def _verify(self, core: EngineCore, result: SimulationResult):
        """Full end-of-run validation of a ``verify=True`` run.

        Merges the per-slot runtime report with a fresh independent pass of
        the :class:`~repro.verify.ScheduleValidator` over the final result
        and raises :class:`~repro.verify.VerificationError` on any
        violation (the assertion-layer contract of ``run --verify``).
        """
        from repro.verify import ScheduleValidator

        report = (
            core.verifier.report
            if core.verifier is not None
            else None
        )
        validator = ScheduleValidator(
            self.cluster,
            workflows=core.workflows.values(),
            jobs=[run.job for run in core.job_runs()],
            allow_setbacks=self.config.failures is not None,
        )
        full = validator.validate(result)
        if report is not None:
            report.merge(full)
        else:
            report = full
        report.raise_if_violations()
        return report
