"""Admission control for deadline workflows (a Rayon-flavoured extension).

Rayon [4] — one of the paper's baselines' ancestors — admits a job only if
its reservation fits alongside existing commitments.  The same question is
well-posed for FlowTime: *given the deadline work already committed, can a
newly submitted workflow's decomposed windows still be honoured?*  The
max-placement LP from the planner answers it exactly: relax every demand to
``<=`` and maximise total placement; any shortfall is work that provably
cannot fit before its deadline.

This module is an extension beyond the paper (which assumes all workflows
are admitted) and is what an operator would bolt on to avoid accepting
workloads that are doomed to miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.decomposition import decompose_deadline
from repro.core.flowtime import JobDemand, PlannerConfig, caps_array
from repro.core.lp_formulation import ScheduleEntry, build_max_placement
from repro.lp.solver import solve_lp
from repro.model.cluster import ClusterCapacity
from repro.model.workflow import Workflow
from repro.obs import current_obs

__all__ = ["AdmissionDecision", "check_admission"]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission check.

    Attributes:
        admit: True when every job (existing and new) can still meet its
            window.
        shortfall_units: per-job task-slots that provably cannot be placed
            before the job's deadline (empty when ``admit``).
        utilisation: the resulting max normalised load if admitted (a
            capacity-headroom signal even for admitted workflows).
    """

    admit: bool
    shortfall_units: Mapping[str, int]
    utilisation: float

    @property
    def total_shortfall(self) -> int:
        return sum(self.shortfall_units.values())


def check_admission(
    new_workflow: Workflow,
    existing_demands: Sequence[JobDemand],
    capacity: ClusterCapacity,
    now_slot: int,
    *,
    config: PlannerConfig | None = None,
) -> AdmissionDecision:
    """Would admitting *new_workflow* keep every deadline feasible?

    Args:
        new_workflow: the candidate workflow (its deadline windows are
            decomposed here, exactly as the scheduler would on arrival).
        existing_demands: remaining demands of already-admitted deadline
            jobs (what :meth:`FlowTimeScheduler._demands` tracks).
        capacity: the cluster.
        now_slot: current slot (windows before it are clamped).
        config: planner configuration (slack etc.) used to shape windows.

    The check is exact for the coupled formulation: max-placement under the
    joint windows either places all work (admit) or certifies a shortfall.
    """
    obs = current_obs()
    with obs.span("admission.check"):
        decision = _check_admission(
            new_workflow, existing_demands, capacity, now_slot, config=config
        )
    if decision.admit:
        obs.counter("admission.accepted").inc()
        obs.event(
            "admission_accept",
            workflow_id=new_workflow.workflow_id,
            slot=now_slot,
            utilisation=decision.utilisation,
        )
    else:
        obs.counter("admission.rejected").inc()
        obs.event(
            "admission_reject",
            workflow_id=new_workflow.workflow_id,
            slot=now_slot,
            shortfall_units=decision.total_shortfall,
            utilisation=decision.utilisation,
        )
    return decision


def _check_admission(
    new_workflow: Workflow,
    existing_demands: Sequence[JobDemand],
    capacity: ClusterCapacity,
    now_slot: int,
    *,
    config: PlannerConfig | None = None,
) -> AdmissionDecision:
    config = config or PlannerConfig()
    decomposition = decompose_deadline(new_workflow, capacity)
    new_demands = [
        JobDemand(
            job_id=job.job_id,
            release_slot=decomposition.windows[job.job_id].release_slot,
            deadline_slot=decomposition.windows[job.job_id].deadline_slot,
            units=job.tasks.total_task_slots,
            unit_demand=job.tasks.demand,
            max_parallel=job.tasks.count,
        )
        for job in new_workflow.jobs
    ]
    demands = list(existing_demands) + new_demands
    # Unlike the planner, admission must NOT repair infeasible windows — a
    # window too small for its own work is precisely a reason to reject.
    entries = []
    slack = config.slack_slots
    for demand in demands:
        release = max(demand.release_slot - now_slot, 0)
        deadline = demand.deadline_slot - now_slot
        if slack and deadline - slack > release:
            deadline -= slack
        deadline = max(deadline, release + 1)
        entries.append(
            ScheduleEntry(
                job_id=demand.job_id,
                release=release,
                deadline=deadline,
                units=demand.units,
                unit_demand=demand.unit_demand,
                max_parallel=demand.max_parallel,
            )
        )
    horizon = max(entry.deadline for entry in entries)
    caps = caps_array(capacity, now_slot, horizon)
    problem, lp = build_max_placement(entries, caps, capacity.resources)
    sol = solve_lp(lp, tag="admission")
    x = sol.require_optimal()
    placed = np.asarray(problem.a_eq @ x).ravel()

    shortfalls: dict[str, int] = {}
    for entry, got, want in zip(problem.entries, placed, problem.b_eq):
        missing = int(round(want - got))
        if missing > 0:
            shortfalls[entry.job_id] = missing

    loads = np.asarray(problem.a_util @ x).ravel()
    utilisation = float(
        (loads / np.maximum(problem.cell_caps(), 1e-12)).max(initial=0.0)
    )
    return AdmissionDecision(
        admit=not shortfalls,
        shortfall_units=shortfalls,
        utilisation=utilisation,
    )
