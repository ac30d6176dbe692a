"""Brute-force differential oracle for the production lexmin planner.

For *tiny* instances the flattest-schedule problem can be restated and
solved from scratch: a dense LP built directly with ``scipy.optimize.
linprog`` (no shared code with :mod:`repro.lp` or :mod:`repro.core`), and
for the very smallest instances an exhaustive enumeration of every
integral schedule.  The oracle asserts that the production path —
:class:`~repro.core.flowtime.FlowTimePlanner` with its sparse formulation,
lexmin rounds, warm starts, and quantisation — lands on the same minimax
utilisation theta and produces a feasible, demand-conserving plan.

Scope and limits (docs/VERIFICATION.md): the oracle compares the *round-1
minimax theta* (the quantity both formulations define identically) on
instances whose windows are individually feasible.  Two legitimate
production behaviours are detected and reported as ``skipped`` rather
than compared: jointly over-committed instances (the strict LP is
infeasible, the ladder relaxes windows, no common optimum exists) and
fractionally-feasible instances with no *integral* schedule (the LP
solves but quantisation must fail, so the ladder relaxes) — the latter
verified by exhaustive enumeration.  Relaxing when an integral schedule
*does* exist is a disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "OracleInstance",
    "OracleJob",
    "OracleOutcome",
    "check_instance",
    "enumerate_minimax",
    "generate_instance",
    "integral_feasible",
    "oracle_minimax",
    "run_oracle",
]

_THETA_TOL = 1e-5


@dataclass(frozen=True)
class OracleJob:
    """One deadline job of a tiny instance (window in absolute slots)."""

    job_id: str
    release: int
    deadline: int  # exclusive
    units: int
    max_parallel: int
    demand: dict  # resource name -> integer amount per task-slot

    @property
    def slot_cap(self) -> int:
        return min(self.max_parallel, self.units)


@dataclass(frozen=True)
class OracleInstance:
    seed: int
    capacity: dict  # resource name -> amount
    jobs: tuple[OracleJob, ...]

    @property
    def horizon(self) -> int:
        return max(job.deadline for job in self.jobs)


@dataclass(frozen=True)
class OracleOutcome:
    """The verdict on one seeded instance."""

    seed: int
    status: str  # "agree" | "disagree" | "skipped"
    oracle_theta: Optional[float] = None
    production_theta: Optional[float] = None
    detail: str = ""


def generate_instance(seed: int, *, single_resource: bool = False) -> OracleInstance:
    """A seeded tiny instance with individually feasible windows.

    Small enough that the dense oracle LP is trivial, varied enough to
    exercise window overlap, parallelism caps, and both resources.  Every
    job's units fit its own window (``units <= window * max_parallel``) so
    the strict formulation is infeasible only through *joint*
    over-commitment, which the oracle detects and skips.

    ``single_resource`` drops the mem dimension (capacity and demands), the
    regime where the coupled formulation has uniform per-variable weights
    (the slice the ``solver-bench`` CI job runs the oracle on).  The same
    seed draws the same cpu-side instance either way.
    """
    rng = np.random.default_rng(seed)
    cpu = int(rng.integers(3, 9))
    capacity = {"cpu": cpu} if single_resource else {"cpu": cpu, "mem": 2 * cpu}
    n_jobs = int(rng.integers(1, 4))
    horizon = int(rng.integers(3, 9))
    jobs = []
    for j in range(n_jobs):
        release = int(rng.integers(0, horizon - 1))
        deadline = int(rng.integers(release + 1, horizon + 1))
        max_parallel = int(rng.integers(1, 4))
        demand_cpu = int(rng.integers(1, min(3, cpu) + 1))
        # Drawn even when dropped, so seeds line up across the two modes.
        demand_mem = int(rng.integers(1, 5))
        units = int(rng.integers(1, (deadline - release) * max_parallel + 1))
        demand = {"cpu": demand_cpu}
        if not single_resource:
            demand["mem"] = demand_mem
        jobs.append(
            OracleJob(
                job_id=f"o{seed}-j{j}",
                release=release,
                deadline=deadline,
                units=units,
                max_parallel=max_parallel,
                demand=demand,
            )
        )
    return OracleInstance(seed=seed, capacity=capacity, jobs=tuple(jobs))


def oracle_minimax(instance: OracleInstance) -> Optional[float]:
    """The optimal minimax utilisation theta, from a dense LP built here.

    Variables: one allocation ``x[j, t]`` per job and window slot, plus
    theta.  Minimise theta subject to demand conservation (every job's
    units placed), per-slot-and-resource load ``<= theta * capacity`` and
    ``<= capacity`` (hard), and per-variable bounds
    ``0 <= x <= min(max_parallel, units)``.  Returns None when infeasible
    (the workload jointly over-commits the cluster within its windows).
    """
    from scipy.optimize import linprog

    resources = sorted(instance.capacity)
    horizon = instance.horizon
    var_index: dict[tuple[int, int], int] = {}
    bounds = []
    for j, job in enumerate(instance.jobs):
        for t in range(job.release, job.deadline):
            var_index[(j, t)] = len(var_index)
            bounds.append((0.0, float(job.slot_cap)))
    n_alloc = len(var_index)
    theta = n_alloc  # theta is the last variable
    bounds.append((0.0, None))

    cost = np.zeros(n_alloc + 1)
    cost[theta] = 1.0

    a_eq = np.zeros((len(instance.jobs), n_alloc + 1))
    b_eq = np.zeros(len(instance.jobs))
    for j, job in enumerate(instance.jobs):
        for t in range(job.release, job.deadline):
            a_eq[j, var_index[(j, t)]] = 1.0
        b_eq[j] = float(job.units)

    rows = []
    rhs = []
    for t in range(horizon):
        for name in resources:
            load = np.zeros(n_alloc + 1)
            any_load = False
            for j, job in enumerate(instance.jobs):
                if job.release <= t < job.deadline and job.demand.get(name, 0):
                    load[var_index[(j, t)]] = float(job.demand[name])
                    any_load = True
            if not any_load:
                continue
            soft = load.copy()
            soft[theta] = -float(instance.capacity[name])
            rows.append(soft)
            rhs.append(0.0)
            rows.append(load)
            rhs.append(float(instance.capacity[name]))
    a_ub = np.vstack(rows) if rows else None
    b_ub = np.asarray(rhs) if rows else None

    solution = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not solution.success:
        return None
    return float(solution.x[theta])


def _allocations(job: OracleJob) -> list[tuple[int, ...]]:
    """Every integral split of a job's units over its window slots."""
    window = range(job.release, job.deadline)
    out: list[tuple[int, ...]] = []

    def fill(slots: list[int], remaining: int, position: int) -> None:
        if position == len(window) - 1:
            if remaining <= job.slot_cap:
                out.append(tuple(slots + [remaining]))
            return
        for amount in range(min(remaining, job.slot_cap) + 1):
            fill(slots + [amount], remaining - amount, position + 1)

    fill([], job.units, 0)
    return out


def _per_job_allocations(
    instance: OracleInstance, max_schedules: int
) -> Optional[list[list[tuple[int, ...]]]]:
    per_job = [_allocations(job) for job in instance.jobs]
    total = 1
    for options in per_job:
        if not options:
            return None
        total *= len(options)
        if total > max_schedules:
            return None
    return per_job


def _search_schedules(
    instance: OracleInstance,
    per_job: list[list[tuple[int, ...]]],
    *,
    first_only: bool,
) -> Optional[float]:
    """Depth-first search over integral schedules under the hard capacity.

    Returns the best (or, with *first_only*, any) achievable peak
    utilisation, or None when no integral schedule respects capacity.
    """
    resources = sorted(instance.capacity)
    horizon = instance.horizon
    best: Optional[float] = None

    def recurse(j: int, load: np.ndarray) -> bool:
        nonlocal best
        if j == len(instance.jobs):
            peak = 0.0
            for t in range(horizon):
                for r, name in enumerate(resources):
                    peak = max(peak, load[t, r] / instance.capacity[name])
            if best is None or peak < best:
                best = peak
            return first_only
        job = instance.jobs[j]
        for option in per_job[j]:
            new = load.copy()
            feasible = True
            for offset, amount in enumerate(option):
                if amount == 0:
                    continue
                t = job.release + offset
                for r, name in enumerate(resources):
                    new[t, r] += amount * job.demand.get(name, 0)
                    if new[t, r] > instance.capacity[name]:
                        feasible = False
                        break
                if not feasible:
                    break
            if feasible and recurse(j + 1, new):
                return True
        return False

    recurse(0, np.zeros((horizon, len(resources))))
    return best


def enumerate_minimax(
    instance: OracleInstance, max_schedules: int = 200_000
) -> Optional[float]:
    """The optimal *integral* minimax theta by exhaustive enumeration.

    Enumerates every integral placement of every job inside its window
    (respecting per-slot parallelism caps and the hard capacity limit) and
    returns the smallest achievable peak utilisation.  Returns None when
    no integral schedule exists or the search space exceeds
    *max_schedules* (callers should pre-filter to super-tiny instances).
    """
    per_job = _per_job_allocations(instance, max_schedules)
    if per_job is None:
        return None
    return _search_schedules(instance, per_job, first_only=False)


def integral_feasible(
    instance: OracleInstance, max_schedules: int = 500_000
) -> Optional[bool]:
    """Whether *any* integral schedule fits the windows and hard capacity.

    Early-exits on the first feasible schedule.  Returns None when the
    search space exceeds *max_schedules* (undecided).
    """
    per_job = _per_job_allocations(instance, max_schedules)
    if per_job is None and any(not _allocations(j) for j in instance.jobs):
        return False
    if per_job is None:
        return None
    return _search_schedules(instance, per_job, first_only=True) is not None


def _production_plan(instance: OracleInstance):
    """Plan the instance through the production FlowTime path."""
    from repro.core.flowtime import FlowTimePlanner, JobDemand, PlannerConfig
    from repro.core.replan import PlanRequest
    from repro.model.cluster import ClusterCapacity
    from repro.model.resources import ResourceVector

    demands = tuple(
        JobDemand(
            job_id=job.job_id,
            release_slot=job.release,
            deadline_slot=job.deadline,
            units=job.units,
            unit_demand=ResourceVector(job.demand),
            max_parallel=job.max_parallel,
        )
        for job in instance.jobs
    )
    capacity = ClusterCapacity(base=ResourceVector(instance.capacity))
    planner = FlowTimePlanner(
        # slack_slots=0 keeps the planner's windows identical to the
        # oracle's; cache/warm-start off so every instance is a cold solve.
        PlannerConfig(slack_slots=0, plan_cache=False, warm_start=False)
    )
    request = PlanRequest(now_slot=0, demands=demands, capacity=capacity)
    return planner.plan(request)


def _validate_plan(instance: OracleInstance, plan) -> list[str]:
    """Feasibility of the quantised production plan, checked from scratch."""
    problems = []
    resources = sorted(instance.capacity)
    horizon = max(instance.horizon, plan.origin_slot + plan.horizon)
    load = np.zeros((horizon, len(resources)))
    for job in instance.jobs:
        grant = plan.grants.get(job.job_id)
        total = int(grant.sum()) if grant is not None else 0
        if total != job.units:
            problems.append(
                f"{job.job_id}: plan places {total} of {job.units} units"
            )
        if grant is None:
            continue
        for offset, amount in enumerate(grant):
            if amount == 0:
                continue
            t = plan.origin_slot + offset
            if amount > job.slot_cap:
                problems.append(
                    f"{job.job_id}: {int(amount)} units at slot {t} exceeds "
                    f"its parallelism cap {job.slot_cap}"
                )
            if not job.release <= t < job.deadline:
                problems.append(
                    f"{job.job_id}: placed at slot {t} outside its window "
                    f"[{job.release}, {job.deadline})"
                )
                continue
            for r, name in enumerate(resources):
                load[t, r] += amount * job.demand.get(name, 0)
    for t in range(horizon):
        for r, name in enumerate(resources):
            if load[t, r] > instance.capacity[name] + 1e-9:
                problems.append(
                    f"slot {t}: {name} load {load[t, r]:g} exceeds capacity "
                    f"{instance.capacity[name]}"
                )
    return problems


def check_instance(seed: int, *, single_resource: bool = False) -> OracleOutcome:
    """Generate, solve both ways, and compare one seeded instance.

    The production planner runs its usual HiGHS path; the oracle LP always
    runs dense ``linprog`` so the comparison stays independent.
    """
    instance = generate_instance(seed, single_resource=single_resource)
    theta_oracle = oracle_minimax(instance)
    if theta_oracle is None:
        # Jointly over-committed: the production ladder relaxes windows
        # here and no shared optimum is defined.
        return OracleOutcome(seed=seed, status="skipped", detail="infeasible")
    plan = _production_plan(instance)
    theta_prod = float(plan.minimax)
    if getattr(plan, "degraded", False):
        return OracleOutcome(
            seed=seed,
            status="disagree",
            oracle_theta=theta_oracle,
            production_theta=theta_prod,
            detail="production degraded on an oracle-feasible instance",
        )
    if not np.isfinite(theta_prod):
        return OracleOutcome(
            seed=seed,
            status="disagree",
            oracle_theta=theta_oracle,
            production_theta=theta_prod,
            detail="production plan carries no minimax theta",
        )
    problems = _validate_plan(instance, plan)
    if problems:
        # The plan breaks the strict windows: production fell off the
        # first ladder rung.  That is legitimate iff quantisation *had*
        # to fail — no integral schedule exists although the LP solved.
        feasible = integral_feasible(instance)
        if feasible is False:
            return OracleOutcome(
                seed=seed,
                status="skipped",
                oracle_theta=theta_oracle,
                production_theta=theta_prod,
                detail="integral-infeasible; production relaxed windows",
            )
        if feasible is None:
            return OracleOutcome(
                seed=seed,
                status="skipped",
                oracle_theta=theta_oracle,
                production_theta=theta_prod,
                detail="production relaxed windows; existence check too large",
            )
        return OracleOutcome(
            seed=seed,
            status="disagree",
            oracle_theta=theta_oracle,
            production_theta=theta_prod,
            detail="relaxed although an integral schedule exists: "
            + "; ".join(problems),
        )
    if abs(theta_prod - theta_oracle) > _THETA_TOL:
        return OracleOutcome(
            seed=seed,
            status="disagree",
            oracle_theta=theta_oracle,
            production_theta=theta_prod,
            detail=f"theta {theta_prod:.6f} != oracle {theta_oracle:.6f}",
        )
    return OracleOutcome(
        seed=seed,
        status="agree",
        oracle_theta=theta_oracle,
        production_theta=theta_prod,
    )


def run_oracle(
    seeds,
    *,
    min_agreements: int | None = None,
    single_resource: bool = False,
) -> list[OracleOutcome]:
    """Check a sequence of seeds; optionally stop once enough agree."""
    outcomes = []
    agreements = 0
    for seed in seeds:
        outcome = check_instance(int(seed), single_resource=single_resource)
        outcomes.append(outcome)
        if outcome.status == "agree":
            agreements += 1
            if min_agreements is not None and agreements >= min_agreements:
                break
    return outcomes
