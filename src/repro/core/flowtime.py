"""The FlowTime planner: decomposed windows in, executable plan out.

This is the paper's Sec. V/VI engine.  Every time the job mix changes (a job
arrives, becomes ready, or completes) the scheduler calls :meth:`plan` with
the *remaining* demands of all live deadline-aware jobs.  The planner:

1. applies the **deadline slack** (Sec. VII-2): demands are required
   ``slack_slots`` before the decomposed deadline whenever the tightened
   window can still hold the job;
2. repairs per-job infeasibility (overdue jobs, windows too small for the
   remaining work) by extending windows just enough — the dynamic-replanning
   answer to estimation errors;
3. solves the lexicographic minimax LP (Sec. V-B) to get the flattest
   possible deadline-work skyline, so ad-hoc jobs get the most leftover
   capacity as early as possible;
4. re-quantises to an integral plan; if the LP is infeasible even after
   relaxing all windows (the cluster is over-committed) it degrades to EDF
   water-filling rather than failing.

The planner has no simulator state and no clocks: it maps a
:class:`~repro.core.replan.PlanRequest` (now, demands, capacity, config) to
an :class:`~repro.core.allocation.AllocationPlan`.  Because that mapping is
deterministic, the planner memoises it — a fingerprint-keyed plan cache
skips the LP for repeated job mixes (recurring workflows), and the previous
solve's skyline warm-starts the lexmin ladder on near-identical ones; see
:mod:`repro.core.replan`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from repro.core.allocation import (
    AllocationPlan,
    IntegralizationError,
    greedy_fill,
    quantize_coupled,
)
from repro.core.lexmin import LexminResult, LexminWarmHint, lexmin_schedule
from repro.core.lp_formulation import (
    Mode,
    ScheduleEntry,
    ScheduleProblem,
    build_max_placement,
    build_schedule_problem,
)
from repro.core.replan import CachedPlan, PlanCache, PlanRequest
from repro.model.cluster import ClusterCapacity
from repro.model.resources import ResourceVector
from repro.obs import current_obs


def caps_array(
    capacity: ClusterCapacity, now_slot: int, horizon: int
) -> np.ndarray:
    """Per-slot capacity matrix ``C[k, r] = capacity.at(now + k)[r]``."""
    resources = capacity.resources
    caps = np.zeros((horizon, len(resources)))
    for k in range(horizon):
        cap_vec = capacity.at(now_slot + k)
        for r, name in enumerate(resources):
            caps[k, r] = cap_vec[name]
    return caps


@dataclass(frozen=True)
class PlannerConfig:
    """Tunables of the FlowTime planner.

    Attributes:
        slack_slots: deadline slack in slots (the paper's default is 60 s =
            6 slots of 10 s).  0 disables slack (the Fig. 5 ablation).
        formulation: "coupled" (default; task-slot variables, executable) or
            "paper" (per-resource variables, Lemma-2-faithful).
        per_slot_caps: bound per-slot grants by the job's parallelism.
        max_lexmin_rounds: minimax refinement rounds (None = exact lexmin;
            small values keep re-planning fast with near-identical plans).
        horizon_slots: hard cap on the planning horizon (None = plan until
            the latest adjusted deadline).
        front_load: tie-break balanced optima toward earlier slots (see
            :func:`repro.core.lexmin.lexmin_schedule`); False is the
            paper-faithful behaviour where only the deadline slack guards
            against last-minute allocations.
        plan_cache: memoise solved plans by a canonical fingerprint of
            (remaining demands, capacity, config) so unchanged job mixes —
            in particular recurring-workflow instances — skip the LP ladder
            entirely.  Plans are deterministic functions of the fingerprint,
            so cached plans are identical to cold solves.
        plan_cache_size: LRU capacity of the plan cache.
        warm_start: on a cache miss, seed the lexmin ladder from the
            previous solve's utilisation skyline (see
            :class:`repro.core.lexmin.LexminWarmHint`).  The minimax theta
            is still solved exactly and a failed exactness check falls back
            to the cold ladder, so plans stay minimax-optimal.
        solve_budget_s: optional wall-time budget per LP solve (the solver
            guardrail).  A solve that exceeds it — or fails on every
            backend — raises :class:`~repro.lp.solver.SolverFailure` out of
            :meth:`FlowTimePlanner.plan`; the FlowTime scheduler catches it
            and enters degraded mode.  None (default) never times out,
            which is the pre-guardrail behaviour.
    """

    slack_slots: int = 6
    formulation: Mode = "coupled"
    per_slot_caps: bool = True
    max_lexmin_rounds: int | None = 4
    horizon_slots: int | None = None
    front_load: bool = True
    plan_cache: bool = True
    plan_cache_size: int = 128
    warm_start: bool = True
    solve_budget_s: float | None = None

    def __post_init__(self) -> None:
        if self.slack_slots < 0:
            raise ValueError("slack_slots must be >= 0")
        if self.horizon_slots is not None and self.horizon_slots < 1:
            raise ValueError("horizon_slots must be >= 1")
        if self.plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")


@dataclass(frozen=True)
class JobDemand:
    """Remaining demand of one live deadline-aware job (absolute slots)."""

    job_id: str
    release_slot: int
    deadline_slot: int
    units: int
    unit_demand: ResourceVector
    max_parallel: int

    def min_slots_needed(self) -> int:
        return math.ceil(self.units / self.max_parallel)


class FlowTimePlanner:
    """Planner mapping live demands to an allocation plan.

    The planner remains a *pure function* of its inputs — it maps a
    :class:`~repro.core.replan.PlanRequest` to the same
    :class:`~repro.core.allocation.AllocationPlan` a fresh instance would
    produce — but it carries two pieces of memoisation state to keep the
    re-planning hot path incremental: a fingerprint-keyed
    :class:`~repro.core.replan.PlanCache` (identical plans are reused
    outright) and the previous solve's utilisation skyline (used to
    warm-start the lexmin ladder on near-identical job mixes).  Both are
    transparent: disabling them via :class:`PlannerConfig` changes latency,
    never the plan's recorded metrics.
    """

    def __init__(self, config: PlannerConfig | None = None):
        self.config = config or PlannerConfig()
        self.plan_cache = PlanCache(maxsize=self.config.plan_cache_size)
        # Previous cold solve's skyline in absolute coordinates:
        # (resources, theta, {(absolute_slot, r_index): utilisation}).
        self._skyline: tuple[tuple[str, ...], float, dict] | None = None

    # -- window preparation ---------------------------------------------------

    def _entry_for(
        self, demand: JobDemand, now: int, *, slack: int
    ) -> ScheduleEntry:
        """Relative-slot entry with slack applied and feasibility repaired."""
        release = max(demand.release_slot - now, 0)
        deadline = demand.deadline_slot - now
        need = demand.min_slots_needed()

        if slack and deadline - slack - release >= need:
            deadline -= slack
        # Overdue or too-tight windows are extended just enough: the paper's
        # robustness story is that re-planning absorbs estimation drift
        # instead of dropping jobs.
        deadline = max(deadline, release + need, release + 1)
        return ScheduleEntry(
            job_id=demand.job_id,
            release=release,
            deadline=deadline,
            units=demand.units,
            unit_demand=demand.unit_demand,
            max_parallel=demand.max_parallel,
        )

    def _caps_array(
        self, capacity: ClusterCapacity, now: int, horizon: int
    ) -> np.ndarray:
        return caps_array(capacity, now, horizon)

    # -- planning ----------------------------------------------------------------

    def plan(self, request: PlanRequest) -> AllocationPlan:
        """Compute an integral allocation plan for the live deadline jobs.

        Returns an :class:`AllocationPlan` anchored at the request's
        ``now_slot``.  When there are no demands the plan is empty
        (everything goes to ad-hoc jobs).  ``plan.degraded`` is True when
        the LP was infeasible even with relaxed windows and EDF
        water-filling was used.
        """
        config = request.config or self.config
        obs = current_obs()
        with obs.span("sched.plan"):
            if not config.plan_cache:
                return self._plan(request, config)
            key = request.fingerprint(config)
            cached = self.plan_cache.get(key)
            if cached is not None:
                obs.counter("sched.plan.cache.hit").inc()
                return cached.materialise(request)
            obs.counter("sched.plan.cache.miss").inc()
            plan = self._plan(request, config)
            self.plan_cache.put(key, CachedPlan.from_plan(plan, request))
            return plan

    # -- warm-start memory -------------------------------------------------------

    def _remember_skyline(
        self,
        now_slot: int,
        resources: tuple[str, ...],
        problem: ScheduleProblem,
        result: LexminResult,
    ) -> None:
        """Store the solve's utilisation skyline in absolute coordinates."""
        if result.utilisation is None:
            return
        levels = {
            (now_slot + slot, r): float(result.utilisation[k])
            for k, (slot, r) in enumerate(problem.util_cells)
        }
        self._skyline = (resources, result.minimax, levels)

    def _warm_hint(
        self, now_slot: int, resources: tuple[str, ...]
    ) -> LexminWarmHint | None:
        """Previous skyline re-anchored at ``now_slot``, if compatible."""
        if self._skyline is None:
            return None
        stored_resources, theta, levels = self._skyline
        if stored_resources != resources:
            return None
        relative = {
            (slot - now_slot, r): level
            for (slot, r), level in levels.items()
            if slot >= now_slot
        }
        if not relative:
            return None
        return LexminWarmHint(theta=theta, levels=relative)

    def _plan(self, request: PlanRequest, config: PlannerConfig) -> AllocationPlan:
        now_slot = request.now_slot
        demands = request.demands
        capacity = request.capacity
        resources = capacity.resources
        if not demands:
            return AllocationPlan.empty(now_slot, 1, resources)

        def clamp(entries: list[ScheduleEntry], horizon: int) -> list[ScheduleEntry]:
            return [
                replace(
                    e,
                    release=min(e.release, horizon - 1),
                    deadline=min(max(e.deadline, e.release + 1), horizon),
                )
                for e in entries
            ]

        slacked = [
            self._entry_for(d, now_slot, slack=config.slack_slots)
            for d in demands
        ]
        plain = [self._entry_for(d, now_slot, slack=0) for d in demands]
        horizon = max(entry.deadline for entry in plain)
        if config.horizon_slots is not None:
            horizon = min(horizon, config.horizon_slots)
        # An incremental relaxation ladder: drop the slack first, then — if
        # the cluster is jointly over-committed — extend *only* the windows
        # that a max-placement LP proves cannot hold their work (optimal
        # triage: feasible jobs keep their urgency, like EDF sacrificing the
        # least-urgent work, but chosen by an LP), and finally stretch
        # everything.  A relax-everything jump would schedule like there
        # were no deadlines at all.  The ladder is lazy: a rung's windows
        # (and the max-placement LP behind a relaxed rung) are computed
        # only once the rung before it has failed, which it almost never
        # does.
        stretched = int(horizon * 3 / 2) + 1

        def ladder() -> Iterator[tuple[str, list[ScheduleEntry], int]]:
            if config.slack_slots:
                yield "slack", clamp(slacked, horizon), horizon
            base = clamp(plain, horizon)
            yield "plain", base, horizon
            relaxed, relaxed_horizon = self._shortfall_relax(
                base, now_slot, capacity, horizon, config
            )
            yield "relax1", relaxed, relaxed_horizon
            relaxed2, relaxed2_horizon = self._shortfall_relax(
                relaxed, now_slot, capacity, relaxed_horizon, config
            )
            yield "relax2", relaxed2, relaxed2_horizon
            everything = clamp(plain, stretched)
            yield "stretch", [replace(e, deadline=stretched) for e in everything], stretched

        for rung, (name, attempt_entries, attempt_horizon) in enumerate(ladder()):
            caps = caps_array(capacity, now_slot, attempt_horizon)
            problem = build_schedule_problem(
                attempt_entries,
                caps,
                resources,
                mode=config.formulation,
                per_slot_caps=config.per_slot_caps,
            )
            # The stored skyline came from whichever rung produced the last
            # plan — almost always the first — so only the first rung can
            # meaningfully reuse it; relaxed rungs see different windows.
            hint = (
                self._warm_hint(now_slot, resources)
                if config.warm_start and rung == 0
                else None
            )
            result = lexmin_schedule(
                problem,
                max_rounds=config.max_lexmin_rounds,
                front_load=config.front_load,
                warm_hint=hint,
                solve_budget_s=config.solve_budget_s,
            )
            if result.is_optimal:
                grants = self._quantize(problem, result.x, config)
                if grants is not None:
                    obs = current_obs()
                    obs.counter(f"sched.plan.rung.{name}").inc()
                    if result.warm:
                        obs.counter("sched.plan.warm").inc()
                    if config.warm_start:
                        self._remember_skyline(
                            now_slot, resources, problem, result
                        )
                    return AllocationPlan(
                        origin_slot=now_slot,
                        horizon=attempt_horizon,
                        resources=resources,
                        grants=grants,
                        unit_demands={
                            e.job_id: e.unit_demand for e in attempt_entries
                        },
                        degraded=False,
                        minimax=result.minimax,
                    )

        # The cluster is over-committed beyond what window relaxation can
        # absorb: EDF water-filling over the *original* windows keeps the
        # most urgent work first and always makes progress.
        current_obs().counter("sched.plan.degraded").inc()
        caps = caps_array(capacity, now_slot, stretched)
        grants = greedy_fill(clamp(plain, stretched), caps, resources)
        return AllocationPlan(
            origin_slot=now_slot,
            horizon=stretched,
            resources=resources,
            grants=grants,
            unit_demands={e.job_id: e.unit_demand for e in plain},
            degraded=True,
        )

    def _shortfall_relax(
        self,
        entries: list[ScheduleEntry],
        now_slot: int,
        capacity: ClusterCapacity,
        horizon: int,
        config: PlannerConfig | None = None,
    ) -> tuple[list[ScheduleEntry], int]:
        """Extend only the windows that provably cannot hold their work.

        Solves a *max-placement* LP (demands relaxed to ``<=``, maximise the
        total placed) under the current windows and caps; each job's
        shortfall is the work the optimum could not place.  Jobs with a
        shortfall get their deadline pushed out just far enough to absorb it
        at full parallelism; everyone else keeps their window.  Returns the
        relaxed entries and the (possibly grown) horizon.
        """
        from repro.lp.solver import SolverFailure, solve_lp

        config = config or self.config
        caps = caps_array(capacity, now_slot, horizon)
        problem, lp = build_max_placement(entries, caps, capacity.resources)
        try:
            sol = solve_lp(lp, tag="relax", time_budget_s=config.solve_budget_s)
        except SolverFailure:
            # Window relaxation is best-effort triage: without the shortfall
            # oracle we keep the windows as-is and let the ladder's blanket
            # stretch (or degraded mode) take over.
            return entries, horizon
        if not sol.is_optimal:  # defensive: max-placement is always feasible
            return entries, horizon
        placed = np.asarray(problem.a_eq @ sol.x).ravel()
        relaxed: list[ScheduleEntry] = []
        new_horizon = horizon
        for entry, got, want in zip(problem.entries, placed, problem.b_eq):
            shortfall = want - got
            if shortfall > 0.5:
                extra = math.ceil(shortfall / entry.max_parallel) + 1
                deadline = entry.deadline + extra
                new_horizon = max(new_horizon, deadline)
                relaxed.append(replace(entry, deadline=deadline))
            else:
                relaxed.append(entry)
        return relaxed, new_horizon

    def _quantize(
        self, problem, x, config: PlannerConfig | None = None
    ) -> dict[str, np.ndarray] | None:
        """Integral grants from the fractional solution, or None on failure."""
        config = config or self.config
        if config.formulation == "coupled":
            try:
                return quantize_coupled(problem, x)
            except IntegralizationError:
                return None
        return self._units_from_paper(problem, x)

    @staticmethod
    def _paper_fractional_units(problem, x) -> dict[tuple[int, int], float]:
        """Fractional task-slot units implied by paper-mode variables.

        A task-slot needs all its resources in the same slot, so the
        fractional unit count at (entry, slot) is the minimum across
        resources of ``x_it^r / demand_r`` — the conversion a
        container-based executor applies.
        """
        per_cell: dict[tuple[int, int], float] = {}
        r_names = problem.resources
        for var, (e_index, slot, r) in enumerate(problem.var_meta):
            demand = problem.entries[e_index].unit_demand[r_names[r]]
            if not demand:
                continue
            value = max(float(x[var]), 0.0) / demand
            key = (e_index, slot)
            per_cell[key] = min(per_cell.get(key, math.inf), value)
        return per_cell

    def _units_from_paper(self, problem, x) -> dict[str, np.ndarray]:
        """Integral task-slot grants from a paper-mode solution.

        The per-resource LP can decouple resources (cpu skewed to one slot,
        memory to another), which would lose units under a pure min-floor
        conversion.  We therefore rebuild the *coupled* problem over the
        same entries and run the shared quantiser on the fractional unit
        counts, which re-places the lost remainders within capacity.  If
        even that fails (pathological decoupling) we fall back to the plain
        floor conversion — the event-driven re-plan picks up the shortfall.
        """
        per_cell = self._paper_fractional_units(problem, x)
        coupled = build_schedule_problem(
            problem.entries,
            problem.caps,
            problem.resources,
            mode="coupled",
            per_slot_caps=True,
        )
        y = np.zeros(coupled.n_vars)
        for var, (e_index, slot, _r) in enumerate(coupled.var_meta):
            y[var] = per_cell.get((e_index, slot), 0.0)
        try:
            return quantize_coupled(coupled, y)
        except IntegralizationError:
            horizon = problem.horizon
            grants = {
                entry.job_id: np.zeros(horizon, dtype=int)
                for entry in problem.entries
            }
            for (e_index, slot), value in per_cell.items():
                entry = problem.entries[e_index]
                units = int(math.floor(value + 1e-9))
                if units:
                    grants[entry.job_id][slot] = min(
                        units, entry.max_parallel, entry.units
                    )
            return grants
