"""The from-scratch simplex against scipy/HiGHS on a battery of LPs.

The simplex is the solver's retry target when HiGHS fails and the
reference HiGHS is checked against: on hand-written LPs, on a seeded corpus
of the lexmin round subproblems production poses, and end to end with every
planner LP pushed onto the simplex by a HiGHS outage.
"""

import numpy as np
import pytest

from repro.analysis.experiments import canonical_windows, run_one
from repro.core.lexmin import build_round_lp
from repro.core.lp_formulation import ScheduleEntry, build_schedule_problem
from repro.lp import LinearProgram, LPStatus, install_fault_injector, solve_lp
from repro.lp.scipy_backend import solve as solve_highs
from repro.lp.simplex import solve as solve_simplex
from repro.model.cluster import ClusterCapacity
from repro.model.job import Job, JobKind, TaskSpec
from repro.model.resources import ResourceVector
from repro.model.workflow import Workflow
from repro.obs import Observability
from repro.simulator.engine import SimulationConfig
from repro.simulator.metrics import summarize
from repro.verify import ScheduleValidator
from repro.verify.oracle import generate_instance
from repro.workloads.traces import SyntheticTrace

#: Relative objective-agreement bound between the two backends.
_OBJ_TOL = 1e-9
#: Freezing thresholds mirrored from the lexmin ladder.
_DUAL_TOL = 1e-7
_FREEZE_RELAX = 1e-7


def assert_matches_highs(lp: LinearProgram, tol: float = 1e-6):
    ours = solve_simplex(lp)
    ref = solve_highs(lp)
    assert ours.status is ref.status, (ours.message, ref.message)
    if ref.status is LPStatus.OPTIMAL:
        assert ours.objective == pytest.approx(ref.objective, abs=tol)
        # Feasibility of our x against the original constraints.
        x = ours.x
        assert np.all(x >= lp.lb - tol)
        assert np.all(x <= lp.ub + tol)
        if lp.a_ub.shape[0]:
            assert np.all(np.asarray(lp.a_ub @ x).ravel() <= lp.b_ub + tol)
        if lp.a_eq.shape[0]:
            assert np.allclose(np.asarray(lp.a_eq @ x).ravel(), lp.b_eq, atol=tol)


class TestAgainstHighs:
    def test_basic_le(self):
        lp = LinearProgram(
            c=[-3.0, -5.0],
            a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]],
            b_ub=[4.0, 12.0, 18.0],
        )
        assert_matches_highs(lp)

    def test_equality_constraints(self):
        lp = LinearProgram(
            c=[2.0, 3.0, 1.0],
            a_eq=[[1.0, 1.0, 1.0]],
            b_eq=[10.0],
        )
        assert_matches_highs(lp)

    def test_mixed_constraints_and_bounds(self):
        lp = LinearProgram(
            c=[1.0, -2.0, 0.5],
            a_ub=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
            b_ub=[5.0, 7.0],
            a_eq=[[1.0, 0.0, 1.0]],
            b_eq=[4.0],
            ub=[3.0, 4.0, 10.0],
        )
        assert_matches_highs(lp)

    def test_negative_rhs(self):
        # x + y >= 3 as -x - y <= -3.
        lp = LinearProgram(c=[2.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-3.0])
        assert_matches_highs(lp)

    def test_shifted_lower_bounds(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_ub=[[1.0, 1.0]],
            b_ub=[10.0],
            lb=[2.0, 3.0],
        )
        sol = solve_simplex(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(5.0)

    def test_free_variable_split(self):
        # min x with x free and x >= -5 via constraint: optimum -5.
        lp = LinearProgram(
            c=[1.0],
            a_ub=[[-1.0]],
            b_ub=[5.0],
            lb=[-np.inf],
        )
        sol = solve_simplex(lp)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(-5.0)

    def test_degenerate_redundant_rows(self):
        lp = LinearProgram(
            c=[1.0, 1.0],
            a_eq=[[1.0, 1.0], [2.0, 2.0]],  # second row redundant
            b_eq=[4.0, 8.0],
        )
        assert_matches_highs(lp)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 4
        lp = LinearProgram(
            c=rng.normal(size=n),
            a_ub=rng.normal(size=(m, n)),
            b_ub=rng.uniform(1.0, 5.0, size=m),
            ub=np.full(n, 10.0),
        )
        assert_matches_highs(lp, tol=1e-5)


class TestVertexAndDuals:
    def test_returns_vertex_on_tu_system(self):
        # Interval (TU) system with integer rhs: vertex must be integral.
        lp = LinearProgram(
            c=[1.0, 1.0, 2.0],
            a_eq=[[1.0, 1.0, 0.0]],
            b_eq=[3.0],
            a_ub=[[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
            b_ub=[2.0, 2.0],
        )
        sol = solve_simplex(lp)
        assert sol.is_optimal
        assert np.allclose(sol.x, np.round(sol.x), atol=1e-8)

    def test_dual_signs_match_scipy(self):
        lp = LinearProgram(
            c=[-1.0, -1.0],
            a_ub=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
            b_ub=[2.0, 3.0, 4.0],
        )
        ours = solve_simplex(lp)
        ref = solve_highs(lp)
        assert ours.duals_ub is not None and ref.duals_ub is not None
        assert np.allclose(ours.duals_ub, ref.duals_ub, atol=1e-6)


def _schedule_problem(instance, *, mode="coupled"):
    """Lower an oracle instance to the production ScheduleProblem."""
    resources = sorted(instance.capacity)
    caps = np.tile(
        [float(instance.capacity[name]) for name in resources],
        (instance.horizon, 1),
    )
    entries = [
        ScheduleEntry(
            job_id=job.job_id,
            release=job.release,
            deadline=job.deadline,
            units=job.units,
            unit_demand=ResourceVector(job.demand),
            max_parallel=job.max_parallel,
        )
        for job in instance.jobs
    ]
    return build_schedule_problem(entries, caps, resources, mode=mode)


def _ladder_lps(problem, max_rounds=3):
    """The round LPs the lexmin ladder would pose, via HiGHS.

    Mirrors the ladder's utilisation-threshold freezing so later rounds
    carry realistic frozen rows; stops early on infeasibility (the
    infeasible LP itself stays in the corpus — status agreement matters
    there too).
    """
    caps = problem.cell_caps()
    n_cells = len(problem.util_cells)
    frozen = np.full(n_cells, np.inf)
    active = list(range(n_cells))
    lps = []
    for _ in range(max_rounds):
        if not active:
            break
        lp = build_round_lp(problem, active, frozen, caps)
        lps.append(lp)
        solution = solve_lp(lp, backend="highs")
        if solution.status is not LPStatus.OPTIMAL:
            break
        theta = float(solution.x[-1])
        x = solution.x[: problem.n_vars]
        util = np.asarray(problem.a_util[active] @ x).ravel() / caps[active]
        tight = [
            cell
            for cell, value in zip(active, util)
            if value >= theta - _DUAL_TOL * max(theta, 1.0)
        ]
        if not tight:
            tight = list(active)
        for cell in tight:
            frozen[cell] = min(
                theta * caps[cell] * (1.0 + _FREEZE_RELAX) + _FREEZE_RELAX,
                caps[cell],
            )
        active = [cell for cell in active if not np.isfinite(frozen[cell])]
        if theta <= 1e-9:
            break
    return lps


@pytest.fixture(scope="module")
def corpus():
    """>= 200 seeded lexmin round subproblems from the oracle's instances."""
    lps = []
    for seed in range(150):
        problem = _schedule_problem(generate_instance(seed, single_resource=True))
        lps.extend((seed, "coupled-1r", lp) for lp in _ladder_lps(problem))
    for seed in range(60):
        problem = _schedule_problem(generate_instance(seed), mode="paper")
        lps.extend((seed, "paper-2r", lp) for lp in _ladder_lps(problem))
    return lps


class TestRoundLPCorpus:
    def test_corpus_is_large_enough(self, corpus):
        assert len(corpus) >= 200

    def test_highs_solutions_are_primal_feasible(self, corpus):
        for seed, kind, lp in corpus:
            solution = solve_lp(lp, backend="highs")
            if solution.status is not LPStatus.OPTIMAL:
                continue
            x = solution.x
            assert np.all(x >= -1e-9), (seed, kind)
            assert np.all(x <= lp.ub + 1e-9), (seed, kind)
            eq_gap = np.abs(np.asarray(lp.a_eq @ x).ravel() - lp.b_eq)
            assert eq_gap.max(initial=0.0) <= 1e-6, (seed, kind)
            ub_gap = np.asarray(lp.a_ub @ x).ravel() - lp.b_ub
            assert ub_gap.max(initial=0.0) <= 1e-6, (seed, kind)

    def test_small_instances_also_agree_with_simplex(self, corpus):
        checked = 0
        for seed, kind, lp in corpus:
            if lp.n_variables > 20 or checked >= 25:
                continue
            dense = solve_lp(lp, backend="simplex")
            exact = solve_lp(lp, backend="highs")
            assert exact.status is dense.status, (seed, kind)
            if dense.status is LPStatus.OPTIMAL:
                diff = abs(exact.objective - dense.objective)
                assert diff <= _OBJ_TOL * max(1.0, abs(dense.objective))
            checked += 1
        assert checked >= 10

    def test_joint_overcommitment_is_proved_infeasible(self):
        # Two jobs of 8 units into 2 slots x 5 cpu: every window is
        # individually feasible, the joint load is not.  Both backends must
        # return INFEASIBLE (an answer, not a solver fault).
        entries = [
            ScheduleEntry(
                job_id=f"j{i}",
                release=0,
                deadline=2,
                units=8,
                unit_demand=ResourceVector({"cpu": 1}),
                max_parallel=8,
            )
            for i in range(2)
        ]
        problem = build_schedule_problem(entries, np.full((2, 1), 5.0), ("cpu",))
        caps = problem.cell_caps()
        lp = build_round_lp(
            problem,
            range(len(problem.util_cells)),
            np.full(len(problem.util_cells), np.inf),
            caps,
        )
        assert solve_lp(lp, backend="highs").status is LPStatus.INFEASIBLE
        assert solve_lp(lp, backend="simplex").status is LPStatus.INFEASIBLE


def _single_resource_workload():
    capacity = ClusterCapacity(base=ResourceVector({"cpu": 12}))
    jobs = [
        Job(
            job_id="wf-a",
            tasks=TaskSpec(
                count=6, duration_slots=2, demand=ResourceVector({"cpu": 2})
            ),
            workflow_id="wf",
            name="a",
        ),
        Job(
            job_id="wf-b",
            tasks=TaskSpec(
                count=4, duration_slots=3, demand=ResourceVector({"cpu": 1})
            ),
            workflow_id="wf",
            name="b",
        ),
        Job(
            job_id="wf-c",
            tasks=TaskSpec(
                count=5, duration_slots=2, demand=ResourceVector({"cpu": 2})
            ),
            workflow_id="wf",
            name="c",
        ),
    ]
    workflow = Workflow.from_jobs(
        "wf",
        jobs,
        [("wf-a", "wf-b"), ("wf-a", "wf-c")],
        start_slot=0,
        deadline_slot=40,
        name="wf",
    )
    adhoc = tuple(
        Job(
            job_id=f"q{i}",
            tasks=TaskSpec(
                count=3, duration_slots=1, demand=ResourceVector({"cpu": 1})
            ),
            kind=JobKind.ADHOC,
            arrival_slot=2 * i,
        )
        for i in range(3)
    )
    return SyntheticTrace(workflows=(workflow,), adhoc_jobs=adhoc), capacity


def _highs_outage(backend, problem):
    if backend == "highs":
        raise RuntimeError("injected HiGHS outage")


def _run(trace, capacity, *, highs_down):
    obs = Observability()
    install_fault_injector(_highs_outage if highs_down else None)
    try:
        outcome = run_one(
            "FlowTime",
            trace,
            capacity,
            config=SimulationConfig(record_execution=True),
            obs=obs,
        )
    finally:
        install_fault_injector(None)
    return outcome, obs


class TestEndToEnd:
    def test_single_resource_run_is_validator_clean_on_simplex(self):
        trace, capacity = _single_resource_workload()
        outcome, obs = _run(trace, capacity, highs_down=True)
        windows = canonical_windows(trace, capacity)
        jobs = [job for wf in trace.workflows for job in wf.jobs]
        jobs += list(trace.adhoc_jobs)
        validator = ScheduleValidator(
            capacity, workflows=trace.workflows, jobs=jobs, windows=windows
        )
        report = validator.validate(outcome.result)
        report.raise_if_violations()
        summary = summarize(outcome.result, windows)
        assert summary["jobs_missed"] == 0

        # Every planner LP failed on HiGHS and was answered by the simplex
        # retry: no solve fell through to a SolverFailure.
        snapshot = obs.registry.snapshot()
        assert snapshot["lp.solve.calls.simplex"]["value"] > 0
        assert (
            snapshot["lp.solve.retry"]["value"]
            == snapshot["lp.solve.calls.simplex"]["value"]
        )
        assert "lp.solve.failures" not in snapshot

    def test_simplex_run_matches_default_backend_outcome(self):
        trace, capacity = _single_resource_workload()
        windows = canonical_windows(trace, capacity)
        dense, _ = _run(trace, capacity, highs_down=True)
        base, _ = _run(trace, capacity, highs_down=False)
        dense_summary = summarize(dense.result, windows)
        base_summary = summarize(base.result, windows)
        for key in ("jobs_missed", "workflows_missed", "jobs_completed"):
            if key in base_summary:
                assert dense_summary[key] == base_summary[key], key
