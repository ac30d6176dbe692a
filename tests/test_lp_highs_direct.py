"""The direct HiGHS backend against public ``scipy.optimize.linprog``.

``repro.lp.scipy_backend`` hands HiGHS the model and options that
``linprog(method="highs")`` builds, without going through ``linprog``.
These tests hold it to that: on generated LPs and on the LPs the planner
and admission really solve, status, ``x``, objective and row duals must be
bit-identical to ``linprog``'s.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.optimize._highspy._core import HighsModelStatus
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from repro.core.admission import check_admission
from repro.core.flowtime import FlowTimePlanner, JobDemand, PlannerConfig
from repro.core.replan import PlanRequest
from repro.lp import LinearProgram, LPStatus, SolverFailure, solve_lp
from repro.lp import scipy_backend
from repro.lp.solver import install_fault_injector
from repro.model.cluster import ClusterCapacity
from repro.model.resources import CPU, MEM, ResourceVector
from repro.obs import Observability, use_obs
from repro.workloads.dag_generators import chain_workflow

# linprog's status codes: 0 optimal, 1 iteration/time limit, 2 infeasible,
# 3 unbounded, 4 numerical or other failure.
_SCIPY_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def reference(problem: LinearProgram):
    """The public ``linprog`` call the backend replaces."""
    return linprog(
        c=problem.c,
        A_ub=problem.a_ub if problem.a_ub.shape[0] else None,
        b_ub=problem.b_ub if problem.b_ub.size else None,
        A_eq=problem.a_eq if problem.a_eq.shape[0] else None,
        b_eq=problem.b_eq if problem.b_eq.size else None,
        bounds=np.column_stack([problem.lb, problem.ub]),
        method="highs",
    )


def assert_same_as_linprog(problem: LinearProgram) -> LPStatus:
    expected = reference(problem)
    got = scipy_backend.solve(problem)
    assert got.status is _SCIPY_STATUS.get(expected.status, LPStatus.ERROR)
    if got.is_optimal:
        assert got.x.tobytes() == np.asarray(expected.x, dtype=float).tobytes()
        assert got.objective == expected.fun
        if problem.b_ub.size:
            assert got.duals_ub.tobytes() == expected.ineqlin.marginals.tobytes()
        else:
            assert got.duals_ub is None
        if problem.b_eq.size:
            assert got.duals_eq.tobytes() == expected.eqlin.marginals.tobytes()
        else:
            assert got.duals_eq is None
    else:
        assert got.x is None
    return got.status


@st.composite
def small_lps(draw) -> LinearProgram:
    n = draw(st.integers(1, 6))
    n_ub = draw(st.integers(0, 4))
    n_eq = draw(st.integers(0, 3))
    coef = st.integers(-3, 3).map(float)
    c = draw(st.lists(coef, min_size=n, max_size=n))
    a_ub = draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=n_ub, max_size=n_ub))
    b_ub = draw(st.lists(st.integers(-2, 9).map(float), min_size=n_ub, max_size=n_ub))
    a_eq = draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=n_eq, max_size=n_eq))
    b_eq = draw(st.lists(st.integers(-2, 5).map(float), min_size=n_eq, max_size=n_eq))
    lb = draw(st.lists(st.sampled_from([-np.inf, -2.0, 0.0]), min_size=n, max_size=n))
    ub = draw(st.lists(st.sampled_from([0.0, 1.5, 4.0, np.inf]), min_size=n, max_size=n))
    ub = [max(lo, hi) for lo, hi in zip(lb, ub)]
    return LinearProgram(
        c=c,
        a_ub=a_ub if n_ub else None,
        b_ub=b_ub if n_ub else None,
        a_eq=a_eq if n_eq else None,
        b_eq=b_eq if n_eq else None,
        lb=lb,
        ub=ub,
    )


class TestGeneratedLPs:
    @settings(max_examples=200, deadline=None)
    @given(small_lps())
    def test_matches_linprog(self, problem):
        assert_same_as_linprog(problem)

    def test_infeasible(self):
        # x >= 3 and x <= 1.
        problem = LinearProgram(c=[1.0], a_ub=[[-1.0], [1.0]], b_ub=[-3.0, 1.0])
        assert assert_same_as_linprog(problem) is LPStatus.INFEASIBLE

    def test_unbounded(self):
        # min -x over x >= 0 with only x - y <= 1.
        problem = LinearProgram(c=[-1.0, 0.0], a_ub=[[1.0, -1.0]], b_ub=[1.0])
        assert assert_same_as_linprog(problem) is LPStatus.UNBOUNDED

    def test_free_and_infinite_bounds(self):
        problem = LinearProgram(
            c=[1.0, -1.0],
            a_ub=[[-1.0, 0.0], [0.0, 1.0]],
            b_ub=[2.0, 3.0],
            lb=[-np.inf, -np.inf],
            ub=[np.inf, np.inf],
        )
        assert assert_same_as_linprog(problem) is LPStatus.OPTIMAL

    def test_empty_a_eq(self):
        problem = LinearProgram(c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0])
        assert assert_same_as_linprog(problem) is LPStatus.OPTIMAL

    def test_empty_a_ub(self):
        problem = LinearProgram(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[3.0], ub=[2.0, 5.0])
        assert assert_same_as_linprog(problem) is LPStatus.OPTIMAL

    def test_bounds_only(self):
        problem = LinearProgram(c=[1.0, -1.0], lb=[-1.0, 0.0], ub=[2.0, 4.0])
        assert assert_same_as_linprog(problem) is LPStatus.OPTIMAL


class TestLinprogChecks:
    @pytest.mark.parametrize("field", ["c", "a_ub", "b_ub", "a_eq", "b_eq"])
    def test_nan_raises_value_error(self, field):
        parts = dict(
            c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], a_eq=[[1.0, -1.0]], b_eq=[0.0]
        )
        value = np.array(parts[field], dtype=float)
        value.flat[0] = np.nan
        parts[field] = value
        with pytest.raises(ValueError):
            scipy_backend.solve(LinearProgram(**parts))

    def test_nan_input_is_retried_on_simplex(self):
        obs = Observability()
        problem = LinearProgram(c=[1.0, np.nan], a_ub=[[1.0, 1.0]], b_ub=[2.0])
        with use_obs(obs):
            try:
                solve_lp(problem)
            except SolverFailure:
                pass
        snap = obs.registry.snapshot()
        assert snap["lp.solve.errors.highs"]["value"] == 1
        assert snap["lp.solve.retry"]["value"] == 1
        assert snap["lp.solve.calls.simplex"]["value"] == 1

    def test_post_solve_feasibility_check(self):
        # linprog demotes an "optimal" point that breaks a row, a bound or is
        # NaN by more than sqrt(1e-9) * 10 to a failure; so does the backend.
        problem = LinearProgram(
            c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], a_eq=[[1.0, -1.0]], b_eq=[0.0]
        )
        lb, ub = problem.lb, problem.ub

        def feasible(x):
            x = np.asarray(x, dtype=float)
            rows = np.concatenate([problem.a_ub @ x, problem.a_eq @ x])
            return scipy_backend._feasible(problem, lb, ub, x, float(problem.c @ x), rows)

        assert feasible([2.0, 2.0])
        assert feasible([2.0001, 2.0001])  # inside the tolerance
        assert not feasible([2.001, 2.001])  # breaks x + y <= 4
        assert not feasible([1.0, 1.001])  # breaks x == y
        assert not feasible([-0.001, -0.001])  # breaks x >= 0
        assert not feasible([np.nan, 0.0])


class TestStatusMapping:
    # Every HiGHS model status, kModelError (-> infeasible) and
    # kUnboundedOrInfeasible and the time/iteration limits (-> failure)
    # included, maps as linprog maps it.
    @pytest.mark.parametrize("model_status", list(HighsModelStatus.__members__.values()))
    def test_same_as_scipy(self, model_status):
        scipy_code, _ = _highs_to_scipy_status_message(model_status, "")
        expected = _SCIPY_STATUS.get(scipy_code, LPStatus.ERROR)
        assert scipy_backend._STATUS_MAP.get(model_status, LPStatus.ERROR) is expected

    def test_iterations_histogram(self):
        obs = Observability()
        with use_obs(obs):
            scipy_backend.solve(LinearProgram(c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0]))
        assert obs.registry.snapshot()["lp.backend.highs.iterations"]["count"] == 1


def captured_lps(action) -> list[LinearProgram]:
    """Every LP the solver registry is handed while *action* runs."""
    problems: list[LinearProgram] = []
    install_fault_injector(lambda backend, problem: problems.append(problem))
    try:
        action()
    finally:
        install_fault_injector(None)
    assert problems
    return problems


def demand(job_id, deadline, units, parallel=4) -> JobDemand:
    return JobDemand(
        job_id=job_id,
        release_slot=0,
        deadline_slot=deadline,
        units=units,
        unit_demand=ResourceVector({CPU: 2, MEM: 3}),
        max_parallel=parallel,
    )


class TestRealLPs:
    capacity = ClusterCapacity.uniform(cpu=10, mem=20)

    def plan(self, demands, **config):
        planner = FlowTimePlanner(PlannerConfig(plan_cache=False, **config))
        return planner.plan(
            PlanRequest(now_slot=0, demands=tuple(demands), capacity=self.capacity)
        )

    def test_round_and_balancing_lps(self):
        demands = [demand("a", 8, 10), demand("b", 6, 6), demand("c", 12, 14)]
        problems = captured_lps(lambda: self.plan(demands, max_lexmin_rounds=None))
        assert len(problems) >= 3
        for problem in problems:
            assert_same_as_linprog(problem)

    def test_max_placement_lps(self):
        # Jointly over-committed: the slack and plain rungs fail, so the
        # ladder solves max-placement LPs (costs all -1) for relaxed rungs.
        demands = [demand(f"j{i}", 3, 12) for i in range(3)]
        problems = captured_lps(lambda: self.plan(demands))
        placement = [p for p in problems if np.all(p.c == -1.0)]
        assert placement
        for problem in problems:
            assert_same_as_linprog(problem)

    def test_admission_lps(self):
        existing = [demand("x", 6, 10), demand("y", 9, 12)]
        for deadline in (12, 60):  # one rejected, one admitted
            workflow = chain_workflow("w", 2, 0, deadline)
            problems = captured_lps(
                lambda: check_admission(workflow, existing, self.capacity, 0)
            )
            for problem in problems:
                assert_same_as_linprog(problem)
