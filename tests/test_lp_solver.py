"""Tests for the solver entry point's fixed backend pair.

``solve_lp`` knows exactly two backends, each the other's alternate:
``highs`` (the default) retries on ``simplex`` and ``simplex`` on
``highs``.  Covered here: the pair itself and the one retry after an
exception or an ERROR status.  Unknown names are covered in
test_lp_problem.py, budget and degraded-mode behaviour in
test_robustness.py.
"""

from __future__ import annotations

import pytest

import repro.lp.solver as solver
from repro.lp import (
    DEFAULT_BACKEND,
    LinearProgram,
    LPStatus,
    install_fault_injector,
    solve_lp,
)
from repro.lp.problem import LPSolution
from repro.obs import Observability, use_obs


@pytest.fixture(autouse=True)
def _clean_injector():
    """Never leak a fault injector into other tests."""
    yield
    install_fault_injector(None)


def tiny_lp() -> LinearProgram:
    # min x + y  s.t.  x + y >= 2  ->  objective 2.
    return LinearProgram(c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0])


class TestFixedPair:
    def test_builtins_are_the_fixed_pair(self):
        assert DEFAULT_BACKEND == "highs"
        assert {name: alt for name, (_, alt) in solver._BACKENDS.items()} == {
            "highs": "simplex",
            "simplex": "highs",
        }
        for name in ("highs", "simplex"):
            assert solve_lp(tiny_lp(), backend=name).objective == pytest.approx(2.0)

    def test_simplex_fault_retries_on_highs(self):
        def simplex_down(backend, problem):
            if backend == "simplex":
                raise RuntimeError("boom")

        install_fault_injector(simplex_down)
        obs = Observability()
        with use_obs(obs):
            solution = solve_lp(tiny_lp(), backend="simplex")
        assert solution.objective == pytest.approx(2.0)
        snapshot = obs.registry.snapshot()
        assert snapshot["lp.solve.errors.simplex"]["value"] == 1
        assert snapshot["lp.solve.calls.highs"]["value"] == 1
        assert snapshot["lp.solve.retry"]["value"] == 1

    def test_error_status_retries_alternate(self, monkeypatch):
        def broken(problem):
            return LPSolution(status=LPStatus.ERROR, message="synthetic")

        monkeypatch.setitem(solver._BACKENDS, "highs", (broken, "simplex"))
        obs = Observability()
        with use_obs(obs):
            solution = solve_lp(tiny_lp(), backend="highs")
        assert solution.is_optimal
        snapshot = obs.registry.snapshot()
        assert snapshot["lp.solve.errors.highs"]["value"] == 1
        assert snapshot["lp.solve.calls.simplex"]["value"] == 1
        assert snapshot["lp.solve.retry"]["value"] == 1

    def test_no_retry_when_the_first_attempt_answers(self):
        obs = Observability()
        with use_obs(obs):
            solve_lp(tiny_lp())
        snapshot = obs.registry.snapshot()
        assert snapshot["lp.solve.calls.highs"]["value"] == 1
        assert "lp.solve.calls.simplex" not in snapshot
        assert "lp.solve.retry" not in snapshot
