"""Lexicographic minimax solve of the scheduling LP (Sec. V-B).

The paper proves (Lemma 1) that the lexicographic minimax objective
``lexmin max_t,r z_t^r / C_t^r`` can be scalarised as ``min sum k^{z/C}``
and (Lemma 2) that the constraint matrix is totally unimodular, so one LP
solve suffices *in exact arithmetic*.  The scalarisation is numerically
unusable at real sizes (``k = |T||R|`` is in the hundreds, and ``k^u``
overflows doubles), so — like production implementations of minimax fair
allocation — we compute the same optimum iteratively:

1. Solve ``min theta`` subject to ``z_t^r <= theta * C_t^r`` over the
   *active* cells, plus the demand equalities, per-variable bounds, and the
   hard capacity rows ``z <= C``.
2. Cells that must be saturated at ``theta*`` in every optimum (identified
   by a non-zero dual multiplier; if degeneracy hides the duals, by being at
   ``theta*``) are *frozen*: their load is capped at ``theta* C_t^r``.
3. Repeat on the remaining cells until all are frozen or ``max_rounds`` is
   hit (remaining cells then freeze at the last ``theta*``).
4. A final solve minimises the total normalised load under the frozen caps,
   pinning one balanced representative optimum.

The first round's ``theta*`` is exactly the paper's ``max z/C`` optimum;
subsequent rounds refine lower-order components of the sorted utilisation
vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.core.lp_formulation import ScheduleProblem
from repro.lp.problem import LinearProgram, LPStatus
from repro.lp.solver import SolverFailure, solve_lp
from repro.obs import current_obs

_DUAL_TOL = 1e-7
_THETA_TOL = 1e-9
_FREEZE_RELAX = 1e-7  # relative slack added to frozen caps (numerical safety)


@dataclass(frozen=True)
class LexminWarmHint:
    """Seed for a warm-started lexmin solve: the previous solve's skyline.

    The HiGHS backend exposes no basis warm-start, so the reusable artefact
    of a solve is its *level vector*: the per-cell normalised loads of the
    final balanced allocation.  When consecutive solves see near-identical
    job mixes, that skyline is already (near-)lexmin-optimal — imposing it
    as frozen caps reduces the whole ladder to two LPs (one exact theta
    solve, one balancing solve) instead of up to ``max_rounds + 1``.

    Attributes:
        theta: the previous solve's minimax ``max z/C``.
        levels: per-cell utilisation ``z/C`` keyed by ``(slot, r_index)``
            in the *problem's* relative coordinates (callers re-anchor
            absolute slots before building the hint).
    """

    theta: float
    levels: Mapping[tuple[int, int], float]


@dataclass(frozen=True)
class LexminResult:
    """Outcome of a lexicographic minimax schedule solve.

    Attributes:
        status: "optimal" or "infeasible".
        x: fractional allocation variables (None when infeasible).
        minimax: the paper's objective ``max_t,r z/C`` (first-round theta).
        thetas: theta value of every round, non-increasing.
        rounds: number of minimax rounds performed.
        utilisation: per-cell ``z/C`` of the returned allocation.
        warm: True when the solve was completed from a
            :class:`LexminWarmHint` (round-1 theta is still solved exactly;
            the refinement rounds were replaced by the hinted skyline).
    """

    status: str
    x: Optional[np.ndarray] = None
    minimax: float = float("nan")
    thetas: tuple[float, ...] = ()
    rounds: int = 0
    utilisation: Optional[np.ndarray] = field(default=None, repr=False)
    warm: bool = False

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _cell_caps(problem: ScheduleProblem) -> np.ndarray:
    return problem.cell_caps()


def build_round_lp(
    problem: ScheduleProblem,
    active: Sequence[int],
    frozen_value: np.ndarray,
    caps: np.ndarray,
) -> LinearProgram:
    """One lexmin round subproblem: ``min theta`` over the active cells.

    Variables are the allocation variables plus a trailing theta column.
    Rows, in order: active cells (``load - theta * C <= 0``), frozen cells
    (``load <= frozen_value``), and the hard capacity rows (``load <= C``).
    It is public so tests and benchmarks can generate round subproblems
    without running the ladder.
    """
    n_vars = problem.n_vars
    n_cells = len(problem.util_cells)
    active = list(active)
    active_mat = problem.a_util[active]
    theta_col = sparse.csr_matrix(
        (-caps[active], (range(len(active)), [0] * len(active))),
        shape=(len(active), 1),
    )
    blocks = [sparse.hstack([active_mat, theta_col])]
    b_rows = [np.zeros(len(active))]

    frozen_idx = np.flatnonzero(np.isfinite(frozen_value))
    if frozen_idx.size:
        frozen_mat = sparse.hstack(
            [
                problem.a_util[frozen_idx],
                sparse.csr_matrix((frozen_idx.size, 1)),
            ]
        )
        blocks.append(frozen_mat)
        b_rows.append(frozen_value[frozen_idx])

    # Hard capacity rows (constraint (4)): z <= C for every cell.
    hard = sparse.hstack([problem.a_util, sparse.csr_matrix((n_cells, 1))])
    blocks.append(hard)
    b_rows.append(caps)

    eq_with_theta = sparse.hstack(
        [problem.a_eq, sparse.csr_matrix((problem.a_eq.shape[0], 1))]
    ).tocsr()
    return LinearProgram(
        c=np.concatenate([np.zeros(n_vars), [1.0]]),
        a_ub=sparse.vstack(blocks).tocsr(),
        b_ub=np.concatenate(b_rows),
        a_eq=eq_with_theta,
        b_eq=problem.b_eq,
        lb=np.zeros(n_vars + 1),
        ub=np.concatenate([problem.var_ub, [np.inf]]),
    )


def _balancing_solve(
    problem: ScheduleProblem,
    frozen_value: np.ndarray,
    caps: np.ndarray,
    *,
    backend: str,
    front_load: bool,
    solve_budget_s: float | None = None,
):
    """Final solve: minimise total normalised load under the frozen caps.

    With time-invariant caps the total normalised load is a constant, so a
    small *earliness* term picks the representative optimum that front-loads
    work within the frozen skyline: the minimax value is untouched (the caps
    bound every slot) but estimation noise and joint overload become far
    less likely to turn into deadline misses.
    """
    weights = 1.0 / caps
    c_final = np.asarray(weights @ problem.a_util).ravel()
    if front_load:
        horizon = max(problem.horizon, 1)
        earliness = (problem.var_meta[:, 1] + 1.0) / horizon
        eps = 1e-3 * max(float(np.min(c_final[c_final > 0], initial=1.0)), 1e-6)
        c_final = c_final + eps * earliness
    lp_final = LinearProgram(
        c=c_final,
        a_ub=problem.a_util,
        b_ub=frozen_value,
        a_eq=problem.a_eq,
        b_eq=problem.b_eq,
        lb=np.zeros(problem.n_vars),
        ub=problem.var_ub,
    )
    return solve_lp(lp_final, backend=backend, time_budget_s=solve_budget_s)


def _warm_frozen_caps(
    problem: ScheduleProblem,
    caps: np.ndarray,
    theta: float,
    hint: LexminWarmHint,
    tol: float,
) -> np.ndarray | None:
    """Frozen caps from a warm hint, or None when the hint is unusable.

    The hint only applies when the exact round-1 ``theta`` matches the
    hinted minimax (otherwise the workload shifted enough that the previous
    skyline is stale) and covers every utilisation cell of this problem.
    Each cell is capped at its hinted level — never above ``theta`` or the
    hard capacity — so accepting the warm result can never worsen the
    minimax.
    """
    if not np.isfinite(theta) or not np.isfinite(hint.theta):
        return None
    if abs(theta - hint.theta) > tol * max(abs(theta), 1.0):
        return None
    cap_at_theta = theta * caps * (1.0 + _FREEZE_RELAX) + _FREEZE_RELAX
    frozen = np.empty(len(caps))
    for k, cell in enumerate(problem.util_cells):
        level = hint.levels.get(cell)
        if level is None:
            return None
        cap_at_level = level * caps[k] * (1.0 + _FREEZE_RELAX) + _FREEZE_RELAX
        frozen[k] = min(cap_at_level, cap_at_theta[k], caps[k])
    return frozen


def _finish_warm(
    problem: ScheduleProblem,
    caps: np.ndarray,
    theta: float,
    hint: LexminWarmHint,
    *,
    tol: float,
    backend: str,
    front_load: bool,
    solve_budget_s: float | None = None,
) -> LexminResult | None:
    """Attempt to finish the solve from a warm hint after the exact round 1.

    Returns the warm :class:`LexminResult` when the hinted skyline is
    feasible for the current demands and exact (no cell exceeds theta), or
    None to continue the cold ladder.
    """
    frozen = _warm_frozen_caps(problem, caps, theta, hint, tol)
    if frozen is None:
        return None
    sol = _balancing_solve(
        problem,
        frozen,
        caps,
        backend=backend,
        front_load=front_load,
        solve_budget_s=solve_budget_s,
    )
    if sol.status is not LPStatus.OPTIMAL:
        return None
    x = sol.x
    utilisation = np.asarray(problem.a_util @ x).ravel() / caps
    if float(utilisation.max(initial=0.0)) > theta * (1.0 + tol) + tol:
        return None  # exactness check failed: hint would worsen the minimax
    return LexminResult(
        status="optimal",
        x=x,
        minimax=theta,
        thetas=(theta,),
        rounds=1,
        utilisation=utilisation,
        warm=True,
    )


def lexmin_schedule(
    problem: ScheduleProblem,
    *,
    backend: str = "highs",
    max_rounds: int | None = None,
    tol: float = 1e-6,
    front_load: bool = True,
    warm_hint: LexminWarmHint | None = None,
    solve_budget_s: float | None = None,
) -> LexminResult:
    """Run the iterative lexicographic minimax on a :class:`ScheduleProblem`.

    Args:
        problem: pre-assembled LP structure.
        backend: LP backend name ("highs" or "simplex").
        max_rounds: cap on minimax rounds; ``None`` means run until every
            utilisation cell is frozen (exact lexicographic optimum).
        tol: relative tolerance for saturation detection.
        front_load: break ties among balanced optima toward *earlier* slots
            (a tiny earliness term in the final solve).  The minimax skyline
            is untouched (frozen caps bound every slot) but estimation noise
            is far less likely to turn into last-minute deadline misses.
            False reproduces the paper's formulation verbatim, which leaves
            the choice among optimal vertices to the solver — that is what
            makes the deadline-slack feature of Fig. 5 necessary.
        warm_hint: optional :class:`LexminWarmHint` from a previous solve.
            Round 1 (the exact minimax theta) always runs cold; if the
            hinted theta matches, the hinted skyline replaces the remaining
            refinement rounds and the result is checked for exactness
            (max utilisation must not exceed theta).  Any mismatch falls
            back to the cold ladder, counted as ``lexmin.warm.fallback``.
        solve_budget_s: optional per-LP wall-time budget forwarded to
            :func:`repro.lp.solver.solve_lp`; a blown budget (or a solver
            that fails on every backend) raises
            :class:`~repro.lp.solver.SolverFailure`, which propagates to
            the caller — the FlowTime scheduler's degraded mode handles it.

    Returns:
        A :class:`LexminResult`; ``status == "infeasible"`` means some job's
        demand cannot fit its window under the capacity caps (callers relax
        windows and retry).
    """
    n_cells = len(problem.util_cells)
    n_vars = problem.n_vars
    caps = _cell_caps(problem)
    if np.any(caps <= 0):
        raise ValueError("every utilisation cell must have positive capacity")

    active = list(range(n_cells))
    frozen_value = np.full(n_cells, np.inf)
    thetas: list[float] = []
    rounds = 0

    while active:
        if max_rounds is not None and rounds >= max_rounds:
            break
        lp = build_round_lp(problem, active, frozen_value, caps)
        sol = solve_lp(lp, backend=backend, time_budget_s=solve_budget_s)
        if sol.status is not LPStatus.OPTIMAL:
            if sol.status is LPStatus.INFEASIBLE:
                return LexminResult(status="infeasible")
            raise SolverFailure(  # pragma: no cover - solve_lp raises first
                f"lexmin round failed: {sol.message}",
                backend=backend,
                reason="error",
                elapsed=0.0,
            )
        x_full = sol.x
        theta = float(x_full[-1])
        thetas.append(theta)
        rounds += 1

        if rounds == 1 and warm_hint is not None:
            warm = _finish_warm(
                problem,
                caps,
                theta,
                warm_hint,
                tol=tol,
                backend=backend,
                front_load=front_load,
                solve_budget_s=solve_budget_s,
            )
            if warm is not None:
                return warm
            current_obs().counter("lexmin.warm.fallback").inc()

        loads = np.asarray(problem.a_util[active] @ x_full[:n_vars]).ravel()
        utilisation = loads / caps[active]

        to_freeze: list[int] = []
        if sol.duals_ub is not None:
            duals = sol.duals_ub[: len(active)]
            to_freeze = [
                active[j] for j in range(len(active)) if abs(duals[j]) > _DUAL_TOL
            ]
        if not to_freeze:
            to_freeze = [
                active[j]
                for j in range(len(active))
                if utilisation[j] >= theta - tol * max(theta, 1.0)
            ]
        if not to_freeze:  # defensive: never loop without progress
            to_freeze = list(active)

        cap_at_theta = theta * caps * (1.0 + _FREEZE_RELAX) + _FREEZE_RELAX
        for cell in to_freeze:
            frozen_value[cell] = min(cap_at_theta[cell], caps[cell])
        active = [k for k in active if not np.isfinite(frozen_value[k])]
        if theta <= _THETA_TOL:
            for cell in active:
                frozen_value[cell] = min(cap_at_theta[cell], caps[cell])
            active = []

    if active:  # max_rounds exhausted: freeze the rest at the last theta
        last = thetas[-1] if thetas else 1.0
        for cell in active:
            frozen_value[cell] = min(
                last * caps[cell] * (1.0 + _FREEZE_RELAX) + _FREEZE_RELAX,
                caps[cell],
            )

    sol = _balancing_solve(
        problem,
        frozen_value,
        caps,
        backend=backend,
        front_load=front_load,
        solve_budget_s=solve_budget_s,
    )
    if sol.status is not LPStatus.OPTIMAL:
        if sol.status is LPStatus.INFEASIBLE:
            return LexminResult(status="infeasible")
        raise SolverFailure(  # pragma: no cover - solve_lp raises first
            f"lexmin final solve failed: {sol.message}",
            backend=backend,
            reason="error",
            elapsed=0.0,
        )

    x = sol.x
    utilisation = np.asarray(problem.a_util @ x).ravel() / caps
    return LexminResult(
        status="optimal",
        x=x,
        minimax=thetas[0] if thetas else float(utilisation.max(initial=0.0)),
        thetas=tuple(thetas),
        rounds=rounds,
        utilisation=utilisation,
    )
