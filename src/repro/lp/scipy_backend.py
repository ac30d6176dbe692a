"""LP backend: scipy's bundled HiGHS, called directly (the default backend).

The model and options are exactly the ones ``scipy.optimize.linprog(
method="highs")`` hands HiGHS — ``A_ub`` stacked over ``A_eq`` as CSC with
``-inf <= A_ub x <= b_ub`` and ``b_eq <= A_eq x <= b_eq`` rows, presolve on,
dual simplex, debug and output off — so solutions are bit-identical to
``linprog``'s.  What is skipped is the wrapper around it: ``linprog``'s
input re-formatting, its per-solve option validation and the per-column
bound-marginal loop, none of which this repository reads.  ``linprog``'s
input checks, post-solve feasibility check and status mapping are kept.
"""

from __future__ import annotations

import numpy as np
import scipy
from scipy import sparse

try:
    from scipy.optimize._highspy._core import (
        HighsDebugLevel,
        HighsLp,
        HighsModelStatus,
        HighsOptions,
        HighsStatus,
        MatrixFormat,
        _Highs,
        kHighsInf,
        simplex_constants,
    )
except ImportError as error:  # pragma: no cover - depends on the install
    raise ImportError(
        "the HiGHS LP backend needs scipy>=1.15, the first release that "
        "ships scipy.optimize._highspy._core (_Highs, HighsLp, HighsOptions); "
        f"found scipy {scipy.__version__}"
    ) from error

from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.obs import current_obs

# linprog's HiGHS-to-scipy status table, collapsed onto LPStatus: scipy maps
# kModelError to "infeasible" and everything not listed here (time and
# iteration limits, kUnboundedOrInfeasible, load/solve errors) to a failure.
_STATUS_MAP = {
    HighsModelStatus.kOptimal: LPStatus.OPTIMAL,
    HighsModelStatus.kInfeasible: LPStatus.INFEASIBLE,
    HighsModelStatus.kModelError: LPStatus.INFEASIBLE,
    HighsModelStatus.kUnbounded: LPStatus.UNBOUNDED,
}

# linprog's post-solve feasibility tolerance: sqrt(tol) * 10 for tol=1e-9.
_CHECK_TOL = np.sqrt(1e-9) * 10


def _highs_options() -> HighsOptions:
    """The options linprog(method="highs") sets; HighsOptions is copied on pass."""
    options = HighsOptions()
    options.presolve = "on"
    options.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
    options.log_to_console = False
    options.output_flag = False
    options.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return options


_OPTIONS = _highs_options()


def _highs_bound(values: np.ndarray, unspecified: float) -> np.ndarray:
    """A bound as linprog passes it: NaN is *unspecified*, +-inf is +-kHighsInf."""
    values = np.where(np.isnan(values), unspecified, values)
    return np.where(np.isinf(values), np.copysign(kHighsInf, values), values)


def _check_inputs(problem: LinearProgram) -> None:
    """linprog's input checks: no inf or NaN in the costs, matrices or rhs."""
    for name, values in (
        ("c", problem.c),
        ("A_ub", problem.a_ub.data),
        ("b_ub", problem.b_ub),
        ("A_eq", problem.a_eq.data),
        ("b_eq", problem.b_eq),
    ):
        if not np.isfinite(values).all():
            raise ValueError(
                f"invalid LP input: {name} must not contain inf or NaN"
            )


def _model(problem: LinearProgram, lb: np.ndarray, ub: np.ndarray) -> HighsLp:
    n_ub = problem.b_ub.size
    n_rows = n_ub + problem.b_eq.size
    n_cols = problem.c.size
    # Stacking CSR rows and converting once is several times cheaper than
    # stacking straight into CSC, and gives the same canonical matrix.
    matrix = sparse.vstack((problem.a_ub, problem.a_eq), format="csr").tocsc()
    if not matrix.has_canonical_format:
        matrix.sum_duplicates()
    lp = HighsLp()
    lp.num_col_ = n_cols
    lp.num_row_ = n_rows
    lp.col_cost_ = problem.c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = np.concatenate((np.full(n_ub, -kHighsInf), problem.b_eq))
    lp.row_upper_ = np.concatenate((problem.b_ub, problem.b_eq))
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = n_cols
    lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    return lp


def _feasible(problem: LinearProgram, lb, ub, x, objective, row_value) -> bool:
    """linprog's post-solve check that an "optimal" point is feasible."""
    if np.isnan(objective) or np.isnan(x).any() or np.isnan(row_value).any():
        return False
    n_ub = problem.b_ub.size
    return bool(
        np.all((x >= lb - _CHECK_TOL) & (x <= ub + _CHECK_TOL))
        and not np.any(problem.b_ub - row_value[:n_ub] < -_CHECK_TOL)
        and not np.any(np.abs(problem.b_eq - row_value[n_ub:]) > _CHECK_TOL)
    )


def solve(problem: LinearProgram) -> LPSolution:
    """Solve with HiGHS dual simplex (vertex solutions, duals available)."""
    _check_inputs(problem)
    lb = _highs_bound(problem.lb, -np.inf)
    ub = _highs_bound(problem.ub, np.inf)
    highs = _Highs()
    highs.passOptions(_OPTIONS)
    info = None
    if highs.passModel(_model(problem, lb, ub)) == HighsStatus.kError:
        model_status = HighsModelStatus.kModelError
    else:
        run_status = highs.run()
        model_status = highs.getModelStatus()
        if run_status != HighsStatus.kError:
            info = highs.getInfo()
    iterations = 0
    if info is not None:
        iterations = info.simplex_iteration_count or info.ipm_iteration_count
    current_obs().histogram("lp.backend.highs.iterations").observe(int(iterations))
    status = _STATUS_MAP.get(model_status, LPStatus.ERROR)
    message = highs.modelStatusToString(model_status)
    if status is LPStatus.OPTIMAL and info is None:
        # linprog reads no solution after a failed run(); "optimal" without
        # one is a solver fault.
        status = LPStatus.ERROR
    if status is not LPStatus.OPTIMAL:
        return LPSolution(status=status, message=message)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = info.objective_function_value
    if not _feasible(problem, lb, ub, x, objective, np.array(solution.row_value)):
        return LPSolution(
            status=LPStatus.ERROR,
            message="HiGHS reported optimal but the point violates the constraints",
        )
    n_ub = problem.b_ub.size
    row_dual = np.array(solution.row_dual)
    return LPSolution(
        status=LPStatus.OPTIMAL,
        x=x,
        objective=float(objective),
        duals_ub=row_dual[:n_ub] if n_ub else None,
        duals_eq=row_dual[n_ub:] if problem.b_eq.size else None,
        message=message,
    )
