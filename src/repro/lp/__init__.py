"""Linear-programming substrate.

The paper solves its scheduling LP with CPLEX (Sec. VII).  Every solve here
goes through :func:`repro.lp.solver.solve_lp`, which runs one of two
backends and retries once on the other:

* :mod:`repro.lp.scipy_backend` — the HiGHS build bundled with scipy (the
  default; fast, sparse), called directly with the model and options
  ``linprog(method="highs")`` would pass, so results are bit-identical to
  ``linprog``'s without its per-call wrapper cost (needs scipy>=1.15);
* :mod:`repro.lp.simplex` — a from-scratch dense two-phase simplex: the
  retry target when HiGHS fails, and the reference the tests compare
  HiGHS against (it is also what makes the "LP vertex solutions are
  integral on TU matrices" argument directly observable in tests).

:mod:`repro.lp.unimodular` checks Lemma 2's total-unimodularity claim on
generated instances.
"""

from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.lp.solver import (
    DEFAULT_BACKEND,
    SolverFailure,
    install_fault_injector,
    solve_lp,
)
from repro.lp.unimodular import (
    has_consecutive_ones_columns,
    is_totally_unimodular,
)

__all__ = [
    "DEFAULT_BACKEND",
    "LPSolution",
    "LPStatus",
    "LinearProgram",
    "SolverFailure",
    "has_consecutive_ones_columns",
    "install_fault_injector",
    "is_totally_unimodular",
    "solve_lp",
]
