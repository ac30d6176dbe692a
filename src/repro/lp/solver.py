"""One entry point for solving LPs, with guardrails.

Two backends, in a fixed table:

* ``highs`` — scipy's bundled HiGHS, called directly (sparse, exact,
  produces duals; the default, and the only backend the planner asks for);
* ``simplex`` — the from-scratch dense two-phase simplex: the retry target
  when HiGHS fails, and the reference tests compare HiGHS against.

Each is the other's alternate.  Every solve passes through
:func:`solve_lp`, which makes it the natural observability *and*
fault-tolerance choke point:

* each call is timed into the ``lp.solve`` histogram (plus a per-backend
  ``lp.solve.backend.<name>`` histogram), tagged counters record
  per-backend call volume, and non-optimal outcomes (infeasible ladder
  rungs during planning are *expected*, but their rate matters) are
  counted separately;
* a backend that raises, or returns an ERROR status, is retried
  **once on the alternate backend** (``lp.solve.retry`` counter) — a typed
  :class:`SolverFailure` is raised only when every attempt failed, so
  callers never silently consume a broken solution;
* an optional **per-call wall-time budget** bounds planning latency: once
  an attempt ends past it — with an answer or before a retry would start —
  the call raises :class:`SolverFailure` (``reason="budget"``,
  ``lp.solve.budget_exceeded`` counter) instead of letting a pathological
  instance stall the scheduling loop — callers degrade gracefully (see
  :class:`repro.schedulers.flowtime_sched.FlowTimeScheduler`).

An injectable fault hook (:func:`install_fault_injector`) lets the chaos
harness (:mod:`repro.chaos`) inject solver exceptions and slow solves
deterministically; production code never installs one.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.lp import scipy_backend, simplex
from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.obs import current_obs

__all__ = [
    "DEFAULT_BACKEND",
    "SolverFailure",
    "install_fault_injector",
    "solve_lp",
]

DEFAULT_BACKEND = "highs"

#: Backend name -> (solve function, the alternate retried when it fails).
_BACKENDS: dict[str, tuple[Callable[[LinearProgram], LPSolution], str]] = {
    "highs": (scipy_backend.solve, "simplex"),
    "simplex": (simplex.solve, "highs"),
}


class SolverFailure(RuntimeError):
    """The LP could not be solved (every backend attempt failed).

    Distinct from an *infeasible* or *unbounded* LP — those are valid
    answers (properties of the problem; relaxation ladders probe for
    infeasibility) and are returned as a normal
    :class:`~repro.lp.problem.LPSolution`.  ``SolverFailure`` means the
    solver itself misbehaved: a backend exception, an ERROR status, or a
    blown wall-time budget.  Callers that can make progress without a fresh solution
    (the FlowTime scheduler's degraded mode) catch this type.

    Attributes:
        backend: the backend of the *last* attempt.
        reason: ``"error"`` (backend exception or bad status) or
            ``"budget"`` (wall-time budget exceeded).
        elapsed: wall-clock seconds spent across attempts.
    """

    def __init__(self, message: str, *, backend: str, reason: str, elapsed: float):
        super().__init__(message)
        self.backend = backend
        self.reason = reason
        self.elapsed = elapsed


# -- fault injection (chaos harness support) ------------------------------------

#: Called as ``injector(backend, problem)`` immediately before each backend
#: attempt; it may raise (an injected solver fault) or sleep (a slow solve).
_fault_injector: Optional[Callable[[str, LinearProgram], None]] = None
_injector_lock = threading.Lock()


def install_fault_injector(
    injector: Optional[Callable[[str, LinearProgram], None]],
) -> None:
    """Install (or with ``None``, remove) the process-wide solver fault hook.

    Test/chaos-harness support: the injector runs before every backend
    attempt and may raise or sleep.  Use :func:`repro.chaos.chaos_solver`
    for the managed context-manager form.
    """
    global _fault_injector
    with _injector_lock:
        _fault_injector = injector


def _supports(backend, problem: LinearProgram) -> bool:
    """Capability probe: every backend in the fixed table takes every LP.

    Nothing calls it any more.  It stays because the benchmark's tracer
    (``perfbench/tracer.py``) wraps this name to count routing declines,
    which are now always zero.
    """
    return True


def _attempt(
    backend: str, problem: LinearProgram
) -> tuple[LPSolution | None, Exception | None]:
    """One backend attempt: (solution, None) or (None, error)."""
    injector = _fault_injector
    try:
        if injector is not None:
            injector(backend, problem)
        return _BACKENDS[backend][0](problem), None
    except Exception as error:  # backend blew up: a solver fault, not an answer
        return None, error


def solve_lp(
    problem: LinearProgram,
    backend: str = DEFAULT_BACKEND,
    *,
    tag: str | None = None,
    time_budget_s: float | None = None,
    retry_alternate: bool = True,
) -> LPSolution:
    """Solve *problem* with the named backend ("highs" or "simplex").

    ``tag`` attributes the call to a caller-chosen purpose (e.g.
    ``"admission"``) via an extra ``lp.solve.tag.<tag>`` counter, so call
    volume can be broken down by origin, not just by backend.

    Guardrails (see module docstring): a failed attempt (backend exception
    or ERROR status) is retried once on the alternate backend when
    ``retry_alternate`` is set; ``time_budget_s`` bounds the *total* wall
    time across attempts and is checked after every attempt, so a slow
    failure never starts the retry.  Exhausting either raises
    :class:`SolverFailure`.  INFEASIBLE and UNBOUNDED outcomes are valid
    answers and are returned normally (``lp.solve.nonoptimal`` counter).
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown LP backend {backend!r}; available: {tuple(_BACKENDS)}"
        )
    obs = current_obs()
    attempts = [backend, _BACKENDS[backend][1]] if retry_alternate else [backend]

    start = time.perf_counter()
    last_error: Exception | None = None
    last_status = ""
    for n, attempt_backend in enumerate(attempts):
        if n > 0:
            obs.counter("lp.solve.retry").inc()
        attempt_start = time.perf_counter()
        with obs.span("lp.solve"):
            solution, error = _attempt(attempt_backend, problem)
        now = time.perf_counter()
        elapsed = now - start
        obs.histogram(f"lp.solve.backend.{attempt_backend}").observe(
            now - attempt_start
        )
        obs.counter(f"lp.solve.calls.{attempt_backend}").inc()
        if tag is not None:
            obs.counter(f"lp.solve.tag.{tag}").inc()
        # INFEASIBLE and UNBOUNDED are *answers* (properties of the problem
        # a correct alternate backend would only confirm); an exception or
        # an ERROR status is a solver fault, never handed to a caller.
        failed = error is not None or solution.status is LPStatus.ERROR
        if failed:
            obs.counter(f"lp.solve.errors.{attempt_backend}").inc()
            last_error = error
            last_status = "" if solution is None else solution.status.value
        if time_budget_s is not None and elapsed > time_budget_s:
            # The budget bounds planning latency: even a usable answer that
            # arrives too late is a failure from the scheduling loop's point
            # of view, and a retry would stall it further.
            obs.counter("lp.solve.budget_exceeded").inc()
            raise SolverFailure(
                f"LP solve blew its {time_budget_s:.3f}s budget "
                f"({elapsed:.3f}s on {attempt_backend!r})",
                backend=attempt_backend,
                reason="budget",
                elapsed=elapsed,
            )
        if not failed:
            if not solution.is_optimal:
                obs.counter("lp.solve.nonoptimal").inc()
            return solution

    elapsed = time.perf_counter() - start
    obs.counter("lp.solve.failures").inc()
    detail = (
        f"{type(last_error).__name__}: {last_error}"
        if last_error is not None
        else f"status {last_status!r}"
    )
    raise SolverFailure(
        f"LP solve failed on all of {attempts} ({detail})",
        backend=attempts[-1],
        reason="error",
        elapsed=elapsed,
    )
