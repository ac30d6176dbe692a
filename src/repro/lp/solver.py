"""Pluggable backend registry: one entry point for solving LPs, with guardrails.

Backends are :class:`SolverBackend` objects — a name, metadata, a
``supports(problem)`` capability probe and a ``solve(problem)`` method —
held in a process-wide registry (mirroring
:mod:`repro.schedulers.registry`).  Three ship by default:

* ``highs`` — scipy's bundled HiGHS, called directly (sparse, exact,
  produces duals; the default);
* ``simplex`` — the from-scratch dense two-phase simplex;
* ``fastsolve`` — the structure-exploiting parametric max-flow solver of
  :mod:`repro.lp.fastsolve`; it *claims* theta-form interval LPs via
  ``supports`` and declines everything else.

Every solve passes through :func:`solve_lp`, which makes it the natural
observability *and* fault-tolerance choke point:

* each call is timed into the ``lp.solve`` histogram (plus a per-backend
  ``lp.solve.backend.<name>`` histogram), tagged counters record
  per-backend call volume, and non-optimal outcomes (infeasible ladder
  rungs during planning are *expected*, but their rate matters) are
  counted separately;
* **capability routing**: when the requested backend does not support the
  instance (``lp.solve.declined.<name>`` counter) the call is transparently
  routed to its alternate, so callers can request ``fastsolve``
  unconditionally;
* a backend that raises, or returns an ERROR status, is retried
  **once on the alternate backend** (``lp.solve.retry`` counter) — a typed
  :class:`SolverFailure` is raised only when every attempt failed, so
  callers never silently consume a broken solution;
* an optional **per-call wall-time budget** bounds planning latency: a
  solve that exceeds it raises :class:`SolverFailure` (``reason="budget"``,
  ``lp.solve.budget_exceeded`` counter) instead of letting a pathological
  instance stall the scheduling loop — callers degrade gracefully (see
  :class:`repro.schedulers.flowtime_sched.FlowTimeScheduler`).

An injectable fault hook (:func:`install_fault_injector`) lets the chaos
harness (:mod:`repro.chaos`) inject solver exceptions and slow solves
deterministically; production code never installs one.

Registration takes :class:`SolverBackend` objects only; wrap a plain
``Callable[[LinearProgram], LPSolution]`` in a :class:`FunctionBackend`
(the legacy bare-callable form was removed in 1.8.0).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, runtime_checkable

from repro.lp import fastsolve, scipy_backend, simplex
from repro.lp.problem import LinearProgram, LPSolution, LPStatus
from repro.obs import current_obs

__all__ = [
    "DEFAULT_BACKEND",
    "FunctionBackend",
    "SolverBackend",
    "SolverFailure",
    "available_backends",
    "backend_info",
    "get_backend",
    "install_fault_injector",
    "register_backend",
    "solve_lp",
    "unregister_backend",
]

DEFAULT_BACKEND = "highs"


@runtime_checkable
class SolverBackend(Protocol):
    """What the registry requires of an LP backend.

    ``supports`` is a cheap capability probe — it must not mutate the
    problem and should be far cheaper than a solve (structure detection is
    the intended cost ceiling).  ``solve`` must return a valid
    :class:`~repro.lp.problem.LPSolution` or raise; INFEASIBLE/UNBOUNDED
    are answers, ERROR/exceptions are solver faults the registry retries.
    """

    name: str
    description: str

    def supports(self, problem: LinearProgram) -> bool:
        """Can this backend solve *problem*?"""
        ...  # pragma: no cover - protocol

    def solve(self, problem: LinearProgram) -> LPSolution:
        """Solve *problem* (may assume ``supports`` returned True)."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class FunctionBackend:
    """Adapter presenting a plain solve function as a :class:`SolverBackend`.

    Without ``supports_fn`` the backend claims every instance (the contract
    the old bare-callable registry implied).
    """

    name: str
    solve_fn: Callable[[LinearProgram], LPSolution]
    description: str = ""
    supports_fn: Optional[Callable[[LinearProgram], bool]] = None

    def supports(self, problem: LinearProgram) -> bool:
        if self.supports_fn is None:
            return True
        return bool(self.supports_fn(problem))

    def solve(self, problem: LinearProgram) -> LPSolution:
        return self.solve_fn(problem)


_registry_lock = threading.Lock()
_BACKENDS: dict[str, SolverBackend] = {}
#: Retry order: the one alternate backend tried when the named one fails
#: (or declines the instance).
_ALTERNATE: dict[str, str] = {}


def register_backend(
    backend: SolverBackend,
    *,
    alternate: str | None = None,
    overwrite: bool = False,
) -> SolverBackend:
    """Register a backend under its name; returns the registered object.

    *backend* must satisfy :class:`SolverBackend`; wrap a plain solve
    function in a :class:`FunctionBackend`.  (The pre-1.8 bare-callable
    form ``register_backend(name, fn)`` was removed.)

    ``alternate`` names the backend retried when this one fails or
    declines (defaults to :data:`DEFAULT_BACKEND`).  Re-registering an
    existing name raises ``ValueError`` unless ``overwrite`` is set.
    """
    if isinstance(backend, str):
        raise TypeError(
            "register_backend(name, fn) was removed in 1.8.0; pass a "
            "SolverBackend object (FunctionBackend wraps a plain solve "
            "function)"
        )
    name = backend.name
    with _registry_lock:
        if name in _BACKENDS and not overwrite:
            raise ValueError(f"LP backend {name!r} is already registered")
        _BACKENDS[name] = backend
        if alternate is not None:
            _ALTERNATE[name] = alternate
        elif name not in _ALTERNATE and name != DEFAULT_BACKEND:
            _ALTERNATE[name] = DEFAULT_BACKEND
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend; unknown names raise ``KeyError``."""
    with _registry_lock:
        del _BACKENDS[name]
        _ALTERNATE.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted (feeds ``--lp-backend`` choices)."""
    with _registry_lock:
        return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> SolverBackend:
    """The registered backend object; unknown names raise ``ValueError``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown LP backend {name!r}; available: {available_backends()}"
        ) from None


def backend_info() -> dict[str, str]:
    """Name -> description of every registered backend (docs/CLI help)."""
    with _registry_lock:
        return {name: _BACKENDS[name].description for name in sorted(_BACKENDS)}


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
        backend: the backend of the *last* failed attempt.
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


def _supports(backend: SolverBackend, problem: LinearProgram) -> bool:
    """Capability probe that never propagates a backend bug."""
    try:
        return bool(backend.supports(problem))
    except Exception:  # a broken probe must not take down the solve path
        return False


def _attempt(
    backend: str, problem: LinearProgram
) -> tuple[LPSolution | None, Exception | None]:
    """One backend attempt: (solution, None) or (None, error)."""
    injector = _fault_injector
    try:
        if injector is not None:
            injector(backend, problem)
        return _BACKENDS[backend].solve(problem), None
    except Exception as error:  # backend blew up: a solver fault, not an answer
        return None, error


def _route(
    backend: str, problem: LinearProgram, retry_alternate: bool
) -> list[str]:
    """Attempt order: capability-routed primary, then its alternate."""
    obs = current_obs()
    primary = backend
    if not _supports(_BACKENDS[backend], problem):
        obs.counter(f"lp.solve.declined.{backend}").inc()
        alt = _ALTERNATE.get(backend, DEFAULT_BACKEND)
        if alt in _BACKENDS and _supports(_BACKENDS[alt], problem):
            primary = alt
        else:
            primary = DEFAULT_BACKEND
    attempts = [primary]
    if retry_alternate:
        alt = _ALTERNATE.get(primary)
        if alt is not None and alt in _BACKENDS and alt != primary:
            attempts.append(alt)
    return attempts


def solve_lp(
    problem: LinearProgram,
    backend: str = DEFAULT_BACKEND,
    *,
    tag: str | None = None,
    time_budget_s: float | None = None,
    retry_alternate: bool = True,
) -> LPSolution:
    """Solve *problem* with the named backend from the registry.

    ``tag`` attributes the call to a caller-chosen purpose (e.g.
    ``"admission"``) via an extra ``lp.solve.tag.<tag>`` counter, so call
    volume can be broken down by origin, not just by backend.

    Guardrails (see module docstring): a backend that declines the
    instance (``supports`` False) is routed around; a failed attempt
    (backend exception or ERROR status) is retried once on the alternate
    backend when ``retry_alternate`` is set; ``time_budget_s`` bounds the
    *total* wall time across attempts.  Exhausting either raises
    :class:`SolverFailure`.  INFEASIBLE and UNBOUNDED outcomes are valid
    answers and are returned normally (``lp.solve.nonoptimal`` counter).
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown LP backend {backend!r}; available: {available_backends()}"
        )
    obs = current_obs()
    attempts = _route(backend, problem, retry_alternate)

    start = time.perf_counter()
    last_error: Exception | None = None
    last_status = ""
    last_backend = backend
    for n, attempt_backend in enumerate(attempts):
        last_backend = attempt_backend
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
        if error is not None:
            obs.counter(f"lp.solve.errors.{attempt_backend}").inc()
            last_error = error
            continue
        if time_budget_s is not None and elapsed > time_budget_s:
            # The budget bounds planning latency: even a usable answer that
            # arrives too late is a failure from the scheduling loop's point
            # of view (and retrying would stall it further).
            obs.counter("lp.solve.budget_exceeded").inc()
            raise SolverFailure(
                f"LP solve blew its {time_budget_s:.3f}s budget "
                f"({elapsed:.3f}s on {attempt_backend!r})",
                backend=attempt_backend,
                reason="budget",
                elapsed=elapsed,
            )
        if solution.status in (
            LPStatus.OPTIMAL,
            LPStatus.INFEASIBLE,
            LPStatus.UNBOUNDED,
        ):
            # INFEASIBLE and UNBOUNDED are *answers* (properties of the
            # problem a correct alternate backend would only confirm), not
            # solver faults — return them, don't retry.
            if not solution.is_optimal:
                obs.counter("lp.solve.nonoptimal").inc()
            return solution
        # ERROR: the solver misbehaved — never hand that to a caller as if
        # it were an answer.
        obs.counter(f"lp.solve.errors.{attempt_backend}").inc()
        last_status = solution.status.value
        last_error = None

    elapsed = time.perf_counter() - start
    obs.counter("lp.solve.failures").inc()
    detail = (
        f"{type(last_error).__name__}: {last_error}"
        if last_error is not None
        else f"status {last_status!r}"
    )
    raise SolverFailure(
        f"LP solve failed on all of {attempts} ({detail})",
        backend=last_backend,
        reason="error",
        elapsed=elapsed,
    )


# -- built-in backends -----------------------------------------------------------

register_backend(
    FunctionBackend(
        name="highs",
        solve_fn=scipy_backend.solve,
        description="scipy HiGHS: sparse exact LP with duals (default)",
    ),
    alternate="simplex",
)
register_backend(
    FunctionBackend(
        name="simplex",
        solve_fn=simplex.solve,
        description="from-scratch dense two-phase simplex (no external solver)",
    ),
    alternate="highs",
)
register_backend(
    FunctionBackend(
        name="fastsolve",
        solve_fn=fastsolve.solve,
        description=(
            "parametric max-flow for interval-structured minimax LPs "
            "(Lemma 2); declines unstructured instances"
        ),
        supports_fn=fastsolve.supports,
    ),
    alternate="highs",
)
