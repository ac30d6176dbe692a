"""The observability handle: spans + metrics + trace, context-propagated.

One :class:`Observability` object bundles the three instruments a run
needs:

* a :class:`~repro.obs.metrics.MetricsRegistry` (counters/gauges/histograms),
* a trace sink (:mod:`repro.obs.trace`),
* a log level controlling how chatty the instrumented layers are.

The stack's pure algorithm layers (decomposition, LP build/solve,
admission) cannot be handed an ``obs`` argument without threading it
through every signature, so the *current* observability is carried in a
:class:`contextvars.ContextVar`:

* the default is :data:`NULL_OBS`, a frozen no-op whose spans cost a few
  hundred nanoseconds and whose registry drops every write — code can
  instrument unconditionally;
* a simulation (or a test) activates its own handle for the duration of a
  run with ``with use_obs(obs): ...``; the token-based reset guarantees
  nothing leaks across runs, even when runs nest or interleave.

Span names used by the instrumented stack (``seconds`` histograms of the
same name): ``decompose``, ``lp.build``, ``lp.solve``, ``sched.plan``,
``sched.decide``, ``sim.slot``, ``admission.check``.
"""

from __future__ import annotations

import logging
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import NullSink, TraceSink
from repro.obs.windowed import WindowedCounter, WindowedHistogram

__all__ = [
    "NULL_OBS",
    "Observability",
    "Span",
    "current_obs",
    "current_request_id",
    "new_request_id",
    "use_obs",
    "use_request_id",
]

_logger = logging.getLogger("repro.obs")

#: The request id of the submission currently being processed, carried in
#: a context variable next to the obs handle.  Trace events emitted while
#: it is set (admission checks, journal appends, plan calls triggered by a
#: submission) are stamped with it, so a request's timeline can be joined
#: back out of the flat event stream (``repro trace query --request``).
_REQUEST_ID: ContextVar[str | None] = ContextVar("repro_request_id", default=None)


def current_request_id() -> str | None:
    """The request id in flight, or None outside request handling."""
    return _REQUEST_ID.get()


def new_request_id() -> str:
    """Mint a fresh request id (128-bit random, hex)."""
    return uuid.uuid4().hex


@contextmanager
def use_request_id(request_id: str | None) -> Iterator[str | None]:
    """Stamp trace events emitted in this block with *request_id*."""
    token = _REQUEST_ID.set(request_id)
    try:
        yield request_id
    finally:
        _REQUEST_ID.reset(token)


class Span:
    """A wall-clock timer for one named phase (use via ``obs.span(name)``).

    On exit the elapsed seconds are observed into the histogram of the
    same name; ``elapsed`` stays readable afterwards for callers that need
    the value (e.g. the engine's slowest-slot tracking).  When the owning
    handle has ``trace_spans`` on, exit additionally emits a ``span`` trace
    event — stamped, like every event, with the in-flight request id — so
    phase timings can be joined to the submission that caused them.
    """

    __slots__ = ("name", "_histogram", "_obs", "_start", "elapsed")

    def __init__(
        self,
        name: str,
        histogram: Histogram | None,
        obs: "Observability | None" = None,
    ):
        self.name = name
        self._histogram = histogram
        self._obs = obs
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
        if self._histogram is not None:
            self._histogram.observe(self.elapsed)
        if self._obs is not None:
            self._obs.event("span", name=self.name, seconds=self.elapsed)


class _NullSpan:
    """Shared, reusable no-op span (the disabled fast path)."""

    __slots__ = ()
    name = ""
    elapsed = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Observability:
    """Bundle of metrics registry, trace sink, and verbosity for one run."""

    __slots__ = ("registry", "sink", "level", "tracing", "trace_spans")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sink: TraceSink | None = None,
        level: int = logging.INFO,
        trace_spans: bool = False,
    ):
        self.registry = MetricsRegistry() if registry is None else registry
        self.sink = NullSink() if sink is None else sink
        self.level = level
        #: True when the sink records events; emitters consult this before
        #: building payloads so the disabled path does no dict work.
        self.tracing = self.sink.enabled
        #: Also emit a ``span`` trace event per phase span (chatty; off by
        #: default even when tracing).
        self.trace_spans = trace_spans and self.tracing

    # -- timing ----------------------------------------------------------------

    def span(self, name: str) -> Span:
        """Time a phase: ``with obs.span("lp.solve"): ...``."""
        return Span(
            name,
            self.registry.histogram(name),
            self if self.trace_spans else None,
        )

    # -- metrics pass-throughs ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.registry.histogram(name)

    def windowed_counter(self, name: str, **kwargs) -> WindowedCounter:
        return self.registry.windowed_counter(name, **kwargs)

    def windowed_histogram(self, name: str, **kwargs) -> WindowedHistogram:
        return self.registry.windowed_histogram(name, **kwargs)

    # -- tracing -----------------------------------------------------------------

    def event(self, event_type: str, **fields) -> None:
        """Emit one structured trace event (no-op when tracing is off).

        Events emitted while a request id is in flight (``use_request_id``)
        are stamped with it unless the emitter supplied its own.
        """
        if not self.tracing:
            return
        request_id = _REQUEST_ID.get()
        if request_id is not None:
            fields.setdefault("request_id", request_id)
        fields["type"] = event_type
        self.sink.emit(fields)

    def log(self, level: int, message: str, *args) -> None:
        """Route an instrumentation log line, gated by this handle's level."""
        if level >= self.level:
            _logger.log(level, message, *args)

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "Observability":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _NullObservability(Observability):
    """The inert default: spans are shared no-ops, metrics are dropped.

    A fresh throwaway registry would still accumulate state between runs
    that never installed their own handle, so every metric accessor
    returns a detached object and ``snapshot()`` of the shared registry
    stays empty.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(registry=MetricsRegistry(), sink=NullSink(),
                         level=logging.CRITICAL)

    def span(self, name: str) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def counter(self, name: str) -> Counter:
        return Counter(name)  # detached: writes go nowhere observable

    def gauge(self, name: str) -> Gauge:
        return Gauge(name)

    def histogram(self, name: str) -> Histogram:
        return Histogram(name)

    def windowed_counter(self, name: str, **kwargs) -> WindowedCounter:
        return WindowedCounter(name, **kwargs)

    def windowed_histogram(self, name: str, **kwargs) -> WindowedHistogram:
        return WindowedHistogram(name, **kwargs)

    def event(self, event_type: str, **fields) -> None:
        pass

    def log(self, level: int, message: str, *args) -> None:
        pass


#: Process-wide inert handle; the context variable's default.
NULL_OBS = _NullObservability()

_CURRENT: ContextVar[Observability] = ContextVar(
    "repro_observability", default=NULL_OBS
)


def current_obs() -> Observability:
    """The active observability handle (:data:`NULL_OBS` unless installed)."""
    return _CURRENT.get()


@contextmanager
def use_obs(obs: Observability) -> Iterator[Observability]:
    """Install *obs* as the current handle for the duration of the block."""
    token = _CURRENT.set(obs)
    try:
        yield obs
    finally:
        _CURRENT.reset(token)
