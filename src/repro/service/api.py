"""Value objects of the scheduler service's submission/query API.

Every transport (the in-process client, the JSON-over-HTTP frontend)
speaks in these types; their ``to_dict`` forms are the HTTP response
bodies, so the in-process and remote views of a decision are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # imported lazily to keep the value-object module light
    from repro.estimation.errors import ErrorModel
    from repro.simulator.failures import FailureModel

__all__ = [
    "QueueFullError",
    "ServiceConfig",
    "ServiceSaturatedError",
    "ServiceStatus",
    "SubmitResult",
]


class QueueFullError(RuntimeError):
    """An ad-hoc submission was shed because the bounded queue is full.

    Raised by clients (not by the service core, which answers every
    command) so callers can distinguish *shed* from *accepted* without
    inspecting reason strings.  Carries the queue depth at shed time and
    the server's retry hint.
    """

    def __init__(self, message: str, *, queue_depth: int = 0,
                 retry_after_s: float = 1.0):
        super().__init__(message)
        self.queue_depth = queue_depth
        self.retry_after_s = retry_after_s


class ServiceSaturatedError(RuntimeError):
    """The submission command queue is saturated; retry after a backoff.

    The HTTP frontend translates this to ``503`` + ``Retry-After``; the
    in-process client lets it propagate.  Distinct from
    :class:`QueueFullError`: saturation is the *control* path (commands
    not yet looked at), shedding is the *work* queue (jobs admitted but
    bounded).
    """

    def __init__(self, message: str, *, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`~repro.service.core.SchedulerService`.

    Attributes:
        scheduler: registry name of the scheduling policy to run.
        scheduler_kwargs: forwarded to the registry factory (e.g.
            ``{"planner": {"plan_cache": False}}`` for ablations).
        slot_seconds: modelled duration of one slot (metrics conversion;
            the paper's deployment used 10 s).
        realtime: when True the event loop advances one slot per
            ``slot_seconds`` of wall-clock time (a live server); when False
            time is *virtual* — the clock advances as fast as work exists
            and parks while the system is idle (tests, simulation serving).
        batch_window_s: re-planning batch window in wall seconds.  After a
            submission arrives, the loop holds the (virtual) clock open for
            this long so a burst of N submissions coalesces into a single
            arrival slot — and therefore one LP ladder, not N.  0 batches
            only submissions already queued together.
        adhoc_queue_limit: bound on outstanding (incomplete) ad-hoc jobs;
            submissions beyond it are shed (backpressure) instead of
            growing the queue without bound.
        admission: run the exact max-placement admission check
            (:func:`repro.core.admission.check_admission`) on every
            workflow submission and reject workloads that provably cannot
            meet their deadlines.  False admits everything (paper
            behaviour).
        cluster_aware_decomposition: how admission decomposes candidate
            workflows (matches the FlowTime scheduler's default).
        strict: engine grant validation (see
            :class:`~repro.simulator.engine.SimulationConfig`).
        record_execution: keep per-slot executed-unit rows (Gantt support).
        drain_max_slots: hard stop for the graceful-drain run-out; a drain
            not finished by then reports ``finished=False``.
        submit_timeout_s: how long a synchronous ``submit_*`` call waits
            for the event loop before raising ``TimeoutError``.
        command_queue_limit: bound on *pending* commands (submissions and
            queries not yet picked up by the event loop).  Beyond it,
            submission raises :class:`ServiceSaturatedError` (HTTP: ``503``
            + ``Retry-After``) instead of queueing without bound behind a
            stalled loop.
        journal_path: when set, accepted submissions are appended to this
            write-ahead JSONL journal (fsync before the client sees the
            decision) and replayed on service start, so a crashed service
            restarts with zero lost accepted work.
        journal_fsync: fsync every journal append (durability); turn off
            only in tests/benchmarks where the journal is about replay
            mechanics, not crash safety.
        failures: optional :class:`~repro.simulator.failures.FailureModel`
            injecting progress setbacks into served slots (mirrors
            ``repro run --setback-prob``).
        error_model: optional :class:`~repro.estimation.errors.ErrorModel`;
            when set, submitted workflows are perturbed at admission time —
            the scheduler plans against erroneous estimates while the
            engine executes true demands (mirrors ``repro run
            --error-low/--error-high``).  Perturbation is seeded per
            workflow id (``fault_seed``), so a journal replay reproduces
            the same believed estimates.
        fault_seed: base seed for ``error_model`` perturbation.
        slo_deadline_objective: fraction of admitted workflows that must
            meet their deadline (the ``GET /slo`` error-budget objective).
        slo_decide_p99_s: decide-latency p99 ceiling in seconds.
        slo_window_s: rolling SLO evaluation window in seconds (burn rate,
            rolling p99).
        engine: which engine core steps the clock — ``"slots"`` or
            ``"events"`` (``repro serve --engine``).  The event core
            jumps idle virtual-time gaps and makes drain cost
            proportional to remaining work; under ``realtime=True``
            jumping is disabled so virtual time never races the wall
            clock, leaving the cores behaviourally identical there.
    """

    scheduler: str = "FlowTime"
    scheduler_kwargs: Mapping = field(default_factory=dict)
    slot_seconds: float = 10.0
    realtime: bool = False
    batch_window_s: float = 0.0
    adhoc_queue_limit: int = 256
    admission: bool = True
    cluster_aware_decomposition: bool = True
    strict: bool = True
    record_execution: bool = False
    drain_max_slots: int = 50_000
    submit_timeout_s: float = 30.0
    command_queue_limit: int = 1024
    journal_path: Optional[str] = None
    journal_fsync: bool = True
    failures: Optional["FailureModel"] = None
    error_model: Optional["ErrorModel"] = None
    fault_seed: int = 0
    slo_deadline_objective: float = 0.99
    slo_decide_p99_s: float = 1.0
    slo_window_s: float = 300.0
    engine: str = "slots"

    def __post_init__(self) -> None:
        if self.engine not in ("slots", "events"):
            raise ValueError("engine must be 'slots' or 'events'")
        if self.slot_seconds <= 0:
            raise ValueError("slot_seconds must be > 0")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if self.adhoc_queue_limit < 1:
            raise ValueError("adhoc_queue_limit must be >= 1")
        if self.drain_max_slots < 1:
            raise ValueError("drain_max_slots must be >= 1")
        if self.command_queue_limit < 1:
            raise ValueError("command_queue_limit must be >= 1")
        if not 0.0 < self.slo_deadline_objective < 1.0:
            raise ValueError("slo_deadline_objective must be in (0, 1)")
        if self.slo_decide_p99_s <= 0:
            raise ValueError("slo_decide_p99_s must be > 0")
        if self.slo_window_s <= 0:
            raise ValueError("slo_window_s must be > 0")


@dataclass(frozen=True)
class SubmitResult:
    """Synchronous outcome of one submission.

    ``reason`` is one of: ``admitted`` (deadline workflow passed the
    admission check), ``queued`` (ad-hoc job accepted into the queue),
    ``infeasible`` (admission proved a deadline shortfall), ``queue_full``
    (ad-hoc backpressure shed), ``draining`` (service no longer admits),
    ``invalid`` (malformed or duplicate submission), ``unavailable``
    (the admission LP solver failed — a retryable condition, HTTP 503).
    """

    accepted: bool
    kind: str  # "workflow" | "adhoc"
    id: str
    reason: str
    utilisation: float = math.nan
    shortfall_units: Mapping[str, int] = field(default_factory=dict)
    queue_depth: int = 0
    #: Correlation id the submission was processed under (minted by the
    #: service when the client sent none); every trace event the
    #: submission generates is stamped with it, so ``repro trace query
    #: RUN.jsonl --request <id>`` reconstructs the full timeline.
    request_id: str = ""
    #: Name of the shard that decided this submission, filled in by the
    #: shard router (empty for a monolithic service).  Lets clients and
    #: the load generator attribute acceptance per shard.
    shard: str = ""

    def to_dict(self) -> dict:
        return {
            "accepted": self.accepted,
            "kind": self.kind,
            "id": self.id,
            "reason": self.reason,
            "utilisation": None if math.isnan(self.utilisation) else self.utilisation,
            "shortfall_units": dict(self.shortfall_units),
            "queue_depth": self.queue_depth,
            "request_id": self.request_id,
            "shard": self.shard,
        }

    @staticmethod
    def from_dict(data: dict) -> "SubmitResult":
        utilisation = data.get("utilisation")
        return SubmitResult(
            accepted=bool(data["accepted"]),
            kind=data.get("kind", ""),
            id=data.get("id", ""),
            reason=data.get("reason", ""),
            utilisation=math.nan if utilisation is None else float(utilisation),
            shortfall_units=dict(data.get("shortfall_units", {})),
            queue_depth=int(data.get("queue_depth", 0)),
            request_id=data.get("request_id", ""),
            shard=data.get("shard", ""),
        )


@dataclass(frozen=True)
class ServiceStatus:
    """One consistent snapshot of the service's externally visible state."""

    running: bool
    draining: bool
    slot: int
    scheduler: str
    n_workflows: int
    n_jobs: int
    remaining_jobs: int
    queue_depth: int
    accepted_workflows: int
    rejected_workflows: int
    accepted_adhoc: int
    shed_adhoc: int
    replans: int

    def to_dict(self) -> dict:
        return {
            "running": self.running,
            "draining": self.draining,
            "slot": self.slot,
            "scheduler": self.scheduler,
            "n_workflows": self.n_workflows,
            "n_jobs": self.n_jobs,
            "remaining_jobs": self.remaining_jobs,
            "queue_depth": self.queue_depth,
            "accepted_workflows": self.accepted_workflows,
            "rejected_workflows": self.rejected_workflows,
            "accepted_adhoc": self.accepted_adhoc,
            "shed_adhoc": self.shed_adhoc,
            "replans": self.replans,
        }

    @staticmethod
    def from_dict(data: dict) -> "ServiceStatus":
        return ServiceStatus(
            running=bool(data["running"]),
            draining=bool(data["draining"]),
            slot=int(data["slot"]),
            scheduler=data.get("scheduler", ""),
            n_workflows=int(data["n_workflows"]),
            n_jobs=int(data["n_jobs"]),
            remaining_jobs=int(data["remaining_jobs"]),
            queue_depth=int(data["queue_depth"]),
            accepted_workflows=int(data["accepted_workflows"]),
            rejected_workflows=int(data["rejected_workflows"]),
            accepted_adhoc=int(data["accepted_adhoc"]),
            shed_adhoc=int(data["shed_adhoc"]),
            replans=int(data["replans"]),
        )
