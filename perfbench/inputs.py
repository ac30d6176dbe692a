"""Seeded inputs: the mixed CPU+memory traces every workload draws from.

All three workloads take their entities from ``repro``'s own
``generate_trace`` (layered random DAGs of PUMA-style CPU+memory jobs
plus a Poisson ad-hoc stream), so batch and serve exercise the same
job shapes.  The seed is the harness's argument; the program under test
only ever sees the generated inputs.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from openloop import Send
from repro.model.cluster import ClusterCapacity
from repro.workloads.traces import generate_trace, job_to_dict, workflow_to_dict

CPU, MEM = 64, 128
#: Seed of the fixed input libraries below; ``--seed`` picks from them.
LIBRARY_SEED = 2018
#: Batch trace shape: small enough that one trace runs in about a second,
#: so a run can take medians over many traces.
BATCH_SHAPE = dict(
    n_workflows=3,
    jobs_per_workflow=8,
    n_adhoc=25,
    looseness=(4.0, 8.0),
    adhoc_rate_per_slot=0.7,
    workflow_spread_slots=50,
)
#: Jobs per workflow in the serve mix (same generator as the batch trace).
SERVE_JOBS_PER_WORKFLOW = 4


def capacity() -> ClusterCapacity:
    return ClusterCapacity.uniform(cpu=CPU, mem=MEM)


#: A batch run draws its traces from this many, without repeats.  A few
#: traces run several times longer than the rest; drawing from a fixed
#: set keeps which of them a seed happens to get from setting the spread.
BATCH_LIBRARY = 48


def batch_trace(seed: int, index: int):
    """The *index*-th batch trace of a run seeded with *seed*."""
    pick = np.random.default_rng(seed).permutation(BATCH_LIBRARY)[index % BATCH_LIBRARY]
    return generate_trace(
        capacity=capacity(), seed=LIBRARY_SEED + 1 + int(pick), **BATCH_SHAPE
    )


#: The serve workloads send one fixed library of job shapes; the run seed
#: picks the order they are sent in and the arrival times.  A library
#: drawn per seed made each run's share of heavy workflows, not the
#: program, the largest source of spread between seeds.
LIBRARY_WORKFLOWS = 40
LIBRARY_ADHOC = 160


class EntityPool:
    """Workflows and ad-hoc jobs in wire form, handed out with fresh ids.

    Entities come from the shape library in an order drawn from *seed*.
    Ids are unique per run (``<tag>-<n>``), so a later phase against a
    server that already holds earlier entities is never rejected as a
    duplicate.  Workflow windows are kept relative (``deadline - start``)
    and patched onto the service's slot at send time.
    """

    def __init__(self, seed, tag: str):
        workflows, adhoc = _library()
        rng = np.random.default_rng(seed)
        self.tag = tag
        self._workflows = [workflows[i] for i in rng.permutation(len(workflows))]
        self._adhoc = [adhoc[i] for i in rng.permutation(len(adhoc))]
        self._sent = {"w": 0, "a": 0}

    def _next(self, kind: str, library: list) -> tuple[dict, str]:
        """The next entity of *kind* in the seed's order, and a fresh id."""
        n = self._sent[kind]
        self._sent[kind] = n + 1
        return library[n % len(library)], f"{self.tag}-{kind}{n}"

    def workflow(self, due: float) -> Send:
        wf, wid = self._next("w", self._workflows)
        rename = {job["job_id"]: f"{wid}-{job['job_id']}" for job in wf["jobs"]}
        jobs = [
            {**job, "job_id": rename[job["job_id"]], "workflow_id": wid}
            for job in wf["jobs"]
        ]
        edges = [[rename[a], rename[b]] for a, b in wf["edges"]]
        body = {**wf, "workflow_id": wid, "jobs": jobs, "edges": edges}
        return Send(
            due=due,
            kind="workflow",
            entity_id=wid,
            request_id=f"{wid}-r",
            workflow=body,
            window=wf["deadline_slot"] - wf["start_slot"],
        )

    def adhoc(self, due: float) -> Send:
        job, jid = self._next("a", self._adhoc)
        # Arrive now: a future arrival slot would park the job in the queue.
        body = {**job, "job_id": jid, "arrival_slot": 0}
        return Send(
            due=due,
            kind="adhoc",
            entity_id=jid,
            request_id=f"{jid}-r",
            body=json.dumps(body, separators=(",", ":")).encode("utf-8"),
        )


@functools.cache
def _library() -> tuple[tuple[dict, ...], tuple[dict, ...]]:
    """The serve entity library in wire form (read-only; built once)."""
    trace = generate_trace(
        n_workflows=LIBRARY_WORKFLOWS,
        jobs_per_workflow=SERVE_JOBS_PER_WORKFLOW,
        n_adhoc=LIBRARY_ADHOC,
        capacity=capacity(),
        looseness=(4.0, 8.0),
        # A rate high enough that the stream is never truncated early.
        adhoc_rate_per_slot=LIBRARY_ADHOC / 100.0,
        seed=LIBRARY_SEED,
    )
    return (
        tuple(workflow_to_dict(wf) for wf in trace.workflows),
        tuple(job_to_dict(job) for job in trace.adhoc_jobs),
    )


def poisson_schedule(rate: float, duration: float, rng: np.random.Generator) -> list[float]:
    """Due times of a Poisson process of *rate* per second over *duration*."""
    n = int(rate * duration * 1.5) + 16
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return [float(t) for t in times[times < duration]]


def make_sends(
    pool: EntityPool,
    rate: float,
    duration: float,
    rng: np.random.Generator,
    workflow_every: int,
) -> list[Send]:
    """An open-loop schedule; every *workflow_every*-th arrival is a
    workflow (0: ad-hoc only)."""
    sends = []
    for i, due in enumerate(poisson_schedule(rate, duration, rng)):
        if workflow_every and i % workflow_every == workflow_every - 1:
            sends.append(pool.workflow(due))
        else:
            sends.append(pool.adhoc(due))
    return sends
