"""Builds the scheduling LP of Sec. V.

Two variable layouts are supported:

* ``mode="paper"`` — the paper's formulation verbatim: one variable
  ``x_it^r`` per (job, slot, resource), demand equalities per (job,
  resource), and per-(slot, resource) utilisation rows.  The constraint
  matrix has the interval structure of Lemma 2 (totally unimodular), which
  the tests verify with :mod:`repro.lp.unimodular`.

* ``mode="coupled"`` — one variable ``y_it`` per (job, slot) counting
  *task-slots* granted; the per-resource allocation is ``y_it *
  unit_demand_r``.  This couples resource types the way containers do in a
  real cluster (a task needs its cores *and* its memory in the same slot),
  produces a much smaller LP, and is what the executable planner uses.  It
  gives up the TU guarantee, so the integral repair in
  :mod:`repro.core.allocation` does the final quantisation.

Both layouts share :class:`ScheduleProblem`, which pre-assembles the sparse
utilisation matrix so the lexicographic minimax solver can slice rows
cheaply on every round.  :func:`build_max_placement` derives the one other
LP the system poses — maximise total placement under the windows — which
both admission control and the planner's shortfall relaxation solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np
from scipy import sparse

from repro.lp.problem import LinearProgram
from repro.model.resources import ResourceVector
from repro.obs import current_obs

Mode = Literal["paper", "coupled"]


@dataclass(frozen=True)
class ScheduleEntry:
    """One deadline-aware job as the LP sees it.

    Slots are *relative* to the plan origin: the job may receive resources in
    ``release <= t < deadline`` (both within ``[0, horizon)``), needs
    ``units`` more task-slots of work, each task-slot consuming
    ``unit_demand``, and can run at most ``max_parallel`` tasks at once.
    """

    job_id: str
    release: int
    deadline: int
    units: int
    unit_demand: ResourceVector
    max_parallel: int

    def __post_init__(self) -> None:
        if self.release < 0:
            raise ValueError(f"{self.job_id}: release must be >= 0")
        if self.deadline <= self.release:
            raise ValueError(
                f"{self.job_id}: empty window [{self.release}, {self.deadline})"
            )
        if self.units < 1:
            raise ValueError(f"{self.job_id}: units must be >= 1")
        if self.max_parallel < 1:
            raise ValueError(f"{self.job_id}: max_parallel must be >= 1")
        if self.unit_demand.is_zero():
            raise ValueError(f"{self.job_id}: unit demand must not be zero")

    def total_demand(self, resource: str) -> int:
        """The paper's ``s_i^r``."""
        return self.units * self.unit_demand[resource]


@dataclass
class ScheduleProblem:
    """Pre-assembled sparse pieces of the scheduling LP.

    Attributes:
        entries: the jobs, in variable-block order.
        resources: resource-type names, fixing the r index.
        caps: dense ``[horizon, n_resources]`` capacity array (``C_t^r``).
        n_vars: number of allocation variables (excludes the minimax theta,
            which the lexmin solver appends).
        a_eq / b_eq: demand equalities (constraint (2)).
        a_util: sparse ``[n_util_rows, n_vars]``; row k sums the allocation
            feeding utilisation cell ``util_cells[k] = (t, r)``.
        util_cells: the (slot, resource-index) of each utilisation row.
        var_ub: per-variable upper bound (per-slot parallelism caps).
        var_meta: ``[n_vars, 3]`` int array; row ``v`` is
            ``(entry_index, slot, resource_index)`` (the resource index is
            -1 in coupled mode).  Rows unpack like the historical tuples.
        mode: "paper" or "coupled".
    """

    entries: tuple[ScheduleEntry, ...]
    resources: tuple[str, ...]
    caps: np.ndarray
    n_vars: int
    a_eq: sparse.csr_matrix
    b_eq: np.ndarray
    a_util: sparse.csr_matrix
    util_cells: tuple[tuple[int, int], ...]
    var_ub: np.ndarray
    var_meta: np.ndarray
    mode: Mode

    @property
    def horizon(self) -> int:
        return self.caps.shape[0]

    def cap_of_cell(self, cell_index: int) -> float:
        slot, r_index = self.util_cells[cell_index]
        return float(self.caps[slot, r_index])

    def cell_caps(self) -> np.ndarray:
        """Per-utilisation-row capacity vector (vectorised ``cap_of_cell``).

        The lexmin ladder reads this once per rung; a single fancy-index
        gather replaces the per-cell Python loop on the hot path.
        """
        if not self.util_cells:
            return np.zeros(0)
        cells = np.asarray(self.util_cells)
        return self.caps[cells[:, 0], cells[:, 1]].astype(float)

    def utilisation(self, x: np.ndarray) -> np.ndarray:
        """Normalised usage ``z_t^r / C_t^r`` per utilisation cell."""
        loads = np.asarray(self.a_util @ x).ravel()
        return loads / np.maximum(self.cell_caps(), 1e-12)


def build_schedule_problem(
    entries: Sequence[ScheduleEntry],
    caps: np.ndarray,
    resources: Sequence[str],
    *,
    mode: Mode = "coupled",
    per_slot_caps: bool = True,
) -> ScheduleProblem:
    """Assemble the LP structure for the given jobs and capacity skyline.

    Args:
        entries: deadline jobs with relative windows inside ``[0, horizon)``.
        caps: ``[horizon, len(resources)]`` array of ``C_t^r``.
        resources: resource names fixing the column order of *caps*.
        mode: variable layout (see module docstring).
        per_slot_caps: bound each variable by the job's per-slot parallelism
            (True, executable) or leave it unbounded above like the paper's
            formulation (False; capacity rows still apply).

    Raises:
        ValueError on malformed windows or a window falling outside caps.
    """
    with current_obs().span("lp.build"):
        return _build_schedule_problem(
            entries, caps, resources, mode=mode, per_slot_caps=per_slot_caps
        )


def _build_schedule_problem(
    entries: Sequence[ScheduleEntry],
    caps: np.ndarray,
    resources: Sequence[str],
    *,
    mode: Mode,
    per_slot_caps: bool,
) -> ScheduleProblem:
    caps = np.asarray(caps, dtype=float)
    if caps.ndim != 2 or caps.shape[1] != len(resources):
        raise ValueError(
            f"caps must be [horizon, {len(resources)}], got {caps.shape}"
        )
    horizon = caps.shape[0]
    entries = tuple(entries)
    for entry in entries:
        if entry.deadline > horizon:
            raise ValueError(
                f"{entry.job_id}: deadline {entry.deadline} beyond horizon {horizon}"
            )

    resources = tuple(resources)
    known = set(resources)
    for entry in entries:
        unknown = set(entry.unit_demand) - known
        if unknown:
            raise KeyError(
                f"{entry.job_id}: demand names unknown resource(s) {sorted(unknown)}"
            )

    if not entries:
        raise ValueError("no variables: entries list is empty")

    n_entries = len(entries)
    n_resources = len(resources)
    release = np.array([entry.release for entry in entries], dtype=np.int64)
    window = np.array(
        [entry.deadline - entry.release for entry in entries], dtype=np.int64
    )
    units = np.array([entry.units for entry in entries], dtype=np.int64)
    parallel_cap = np.minimum(
        np.array([entry.max_parallel for entry in entries], dtype=np.int64), units
    )
    demand = np.zeros((n_entries, n_resources))
    for e_index, entry in enumerate(entries):
        for r, name in enumerate(resources):
            demand[e_index, r] = entry.unit_demand[name]

    # Every (block, slot) pair becomes one variable; blocks are whole jobs
    # in coupled mode and (job, resource-with-demand) pairs in paper mode.
    # np.repeat over block lengths lays the variables out in exactly the
    # order the historical Python loops produced.
    if mode == "coupled":
        block_entry = np.arange(n_entries)
        block_resource = np.full(n_entries, -1, dtype=np.int64)
        block_rhs = units.astype(float)
        block_ub = parallel_cap.astype(float)
    elif mode == "paper":
        block_entry, block_resource = np.nonzero(demand > 0)
        block_rhs = (
            units[block_entry] * demand[block_entry, block_resource]
        ).astype(float)
        block_ub = (
            parallel_cap[block_entry] * demand[block_entry, block_resource]
        ).astype(float)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    block_len = window[block_entry]
    n_vars = int(block_len.sum())
    block_of_var = np.repeat(np.arange(block_entry.size), block_len)
    offsets = np.concatenate([[0], np.cumsum(block_len)[:-1]])
    slot_of_var = (
        np.arange(n_vars) - offsets[block_of_var] + release[block_entry][block_of_var]
    )
    entry_of_var = block_entry[block_of_var]
    resource_of_var = block_resource[block_of_var]
    var_meta = np.stack([entry_of_var, slot_of_var, resource_of_var], axis=1)
    var_ub = (
        block_ub[block_of_var]
        if per_slot_caps
        else np.full(n_vars, np.inf)
    )

    a_eq = sparse.csr_matrix(
        (np.ones(n_vars), (block_of_var, np.arange(n_vars))),
        shape=(block_entry.size, n_vars),
    )
    b_eq = block_rhs

    # Utilisation cells: coupled mode touches one cell per demanded
    # resource per variable, paper mode exactly the variable's own cell.
    if mode == "coupled":
        entry_rows, demand_r = np.nonzero(demand[entry_of_var] > 0)
        cell_var = entry_rows  # variable index of each (var, resource) touch
        cell_coeff = demand[entry_of_var[cell_var], demand_r]
        cell_key = slot_of_var[cell_var] * n_resources + demand_r
    else:
        cell_var = np.arange(n_vars)
        cell_coeff = np.ones(n_vars)
        cell_key = slot_of_var * n_resources + resource_of_var
    # np.unique sorts keys exactly like the historical sorted() over
    # (slot, r) tuples, so row order — and the golden traces — are stable.
    uniq_keys, cell_row = np.unique(cell_key, return_inverse=True)
    cell_row = cell_row.ravel()
    a_util = sparse.csr_matrix(
        (cell_coeff, (cell_row, cell_var)), shape=(uniq_keys.size, n_vars)
    )
    util_cells = tuple(
        zip(
            (uniq_keys // n_resources).tolist(),
            (uniq_keys % n_resources).tolist(),
        )
    )

    return ScheduleProblem(
        entries=entries,
        resources=resources,
        caps=caps,
        n_vars=n_vars,
        a_eq=a_eq,
        b_eq=b_eq,
        a_util=a_util,
        util_cells=util_cells,
        var_ub=np.asarray(var_ub, dtype=float),
        var_meta=var_meta,
        mode=mode,
    )


def build_max_placement(
    entries: Sequence[ScheduleEntry],
    caps: np.ndarray,
    resources: Sequence[str],
) -> tuple[ScheduleProblem, LinearProgram]:
    """The max-placement LP over *entries*: how much work can fit at all?

    Demands are relaxed to ``<=`` and the total placed task-slots is
    maximised (``c = -1``) under the coupled, parallelism-capped layout:
    ``[a_util; a_eq] x <= [cell caps; b_eq]``.  Each job's shortfall
    ``b_eq - a_eq @ x`` at the optimum is work that provably cannot be
    placed before its deadline.  Returns the problem (to read the optimum
    back) and the LP; the caller solves it.
    """
    problem = build_schedule_problem(
        entries, caps, resources, mode="coupled", per_slot_caps=True
    )
    lp = LinearProgram(
        c=-np.ones(problem.n_vars),
        a_ub=sparse.vstack([problem.a_util, problem.a_eq]).tocsr(),
        b_ub=np.concatenate([problem.cell_caps(), problem.b_eq]),
        lb=np.zeros(problem.n_vars),
        ub=problem.var_ub,
    )
    return problem, lp
