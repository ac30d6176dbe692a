"""The planner's relaxation ladder is lazy.

``FlowTimePlanner._plan`` tries rungs in a fixed order — slack, plain,
shortfall-relaxed twice, stretched — and computes each rung only once the
one before it has failed.  The relaxed rungs each cost a max-placement LP
(``_shortfall_relax``), so a plan whose first rung succeeds must not solve
any, and a plan that needs them must come out exactly as it would if both
had been solved up front.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core.flowtime import FlowTimePlanner, JobDemand, PlannerConfig
from repro.core.replan import PlanRequest
from repro.model.cluster import ClusterCapacity
from repro.model.resources import CPU, MEM, ResourceVector
from repro.obs import Observability, use_obs

CAPACITY = ClusterCapacity.uniform(cpu=10, mem=20)


def demand(job_id, release, deadline, units, parallel, cores, mem) -> JobDemand:
    return JobDemand(
        job_id=job_id,
        release_slot=release,
        deadline_slot=deadline,
        units=units,
        unit_demand=ResourceVector({CPU: cores, MEM: mem}),
        max_parallel=parallel,
    )


# Jointly over-committed job mixes (slack off), keyed by the rung that
# ends up producing their plan.
OVERCOMMITTED = {
    "relax1": [
        demand("j0", 1, 8, 15, 4, 3, 1),
        demand("j1", 2, 6, 14, 4, 1, 2),
        demand("j2", 2, 3, 9, 1, 3, 1),
        demand("j3", 2, 2, 6, 1, 4, 1),
    ],
    "relax2": [
        demand("j0", 1, 5, 7, 1, 3, 4),
        demand("j1", 1, 5, 10, 3, 1, 3),
        demand("j2", 2, 6, 10, 5, 4, 1),
    ],
    "stretch": [
        demand("j0", 1, 6, 15, 1, 4, 6),
        demand("j1", 2, 2, 9, 5, 4, 3),
    ],
    "degraded": [
        demand("j0", 2, 7, 20, 4, 2, 3),
        demand("j1", 1, 6, 19, 5, 4, 5),
        demand("j2", 0, 5, 11, 4, 4, 6),
    ],
}


class EagerPlanner(FlowTimePlanner):
    """Reference: both max-placement LPs are solved before any rung is tried.

    This is the ladder as it was built before it became lazy.  The two
    shortfall-relax results are computed up front from the plain windows;
    the ladder then reads them back instead of solving again.
    """

    def _plan(self, request, config):
        self._relaxations = []
        if request.demands:
            now = request.now_slot
            plain = [self._entry_for(d, now, slack=0) for d in request.demands]
            horizon = max(entry.deadline for entry in plain)
            if config.horizon_slots is not None:
                horizon = min(horizon, config.horizon_slots)
            base = [
                replace(
                    e,
                    release=min(e.release, horizon - 1),
                    deadline=min(max(e.deadline, e.release + 1), horizon),
                )
                for e in plain
            ]
            relax = super()._shortfall_relax
            relaxed, relaxed_horizon = relax(base, now, request.capacity, horizon, config)
            second = relax(relaxed, now, request.capacity, relaxed_horizon, config)
            self._relaxations = [
                ((base, horizon), (relaxed, relaxed_horizon)),
                ((relaxed, relaxed_horizon), second),
            ]
        return super()._plan(request, config)

    def _shortfall_relax(self, entries, now_slot, capacity, horizon, config=None):
        (want_entries, want_horizon), result = self._relaxations.pop(0)
        assert entries == want_entries and horizon == want_horizon
        return result


def plan_with(planner, demands):
    obs = Observability()
    with use_obs(obs):
        plan = planner.plan(
            PlanRequest(now_slot=0, demands=tuple(demands), capacity=CAPACITY)
        )
    counters = {
        name: stats["value"]
        for name, stats in obs.registry.snapshot().items()
        if stats.get("type") == "counter"
    }
    return plan, counters


def assert_same_plan(a, b):
    assert (a.origin_slot, a.horizon, a.resources) == (b.origin_slot, b.horizon, b.resources)
    assert a.degraded == b.degraded
    assert a.unit_demands == b.unit_demands
    assert a.grants.keys() == b.grants.keys()
    for job_id in a.grants:
        assert np.array_equal(a.grants[job_id], b.grants[job_id])
    assert a.minimax == b.minimax or (math.isnan(a.minimax) and math.isnan(b.minimax))


class TestFirstRungSucceeds:
    @pytest.mark.parametrize("slack", [6, 0])
    def test_no_max_placement_solves(self, slack):
        demands = [demand("a", 0, 20, 8, 4, 2, 3), demand("b", 0, 16, 6, 2, 1, 2)]
        _, counters = plan_with(FlowTimePlanner(PlannerConfig(slack_slots=slack)), demands)
        first = "slack" if slack else "plain"
        assert counters[f"sched.plan.rung.{first}"] == 1
        assert "lp.solve.tag.relax" not in counters
        assert not any(
            name.startswith("sched.plan.rung.") and name != f"sched.plan.rung.{first}"
            for name in counters
        )


class TestOvercommitted:
    @pytest.mark.parametrize("rung", sorted(OVERCOMMITTED))
    def test_reaches_relaxed_rungs(self, rung):
        config = PlannerConfig(slack_slots=0, plan_cache=False)
        plan, counters = plan_with(FlowTimePlanner(config), OVERCOMMITTED[rung])
        if rung == "degraded":
            assert plan.degraded
            assert counters["sched.plan.degraded"] == 1
        else:
            assert counters[f"sched.plan.rung.{rung}"] == 1
        # relax1 needs one max-placement LP; every later rung needs both.
        assert counters["lp.solve.tag.relax"] == (1 if rung == "relax1" else 2)

    @pytest.mark.parametrize("rung", sorted(OVERCOMMITTED))
    def test_same_plan_as_eager_ladder(self, rung):
        config = PlannerConfig(slack_slots=0, plan_cache=False)
        lazy, _ = plan_with(FlowTimePlanner(config), OVERCOMMITTED[rung])
        eager, counters = plan_with(EagerPlanner(config), OVERCOMMITTED[rung])
        assert counters["lp.solve.tag.relax"] == 2
        assert_same_plan(lazy, eager)
