"""Tests for the FlowTime planner (slack, window repair, degradation)."""

import pytest

from repro.core.flowtime import FlowTimePlanner, JobDemand, PlannerConfig
from repro.core.replan import PlanRequest
from repro.model.cluster import ClusterCapacity
from repro.model.resources import CPU, MEM, ResourceVector


@pytest.fixture
def cluster() -> ClusterCapacity:
    return ClusterCapacity.uniform(cpu=10, mem=20)


def make_plan(planner, now_slot, demands, capacity):
    request = PlanRequest(
        now_slot=now_slot, demands=tuple(demands), capacity=capacity
    )
    return planner.plan(request)


def demand(
    job_id="j", release=0, deadline=10, units=6, cores=1, mem=2, parallel=4
) -> JobDemand:
    return JobDemand(
        job_id=job_id,
        release_slot=release,
        deadline_slot=deadline,
        units=units,
        unit_demand=ResourceVector({CPU: cores, MEM: mem}),
        max_parallel=parallel,
    )


class TestPlannerConfig:
    def test_defaults(self):
        config = PlannerConfig()
        assert config.slack_slots == 6
        assert config.formulation == "coupled"

    def test_validation(self):
        with pytest.raises(ValueError):
            PlannerConfig(slack_slots=-1)
        with pytest.raises(ValueError):
            PlannerConfig(horizon_slots=0)


class TestBasicPlanning:
    def test_empty_demands_empty_plan(self, cluster):
        plan = make_plan(FlowTimePlanner(), 5, [], cluster)
        assert plan.load(5).is_zero()
        assert not plan.degraded

    def test_demand_fully_planned(self, cluster):
        planner = FlowTimePlanner(PlannerConfig(slack_slots=0))
        plan = make_plan(planner, 0, [demand(units=6, deadline=6)], cluster)
        assert plan.total_units("j") == 6
        assert not plan.degraded

    def test_grants_within_window(self, cluster):
        planner = FlowTimePlanner(PlannerConfig(slack_slots=0))
        plan = make_plan(planner, 0, [demand(release=2, deadline=6, units=4)], cluster)
        grant = plan.grants["j"]
        assert grant[:2].sum() == 0
        assert grant[:6].sum() == 4

    def test_minimax_recorded(self, cluster):
        plan = make_plan(FlowTimePlanner(), 0, [demand()], cluster)
        assert 0.0 < plan.minimax <= 1.0

    def test_plan_is_flat(self, cluster):
        # 8 units over 4 slots with slack 0: expect 2/slot everywhere.
        planner = FlowTimePlanner(PlannerConfig(slack_slots=0))
        plan = make_plan(planner, 
            0, [demand(units=8, deadline=4, parallel=8)], cluster
        )
        assert list(plan.grants["j"][:4]) == [2, 2, 2, 2]


class TestDeadlineSlack:
    def test_slack_pulls_work_before_deadline(self, cluster):
        planner = FlowTimePlanner(PlannerConfig(slack_slots=3))
        plan = make_plan(planner, 0, [demand(units=4, deadline=10, parallel=4)], cluster)
        # Nothing may be planned in the slack slots [7, 10).
        assert plan.grants["j"][7:].sum() == 0
        assert plan.total_units("j") == 4

    def test_slack_skipped_when_window_too_tight(self, cluster):
        # units=8, parallel=2 -> needs 4 slots; window is 5 slots so a
        # 3-slot slack would make it infeasible and must be skipped.
        planner = FlowTimePlanner(PlannerConfig(slack_slots=3))
        plan = make_plan(planner, 0, [demand(units=8, deadline=5, parallel=2)], cluster)
        assert plan.total_units("j") == 8
        assert not plan.degraded


class TestWindowRepair:
    def test_overdue_job_gets_extended_window(self, cluster):
        # Deadline already passed at planning time.
        planner = FlowTimePlanner()
        plan = make_plan(planner, 20, [demand(release=0, deadline=10, units=4)], cluster)
        assert plan.total_units("j") == 4
        assert not plan.degraded

    def test_window_smaller_than_work_is_extended(self, cluster):
        # 10 units, parallelism 1, window 3 slots: must extend to 10 slots.
        planner = FlowTimePlanner(PlannerConfig(slack_slots=0))
        plan = make_plan(planner, 0, [demand(units=10, deadline=3, parallel=1)], cluster)
        assert plan.total_units("j") == 10
        assert plan.horizon >= 10

    def test_joint_overload_degrades_to_greedy(self, cluster):
        # Total demand impossible even with doubled horizon: every job wants
        # the full cluster for the whole (extended) window.
        demands = [
            demand(job_id=f"j{i}", units=40, deadline=2, cores=10, mem=20, parallel=4)
            for i in range(4)
        ]
        plan = make_plan(FlowTimePlanner(PlannerConfig(slack_slots=0)), 0, demands, cluster)
        assert plan.degraded
        # Greedy still fills what fits: exactly one 10-core unit per slot.
        total = sum(plan.total_units(f"j{i}") for i in range(4))
        assert total == plan.horizon  # one unit per slot saturates cpu


class TestHorizonCap:
    def test_horizon_slots_clamps(self, cluster):
        planner = FlowTimePlanner(
            PlannerConfig(slack_slots=0, horizon_slots=5)
        )
        plan = make_plan(planner, 0, [demand(units=4, deadline=50)], cluster)
        assert plan.horizon == 5
        assert plan.total_units("j") == 4


class TestPaperFormulation:
    def test_paper_mode_plans_executable_grants(self, cluster):
        planner = FlowTimePlanner(
            PlannerConfig(slack_slots=0, formulation="paper")
        )
        plan = make_plan(planner, 0, [demand(units=6, deadline=6, parallel=3)], cluster)
        # Paper mode converts per-resource allocations to task units; the
        # total may fall short only when resources decouple, which cannot
        # happen for a single job on an idle cluster.
        assert plan.total_units("j") == 6

    def test_capacity_respected_in_every_slot(self, cluster):
        demands = [
            demand(job_id=f"j{i}", units=12, deadline=6, cores=2, mem=4, parallel=6)
            for i in range(3)
        ]
        plan = make_plan(FlowTimePlanner(PlannerConfig(slack_slots=0)), 0, demands, cluster)
        for slot in range(plan.horizon):
            load = plan.load(slot)
            assert load.fits_in(cluster.at(slot))


class TestPlanRequestSignature:
    def test_fresh_planners_give_identical_plans(self, cluster):
        first = make_plan(
            FlowTimePlanner(PlannerConfig(slack_slots=0)),
            0,
            [demand(units=6, deadline=6)],
            cluster,
        )
        assert first.total_units("j") == 6
        second = make_plan(
            FlowTimePlanner(PlannerConfig(slack_slots=0)),
            0,
            [demand(units=6, deadline=6)],
            cluster,
        )
        assert (first.grants["j"] == second.grants["j"]).all()

    def test_positional_call_is_a_type_error(self, cluster):
        # The pre-PlanRequest signature plan(now_slot, demands, capacity)
        # is gone: plan() takes a single PlanRequest.
        with pytest.raises(TypeError):
            FlowTimePlanner().plan(0, [demand()], cluster)

    def test_cached_plan_identical_to_cold_plan(self, cluster):
        # A contended multi-job plan answered from the plan cache matches a
        # cold solve by a fresh planner field for field, not just in totals.
        demands = [
            demand(job_id=f"j{i}", units=8, deadline=8 + 2 * i, cores=2, mem=4)
            for i in range(4)
        ]
        planner = FlowTimePlanner()
        make_plan(planner, 3, demands, cluster)
        cached = make_plan(planner, 3, demands, cluster)
        assert planner.plan_cache.hits == 1
        cold = make_plan(FlowTimePlanner(), 3, demands, cluster)
        assert cached.origin_slot == cold.origin_slot
        assert cached.horizon == cold.horizon
        assert cached.degraded == cold.degraded
        assert set(cached.grants) == set(cold.grants)
        for job_id, grant in cold.grants.items():
            assert (cached.grants[job_id] == grant).all(), job_id

    def test_equal_requests_share_the_plan_cache(self, cluster):
        planner = FlowTimePlanner()
        demands = [demand(units=6, deadline=6)]
        make_plan(planner, 0, demands, cluster)
        assert planner.plan_cache.misses == 1
        make_plan(planner, 0, list(demands), cluster)
        assert planner.plan_cache.hits == 1
        assert planner.plan_cache.misses == 1
