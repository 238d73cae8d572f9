"""Unit tests for the dynamic scheduler's schedule construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bandwidth_model import calibrate
from repro.core.scheduler import DynamicScheduler
from repro.errors import SchedulingError
from repro.experiments.scenarios import ScenarioConfig, build_scenario, client_ip
from repro.net.addr import Endpoint
from repro.net.packet import Packet


def make_proxy_with_queues(pending: dict[str, int], n_clients=10):
    scenario = build_scenario(ScenarioConfig(n_clients=n_clients, seed=1))
    for ip, nbytes in pending.items():
        queue = scenario.proxy.queue_for(ip)
        remaining = nbytes
        while remaining > 0:
            size = min(700, remaining)
            queue.push_udp(
                Packet(
                    "udp", Endpoint("10.0.2.1", 20000), Endpoint(ip, 5004),
                    payload_size=size,
                )
            )
            remaining -= size
    return scenario


def make_scheduler(scenario, **kwargs):
    model = calibrate(scenario.medium)
    return DynamicScheduler(scenario.proxy, model, **kwargs)


class TestFixedSchedules:
    def test_empty_queues_give_empty_schedule(self):
        scenario = make_proxy_with_queues({})
        scheduler = make_scheduler(scenario, interval_s=0.5)
        schedule = scheduler.build_schedule(srp=0.0)
        assert schedule.slots == ()
        assert schedule.interval == pytest.approx(0.5)

    def test_proportional_shares(self):
        """Paper: each client gets a fraction of the interval
        proportional to its queue depth."""
        scenario = make_proxy_with_queues(
            {client_ip(0): 30_000, client_ip(1): 10_000}
        )
        scheduler = make_scheduler(scenario, interval_s=0.1)
        schedule = scheduler.build_schedule(srp=0.0)
        slots = {slot.client_ip: slot for slot in schedule.slots}
        ratio = (
            slots[client_ip(0)].bytes_allotted
            / slots[client_ip(1)].bytes_allotted
        )
        assert ratio == pytest.approx(3.0, rel=0.25)

    def test_light_load_fully_allotted(self):
        scenario = make_proxy_with_queues({client_ip(0): 2000})
        scheduler = make_scheduler(scenario, interval_s=0.5)
        schedule = scheduler.build_schedule(srp=0.0)
        assert schedule.slots[0].bytes_allotted == 2000

    def test_overload_respects_interval(self):
        scenario = make_proxy_with_queues(
            {client_ip(i): 200_000 for i in range(10)}
        )
        scheduler = make_scheduler(scenario, interval_s=0.1)
        schedule = scheduler.build_schedule(srp=0.0)
        assert schedule.slots[-1].end <= schedule.next_srp
        model = scheduler.planner.cost_model
        total_cost = sum(
            model.burst_cost(slot.bytes_allotted) for slot in schedule.slots
        )
        assert total_cost < 0.1

    def test_interval_too_small_raises(self):
        scenario = make_proxy_with_queues({client_ip(0): 1000})
        with pytest.raises(SchedulingError):
            make_scheduler(scenario, interval_s=0.002)

    def test_bad_interval_bounds_rejected(self):
        scenario = make_proxy_with_queues({})
        with pytest.raises(SchedulingError):
            make_scheduler(scenario, interval_s=-0.5)


class TestVariableSchedules:
    def test_light_load_clamps_to_minimum(self):
        scenario = make_proxy_with_queues({client_ip(0): 1000})
        scheduler = make_scheduler(scenario, interval_s=None)
        schedule = scheduler.build_schedule(srp=0.0)
        assert schedule.interval == pytest.approx(0.1)

    def test_interval_tracks_queue_drain_time(self):
        scenario = make_proxy_with_queues(
            {client_ip(i): 30_000 for i in range(5)}
        )
        scheduler = make_scheduler(scenario, interval_s=None)
        schedule = scheduler.build_schedule(srp=0.0)
        assert 0.1 < schedule.interval < 0.5
        # every queue fully allotted
        for slot in schedule.slots:
            assert slot.bytes_allotted == 30_000

    def test_heavy_load_clamps_to_maximum(self):
        scenario = make_proxy_with_queues(
            {client_ip(i): 500_000 for i in range(10)}
        )
        scheduler = make_scheduler(scenario, interval_s=None)
        schedule = scheduler.build_schedule(srp=0.0)
        assert schedule.interval == pytest.approx(0.5)
        # degraded to proportional shares: not everything fits
        assert sum(s.bytes_allotted for s in schedule.slots) < 5_000_000


class TestScheduleProperties:
    @given(
        depths=st.lists(
            st.integers(min_value=0, max_value=100_000), min_size=1, max_size=8
        ),
        fixed=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_slots_never_overlap_and_fit_interval(self, depths, fixed):
        pending = {
            client_ip(i): depth
            for i, depth in enumerate(depths)
            if depth > 0
        }
        scenario = make_proxy_with_queues(pending, n_clients=max(8, len(depths)))
        scheduler = make_scheduler(
            scenario, interval_s=0.5 if fixed else None
        )
        schedule = scheduler.build_schedule(srp=3.0)
        previous_end = 3.0
        for slot in schedule.slots:
            assert slot.rendezvous >= previous_end - 1e-9
            previous_end = slot.end
        assert previous_end <= schedule.next_srp + 1e-9

    @given(
        depths=st.lists(
            st.integers(min_value=1, max_value=50_000), min_size=1, max_size=8
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_allotments_never_exceed_queue_depth(self, depths):
        pending = {client_ip(i): d for i, d in enumerate(depths)}
        scenario = make_proxy_with_queues(pending, n_clients=max(8, len(depths)))
        scheduler = make_scheduler(scenario, interval_s=0.5)
        schedule = scheduler.build_schedule(srp=0.0)
        for slot in schedule.slots:
            # udp packets are 700B so queue depth can exceed the ask
            assert slot.bytes_allotted <= pending[slot.client_ip]

    def test_rotation_changes_burst_order(self):
        scenario = make_proxy_with_queues(
            {client_ip(i): 5000 for i in range(4)}
        )
        scheduler = make_scheduler(scenario, interval_s=0.5)
        first = scheduler.build_schedule(srp=0.0)
        second = scheduler.build_schedule(srp=0.5)
        assert [s.client_ip for s in first.slots] != [
            s.client_ip for s in second.slots
        ]
        assert {s.client_ip for s in first.slots} == {
            s.client_ip for s in second.slots
        }
