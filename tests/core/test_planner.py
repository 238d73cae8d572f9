"""The slot planner and its two drivers: the simulator's
DynamicScheduler and the live AsyncProxy."""

import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.core.bandwidth_model import LinearCostModel
from repro.core.planner import Backlog, SlotPlanner, fits
from repro.core.scheduler import DynamicScheduler
from repro.experiments.scenarios import ScenarioConfig, build_scenario, client_ip
from repro.obs import SimRecorder
from repro.runtime.proxy import (
    LIVE_COST_MODEL,
    AsyncProxy,
    AsyncProxyConfig,
    _ClientState,
)

#: The live_proxy benchmark's snapshot: two replies queued at 25 ms.
LIVE_PROXY_SNAPSHOT = ((24_000, 32_000), 0.025)

cost_models = st.builds(
    LinearCostModel,
    overhead_s=st.floats(min_value=0.0, max_value=0.002),
    per_byte_s=st.floats(min_value=1e-7, max_value=2e-6),
)


def test_planner_imports_neither_asyncio_nor_the_simulator():
    probe = (
        "import sys, repro.core.planner, repro.obs; print(sorted(m for m in"
        " sys.modules if m == 'asyncio' or m == 'repro.sim'"
        " or m.startswith('repro.sim.')))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        check=True, env=env,
    )
    assert done.stdout.strip() == "[]"


@given(
    depths=st.lists(
        st.integers(min_value=0, max_value=60_000), min_size=1, max_size=6
    ),
    silenced=st.lists(st.booleans(), min_size=6, max_size=6),
    interval=st.sampled_from([0.025, 0.05, 0.1, 0.5]),
    model=cost_models,
    srp=st.floats(min_value=0.0, max_value=100.0),
)
@settings(max_examples=30, deadline=None)
def test_both_drivers_plan_one_snapshot_alike(
    depths, silenced, interval, model, srp
):
    """The same backlogs and last-heard times give the same schedule
    from the simulator's proxy queues and from the live proxy's client
    states; silent clients get no slot in either."""
    scenario = build_scenario(ScenarioConfig(n_clients=len(depths), seed=1))
    scheduler = DynamicScheduler(
        scenario.proxy, model, interval_s=interval, silence_timeout_s=1.0
    )
    live = AsyncProxy(AsyncProxyConfig(burst_interval_s=interval))
    live.planner = SlotPlanner(model, interval, silence_timeout_s=1.0)
    for i, depth in enumerate(depths):
        ip = client_ip(i)
        heard_at = srp - 2.0 if silenced[i] else srp
        scenario.proxy.queue_for(ip).push_tcp(object(), depth)
        scenario.proxy.last_uplink[ip] = heard_at
        state = _ClientState(
            ip, ("127.0.0.1", 9), high=1 << 30, low=0, now=heard_at
        )
        state.bytes_pending = depth
        live._clients[ip] = state

    schedule = scheduler.build_schedule(srp)
    assert schedule == live._build_schedule(srp)
    served = {slot.client_ip for slot in schedule.slots}
    assert not {client_ip(i) for i, quiet in enumerate(silenced) if quiet} & served


@given(
    depths=st.lists(
        st.integers(min_value=1, max_value=200_000), min_size=1, max_size=300
    ),
    interval=st.sampled_from([0.025, 0.05, 0.1, 0.5, None]),
    model=cost_models,
)
@example(
    depths=list(LIVE_PROXY_SNAPSHOT[0]),
    interval=LIVE_PROXY_SNAPSHOT[1],
    model=LIVE_COST_MODEL,
)
@settings(max_examples=60, deadline=None)
def test_every_slot_ends_by_the_next_srp(depths, interval, model):
    planner = SlotPlanner(model, interval)
    backlogs = [
        Backlog(f"c{i:03d}", 0, depth) for i, depth in enumerate(depths)
    ]
    schedule = planner.plan(2.0, backlogs, {}).schedule
    assert schedule.slots
    for slot in schedule.slots:
        assert slot.end <= schedule.next_srp


def test_over_capacity_defers_each_client_at_most_n_over_k_intervals():
    """120 and 256 clients that stay backlogged at 50 ms: the interval
    holds k slots, and nobody waits more than ceil(n/k) - 1 intervals
    in a row."""
    interval = 0.05
    capacity = max(n for n in range(1, 300) if fits(LIVE_COST_MODEL, interval, n))
    for clients in (120, 256):
        planner = SlotPlanner(LIVE_COST_MODEL, interval)
        backlogs = [
            Backlog(f"lt-{i}", 0, 16_000 + 97 * i) for i in range(clients)
        ]
        longest = 0
        served = set()
        for step in range(4 * math.ceil(clients / capacity)):
            plan = planner.plan(step * interval, backlogs, {})
            assert len(plan.schedule.slots) == capacity
            assert len(plan.deferred) == clients - capacity
            served.update(slot.client_ip for slot in plan.schedule.slots)
            longest = max([longest] + [view.deferred for view in plan.deferred])
        assert served == {backlog.key for backlog in backlogs}
        assert 0 < longest <= math.ceil(clients / capacity) - 1


class TestSilence:
    """The planner judges silence from last-heard times at each SRP."""

    def planner(self, recorder=None):
        return SlotPlanner(
            LIVE_COST_MODEL, 0.1, silence_timeout_s=0.5,
            obs=recorder if recorder is not None else SimRecorder(),
        )

    def test_slot_reclaimed_at_the_first_srp_past_the_timeout(self):
        recorder = SimRecorder()
        planner = self.planner(recorder)
        backlogs = [Backlog("a", 0, 5_000), Backlog("b", 0, 5_000)]
        heard = {"a": 0.0, "b": 0.0}
        for step in range(6):  # up to 0.5 s of silence: still served
            heard["b"] = step * 0.1
            plan = planner.plan(step * 0.1, backlogs, heard)
            assert {slot.client_ip for slot in plan.schedule.slots} == {"a", "b"}
        plan = planner.plan(0.6, backlogs, heard)
        assert [slot.client_ip for slot in plan.schedule.slots] == ["b"]
        assert plan.deferred == ()  # reclaimed, not deferred
        assert planner.slots_reclaimed == 1
        [reclaim] = recorder.trace.query("scheduler.reclaim")
        assert (reclaim.time, reclaim.fields["client"]) == (0.6, "a")
        assert reclaim.fields["silent_s"] == 0.6
        planner.plan(0.7, backlogs, heard)
        assert planner.slots_reclaimed == 1  # judged once per silence

    def test_slot_restored_at_the_first_srp_after_the_client_is_heard(self):
        recorder = SimRecorder()
        planner = self.planner(recorder)
        backlogs = [Backlog("a", 0, 5_000)]
        assert not planner.plan(0.6, backlogs, {"a": 0.0}).schedule.slots
        assert not planner.plan(0.7, backlogs, {"a": 0.0}).schedule.slots
        plan = planner.plan(0.8, backlogs, {"a": 0.75})
        assert [slot.client_ip for slot in plan.schedule.slots] == ["a"]
        assert (planner.slots_reclaimed, planner.slots_restored) == (1, 1)
        [restore] = recorder.trace.query("scheduler.restore")
        assert (restore.time, restore.fields["client"]) == (0.8, "a")

    def test_a_client_never_heard_is_never_silenced(self):
        planner = self.planner()
        plan = planner.plan(100.0, [Backlog("mute", 0, 5_000)], {})
        assert [slot.client_ip for slot in plan.schedule.slots] == ["mute"]
        assert planner.slots_reclaimed == 0

    def test_forget_clears_silence(self):
        planner = self.planner()
        backlogs = [Backlog("a", 0, 5_000)]
        planner.plan(0.6, backlogs, {"a": 0.0})
        planner.forget("a")
        plan = planner.plan(0.7, backlogs, {"a": 0.7})
        assert [slot.client_ip for slot in plan.schedule.slots] == ["a"]
        assert (planner.slots_reclaimed, planner.slots_restored) == (1, 0)

    def test_channel_is_read_only_for_clients_that_may_get_a_slot(self):
        planner = self.planner()
        read = []
        planner.plan(
            1.0,
            [Backlog("idle", 0, 0), Backlog("quiet", 0, 5_000),
             Backlog("live", 0, 5_000)],
            {"quiet": 0.0, "live": 1.0},
            channel_good=lambda key: read.append(key) or True,
        )
        assert read == ["live"]
