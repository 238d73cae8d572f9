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
        "import sys, repro.core.planner; print(sorted(m for m in sys.modules"
        " if m == 'asyncio' or m == 'repro.sim' or m.startswith('repro.sim.')))"
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
    """The same backlogs give the same schedule from the simulator's
    proxy queues and from the live proxy's client states."""
    scenario = build_scenario(ScenarioConfig(n_clients=len(depths), seed=1))
    scheduler = DynamicScheduler(scenario.proxy, model, interval_s=interval)
    live = AsyncProxy(AsyncProxyConfig(burst_interval_s=interval))
    live._planner = SlotPlanner(model, interval)
    for i, depth in enumerate(depths):
        ip = client_ip(i)
        scenario.proxy.queue_for(ip).push_tcp(object(), depth)
        state = _ClientState(ip, ("127.0.0.1", 9), high=1 << 30, low=0, now=0.0)
        state.bytes_pending = depth
        live._clients[ip] = state
        if silenced[i]:
            scheduler._silenced.add(ip)
            state.silenced = True

    assert scheduler.build_schedule(srp) == live._build_schedule(srp)


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
    schedule = planner.plan(2.0, backlogs).schedule
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
            plan = planner.plan(step * interval, backlogs)
            assert len(plan.schedule.slots) == capacity
            assert len(plan.deferred) == clients - capacity
            served.update(slot.client_ip for slot in plan.schedule.slots)
            longest = max([longest] + [view.deferred for view in plan.deferred])
        assert served == {backlog.key for backlog in backlogs}
        assert 0 < longest <= math.ceil(clients / capacity) - 1
