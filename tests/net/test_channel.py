"""Unit tests for the per-client Gilbert–Elliott channel model.

The load-bearing contracts: a client's state trajectory is a pure
function of ``(plan, seed, ip)`` — independent of query pattern and of
how many frames fly — and the model draws only from its own reserved
``channel:``/``channel-loss:`` streams.
"""

import pytest

from repro.errors import ConfigurationError
from repro.net.channel import (
    LOSS_STREAM_PREFIX,
    TRANSITION_STREAM_PREFIX,
    ChannelModel,
    ChannelPlan,
)
from repro.net.addr import Endpoint
from repro.net.packet import Packet
from repro.sim.random import RngStreams
from repro.units import ms

CLIENTS = ("10.0.1.2", "10.0.1.3")


def make_model(plan=None, seed=11, clients=CLIENTS, obs=None):
    return ChannelModel(
        plan if plan is not None else ChannelPlan(),
        RngStreams(seed=seed),
        clients,
        obs=obs,
    )


class TestChannelPlan:
    def test_defaults_are_valid(self):
        plan = ChannelPlan()
        assert plan.epoch_s == pytest.approx(ms(100))
        assert plan.start_good

    @pytest.mark.parametrize(
        "field", ["p_good_bad", "p_bad_good", "loss_good", "loss_bad"]
    )
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_probabilities_are_validated(self, field, value):
        with pytest.raises(ConfigurationError):
            ChannelPlan(**{field: value})

    @pytest.mark.parametrize("epoch_s", [0.0, -1.0])
    def test_epoch_must_be_positive(self, epoch_s):
        with pytest.raises(ConfigurationError):
            ChannelPlan(epoch_s=epoch_s)

    def test_spec_mirrors_the_plan(self):
        plan = ChannelPlan(p_good_bad=0.2, p_bad_good=0.6, loss_bad=0.7)
        spec = plan.spec
        assert (spec.p_good_bad, spec.p_bad_good) == (0.2, 0.6)
        assert (spec.loss_good, spec.loss_bad) == (0.0, 0.7)


def trajectory(model, ip, times):
    return tuple(model.state_good(ip, t) for t in times)


class TestDeterminism:
    #: Deep-fading plan so trajectories actually move between epochs.
    PLAN = ChannelPlan(p_good_bad=0.4, p_bad_good=0.5, epoch_s=ms(100))

    def test_state_is_pure_function_of_plan_seed_ip(self):
        times = [i * 0.1 for i in range(40)]
        first = {
            ip: trajectory(make_model(self.PLAN), ip, times)
            for ip in CLIENTS
        }
        second = {
            ip: trajectory(make_model(self.PLAN), ip, times)
            for ip in CLIENTS
        }
        assert first == second
        # Clients evolve on independent streams — with 40 epochs at
        # these rates, identical trajectories would mean stream aliasing.
        assert first[CLIENTS[0]] != first[CLIENTS[1]]

    def test_seed_changes_the_trajectory(self):
        times = [i * 0.1 for i in range(40)]
        a = trajectory(make_model(self.PLAN, seed=1), CLIENTS[0], times)
        b = trajectory(make_model(self.PLAN, seed=2), CLIENTS[0], times)
        assert a != b

    def test_lazy_advancement_is_query_pattern_independent(self):
        """Querying every epoch vs. jumping straight to t lands on the
        same state: advancement consumes one draw per epoch, never one
        per query."""
        stepped = make_model(self.PLAN)
        jumped = make_model(self.PLAN)
        for i in range(1, 41):
            stepped.state_good(CLIENTS[0], i * 0.1)
        assert jumped.state_good(CLIENTS[0], 4.0) == stepped.state_good(
            CLIENTS[0], 4.0
        )
        assert jumped.transitions <= stepped.transitions == jumped.transitions

    def test_frame_count_does_not_perturb_the_trajectory(self):
        """Loss coin flips draw from ``channel-loss:``, transitions from
        ``channel:`` — hammering one client with frames cannot move any
        state trajectory (the exclusive-stream fix, locally)."""
        plan = ChannelPlan(
            p_good_bad=0.4, p_bad_good=0.5,
            loss_good=0.5, loss_bad=0.9, epoch_s=ms(100),
        )
        quiet = make_model(plan)
        busy = make_model(plan)
        packet = Packet(
            "udp", Endpoint(CLIENTS[0], 5004), Endpoint("10.0.2.1", 80),
            payload_size=100,
        )
        times = []
        for i in range(40):
            now = i * 0.1
            for _ in range(7):
                busy.tx_blocked(now, packet)
            times.append(now)
        assert trajectory(quiet, CLIENTS[0], times) == trajectory(
            make_model(plan), CLIENTS[0], times
        )
        # Re-query the busy model's history endpoint: same final state.
        assert busy.state_good(CLIENTS[0], 3.9) == quiet.state_good(
            CLIENTS[0], 3.9
        )


class TestStreamExclusivity:
    def test_model_only_touches_reserved_streams(self):
        """Every stream the model ever materializes carries one of the
        two reserved prefixes — the global half of the exclusive-stream
        contract (nothing else uses those prefixes by construction)."""
        streams = RngStreams(seed=3)
        plan = ChannelPlan(
            p_good_bad=0.4, p_bad_good=0.5, loss_bad=0.9, epoch_s=ms(100)
        )
        model = ChannelModel(plan, streams, CLIENTS)
        packet = Packet(
            "udp", Endpoint(CLIENTS[0], 5004), Endpoint("10.0.2.1", 80),
            payload_size=100,
        )
        for i in range(30):
            model.state_good(CLIENTS[1], i * 0.1)
            model.tx_blocked(i * 0.1, packet)
            model.rx_blocked(i * 0.1, CLIENTS[1])
        assert all(
            name.startswith((TRANSITION_STREAM_PREFIX, LOSS_STREAM_PREFIX))
            for name in streams._streams
        )

    def test_lossless_plan_never_draws_loss_coins(self):
        """``loss == 0`` short-circuits before the RNG: a lossless
        channel leaves its loss streams untouched (and thus cheap)."""
        streams = RngStreams(seed=3)
        plan = ChannelPlan(
            p_good_bad=0.4, p_bad_good=0.5,
            loss_good=0.0, loss_bad=0.0, epoch_s=ms(100),
        )
        model = ChannelModel(plan, streams, CLIENTS)
        packet = Packet(
            "udp", Endpoint(CLIENTS[0], 5004), Endpoint("10.0.2.1", 80),
            payload_size=100,
        )
        for i in range(30):
            assert not model.tx_blocked(i * 0.1, packet)
            assert not model.rx_blocked(i * 0.1, CLIENTS[0])
        consumed = streams.get(f"{LOSS_STREAM_PREFIX}{CLIENTS[0]}").random()
        fresh = RngStreams(seed=3).get(
            f"{LOSS_STREAM_PREFIX}{CLIENTS[0]}"
        ).random()
        assert consumed == fresh


class TestQueries:
    def test_unmodeled_ips_are_always_good(self):
        model = make_model()
        assert model.state_good("10.0.2.1", 5.0)
        assert not model.rx_blocked(5.0, "10.0.2.1")
        packet = Packet(
            "udp", Endpoint("10.0.2.1", 80), Endpoint(CLIENTS[0], 5004),
            payload_size=100,
        )
        assert not model.tx_blocked(5.0, packet)
        assert not model.models("10.0.2.1")
        assert model.models(CLIENTS[0])

    def test_needs_at_least_one_client(self):
        with pytest.raises(ConfigurationError):
            ChannelModel(ChannelPlan(), RngStreams(seed=1), [])

    def test_always_bad_channel_blocks_frames(self):
        plan = ChannelPlan(
            p_good_bad=1.0, p_bad_good=0.0, loss_bad=1.0, epoch_s=ms(100)
        )
        model = make_model(plan)
        assert not model.state_good(CLIENTS[0], 1.0)
        assert model.rx_blocked(1.0, CLIENTS[0])
        assert model.rx_misses == 1

    def test_start_bad_initial_state(self):
        plan = ChannelPlan(p_good_bad=0.0, p_bad_good=0.0, start_good=False)
        model = make_model(plan)
        assert not model.state_good(CLIENTS[0], 0.0)
