"""Unit tests for named seeded RNG streams."""

from functools import partial

from repro.sim import RngStreams
from repro.sim.random import DRAW_CHUNK, buffered_draws


class TestRngStreams:
    def test_same_name_returns_same_generator(self):
        streams = RngStreams(seed=1)
        assert streams.get("x") is streams.get("x")

    def test_same_seed_reproduces_draws(self):
        a = RngStreams(seed=42).get("jitter").random(10)
        b = RngStreams(seed=42).get("jitter").random(10)
        assert (a == b).all()

    def test_different_names_are_independent(self):
        streams = RngStreams(seed=42)
        a = streams.get("a").random(10)
        b = streams.get("b").random(10)
        assert (a != b).any()

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).get("x").random(10)
        b = RngStreams(seed=2).get("x").random(10)
        assert (a != b).any()

    def test_draw_order_isolation(self):
        """Extra draws on one stream do not perturb another stream."""
        one = RngStreams(seed=9)
        one.get("noise").random(1000)  # extra activity
        polluted = one.get("signal").random(5)

        clean = RngStreams(seed=9).get("signal").random(5)
        assert (polluted == clean).all()

    def test_fork_is_deterministic_and_distinct(self):
        base = RngStreams(seed=3)
        fork_a = base.fork("trial-1").get("x").random(5)
        fork_a_again = RngStreams(seed=3).fork("trial-1").get("x").random(5)
        fork_b = RngStreams(seed=3).fork("trial-2").get("x").random(5)
        assert (fork_a == fork_a_again).all()
        assert (fork_a != fork_b).any()


class TestBufferedDraws:
    """Buffered draws are the scalar draws, across chunk boundaries."""

    N = 2 * DRAW_CHUNK + 7

    def test_random_matches_scalar_calls(self):
        scalar = RngStreams(seed=4).get("medium-loss")
        draw = buffered_draws(RngStreams(seed=4).get("medium-loss").random)
        assert [draw() for _ in range(self.N)] == [
            scalar.random() for _ in range(self.N)
        ]

    def test_uniform_matches_scalar_calls(self):
        scalar = RngStreams(seed=4).get("medium-backoff")
        rng = RngStreams(seed=4).get("medium-backoff")
        draw = buffered_draws(partial(rng.uniform, 0.0, 0.0004))
        assert [draw() for _ in range(self.N)] == [
            scalar.uniform(0.0, 0.0004) for _ in range(self.N)
        ]
