"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@st.composite
def delay_lists(draw):
    return draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )


class TestEventOrderingProperties:
    @given(delays=delay_lists())
    @settings(max_examples=100, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fire_times = []
        for delay in delays:
            sim.timeout(delay).add_callback(lambda e: fire_times.append(sim.now))
        sim.run()
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)

    @given(delays=delay_lists())
    @settings(max_examples=100, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []
        for delay in delays:
            sim.timeout(delay).add_callback(lambda e: observed.append(sim.now))
        previous = -1.0
        while sim.peek() != float("inf"):
            sim.step()
            assert sim.now >= previous
            previous = sim.now

    @given(delays=delay_lists())
    @settings(max_examples=50, deadline=None)
    def test_equal_delays_preserve_scheduling_order(self, delays):
        # Force ties by rounding every delay to one of 3 values.
        sim = Simulator()
        order = []
        quantized = [round(d) % 3 for d in delays]
        for index, delay in enumerate(quantized):
            sim.timeout(float(delay), value=(delay, index)).add_callback(
                lambda e: order.append(e.value)
            )
        sim.run()
        # Within each delay bucket the original scheduling order survives.
        for bucket in set(quantized):
            indices = [idx for d, idx in order if d == bucket]
            assert indices == sorted(indices)


class TestProcessProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_sequential_timeouts_accumulate(self, delays):
        sim = Simulator()
        end_time = []

        def worker():
            for delay in delays:
                yield sim.timeout(delay)
            end_time.append(sim.now)

        sim.process(worker())
        sim.run()
        assert abs(end_time[0] - sum(delays)) < 1e-9 * max(1.0, sum(delays))
