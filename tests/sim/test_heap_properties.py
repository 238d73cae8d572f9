"""Heap-ordering properties of the optimized event kernel (hypothesis).

Every heap entry has the one shape ``(time, seq, fn, arg)``, but five
scheduling APIs push it: ``call_later``/``call_at`` (``fn`` with the
no-argument sentinel), ``call_later1``/``call_at1`` (``fn`` with its
argument), and ``Timeout`` and ``Event.succeed`` (``Event._run_callbacks``
with the event). Determinism rests on two heap invariants that must
hold *across every scheduling API*, not just the ones
``tests/sim/test_properties.py`` exercises:

* **FIFO within a tie** — entries scheduled at the same time fire in
  program order, regardless of which scheduling API created them;
* **monotonic clock** — ``now`` never decreases, even when callbacks
  schedule further work mid-run and generation-counter cancellation
  (the kernel's cancel idiom, see ``TcpConnection._arm_timer``) leaves
  stale entries in the heap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

#: A small palette of delays so draws collide and force heap ties.
TIE_DELAYS = (0.0, 0.25, 0.5, 1.0)

#: The scheduling APIs under test. Each schedules "append marker to
#: ``fired``" its own way.
ENTRY_KINDS = ("timeout", "call_later", "call_later1", "call_at", "call_at1",
               "event")


def _schedule(sim, kind, delay, fired, marker):
    if kind == "timeout":
        sim.timeout(delay, value=marker).add_callback(
            lambda e: fired.append(e.value)
        )
    elif kind == "call_later":
        sim.call_later(delay, lambda m=marker: fired.append(m))
    elif kind == "call_later1":
        sim.call_later1(delay, fired.append, marker)
    elif kind == "call_at":
        sim.call_at(sim.now + delay, lambda m=marker: fired.append(m))
    elif kind == "call_at1":
        sim.call_at1(sim.now + delay, fired.append, marker)
    elif kind == "event":
        event = sim.event()
        event.add_callback(lambda e: fired.append(e.value))
        if delay == 0.0:
            event.succeed(marker)
        else:
            sim.call_later(delay, lambda e=event, m=marker: e.succeed(m))
    else:  # pragma: no cover - guards against palette drift
        raise AssertionError(kind)


schedules = st.lists(
    st.tuples(st.sampled_from(ENTRY_KINDS), st.sampled_from(TIE_DELAYS)),
    min_size=1,
    max_size=40,
)


class TestSameTimeFifo:
    @given(ops=schedules)
    @settings(max_examples=100, deadline=None)
    def test_ties_fire_in_program_order_across_entry_kinds(self, ops):
        """Same time ⇒ program order, whatever the scheduling API.

        Deferred ``event`` entries re-push at fire time, which lands
        them *after* direct pushes at the same instant — so the FIFO
        claim is checked per delay bucket within each push generation
        (direct pushes vs. succeed-at-fire-time pushes) rather than
        across the whole timeline.
        """
        sim = Simulator()
        fired = []
        for index, (kind, delay) in enumerate(ops):
            deferred = kind == "event" and delay > 0.0
            _schedule(sim, kind, delay, fired, (delay, deferred, index))
        sim.run()
        assert len(fired) == len(ops)
        for delay in TIE_DELAYS:
            for deferred in (False, True):
                indices = [
                    i for d, late, i in fired if d == delay and late == deferred
                ]
                assert indices == sorted(indices)

    @given(ops=schedules)
    @settings(max_examples=50, deadline=None)
    def test_one_push_per_schedule_call(self, ops):
        """Every scheduling call costs exactly one heap push up front.

        The seq counter is the kernel's push odometer; lightweight
        entries must not silently double-push (that would perturb
        tie-breaking for every later entry).
        """
        sim = Simulator()
        fired = []
        for index, (kind, delay) in enumerate(ops):
            _schedule(sim, kind, delay, fired, index)
        assert sim._seq == len(ops)
        assert len(sim._heap) == len(ops)
        # Deferred events push once more when succeed() runs mid-run.
        deferred = sum(1 for kind, d in ops if kind == "event" and d > 0.0)
        sim.run()
        assert sim._seq == len(ops) + deferred


@st.composite
def interleavings(draw):
    """A program of schedule/cancel/nest ops driven from callbacks."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(("schedule", "cancel", "nest")),
                st.sampled_from(TIE_DELAYS),
            ),
            min_size=1,
            max_size=30,
        )
    )


class TestMonotonicNow:
    @given(ops=interleavings())
    @settings(max_examples=100, deadline=None)
    def test_now_is_monotonic_under_schedule_cancel_interleavings(self, ops):
        """``now`` never decreases while timers are armed, re-armed and
        cancelled via the generation-counter idiom mid-run."""
        sim = Simulator()
        observed = []
        state = {"generation": 0}

        def fire(generation):
            observed.append(sim.now)
            if generation != state["generation"]:
                return  # cancelled: stale generation no-ops

        for kind, delay in ops:
            if kind == "schedule":
                sim.call_at1(sim.now + delay, fire, state["generation"])
            elif kind == "cancel":
                # The kernel has no heap removal: cancellation bumps the
                # generation so armed timers no-op, exactly like TCP's
                # RTO/delayed-ACK timers.
                state["generation"] += 1
            else:  # nest: a callback that schedules more work when run
                sim.call_later1(
                    delay,
                    lambda d: sim.call_later1(
                        d, lambda _: observed.append(sim.now), None
                    ),
                    delay,
                )
        sim.run()
        assert observed == sorted(observed)
        assert all(t >= 0.0 for t in observed)

    @given(ops=interleavings())
    @settings(max_examples=50, deadline=None)
    def test_step_matches_run(self, ops):
        """Stepping the heap one entry at a time visits the same fire
        times, in the same order, as ``run()`` (whose loop is a
        hand-inlined copy of ``step``)."""

        def build(sim, log):
            for index, (kind, delay) in enumerate(ops):
                if kind == "cancel":
                    continue
                sim.call_later1(delay, lambda m: log.append((sim.now, m)), index)

        run_sim, run_log = Simulator(), []
        build(run_sim, run_log)
        run_sim.run()

        step_sim, step_log = Simulator(), []
        build(step_sim, step_log)
        previous = -1.0
        while step_sim.peek() != float("inf"):
            step_sim.step()
            assert step_sim.now >= previous
            previous = step_sim.now
        assert step_log == run_log
