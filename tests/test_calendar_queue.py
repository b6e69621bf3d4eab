"""Edge-case tests for the calendar-queue agenda (repro.sim.engine).

The engine replaced its heapq agenda with a calendar queue: dict buckets
of same-timestamp cohorts and an integer heap over the distinct
timestamps.  These tests pin the edge cases by behaviour, reading no
agenda internals — far-future timers, urgent ordering, cohort FIFO —
and differential tests replay the same schedules through the *old* heap
ordering (kept here as a reference implementation) asserting the pop
order is identical, under run(), sliced run(until=...) and step() alike.
"""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.engine import _Call
from strategies import op_trees

#: The old agenda's packed-key layout, kept as the ordering oracle:
#: normal events carry the high bit, urgent events do not, so urgent
#: sorts first at equal timestamps; low bits hold the FIFO sequence.
NORMAL_KEY = 1 << 62


#: Far-future delays: past 2 ms of simulated time, longer than any
#: per-hop or per-packet delay in the model (watchdog/RTO territory).
FAR = 2_097_163
FARTHER = 4_194_309


class TestOverflowRung:
    """Test names kept from the agenda that parked timers past 1 << 21 ns
    (2_097_152) on an overflow rung.  The rung is gone; both tests now pin
    by behaviour that timers on either side of that old boundary fire on
    time, in order with near work."""

    def test_far_future_event_demoted_to_rung(self, sim):
        """Near and far timers, scheduled out of order, fire sorted."""
        fired = []
        for delay in (FARTHER, 100, FAR, 6 * FAR + 9):
            sim.timeout(delay).add_callback(
                lambda ev: fired.append(sim.now))
        assert sim.peek() == 100
        sim.run()
        assert fired == [100, FAR, FARTHER, 6 * FAR + 9]
        assert sim.now == 6 * FAR + 9

    def test_near_future_event_stays_in_buckets(self, sim):
        """A timer just under the old boundary fires on time, between
        near work and a timer just past it."""
        fired = []
        for delay in (FAR, (1 << 21) - 1, 100):
            sim.timeout(delay).add_callback(
                lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [100, (1 << 21) - 1, FAR]
        assert sim.peek() is None


class TestFarTimers:
    def test_far_timer_fires_after_near_work_drains(self, sim):
        fired = []
        sim.call_at(FAR + 500, lambda: fired.append(sim.now))
        sim.timeout(100).add_callback(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [100, FAR + 500]
        assert sim.now == FAR + 500
        assert sim.peek() is None

    def test_peek_returns_far_head(self, sim):
        sim.call_at(FARTHER, lambda: None)
        sim.call_at(FAR + 7, lambda: None)
        assert sim.peek() == FAR + 7

    def test_fifo_at_one_far_timestamp(self, sim):
        """Entries of every kind at one far timestamp fire in scheduling
        order."""
        fired = []
        for tag in range(4):
            sim.call_at(FAR + 40, lambda t=tag: fired.append(t))
            sim.timeout(FAR + 40).add_callback(
                lambda ev, t=tag: fired.append(("timeout", t)))
        sim.run()
        assert fired == [0, ("timeout", 0), 1, ("timeout", 1),
                         2, ("timeout", 2), 3, ("timeout", 3)]

    def test_far_timer_then_near_and_far_again(self, sim):
        """After a far timer fires, new near and far work still orders."""
        fired = []
        sim.call_at(3 * FAR, lambda: fired.append(sim.now))
        sim.run()
        sim.timeout(FAR).add_callback(lambda ev: fired.append(sim.now))
        sim.timeout(10).add_callback(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [3 * FAR, 3 * FAR + 10, 4 * FAR]

    def test_run_until_across_idle_gap_then_schedule(self, sim):
        """run(until) may fling the clock far ahead with an empty agenda;
        scheduling afterwards must still order correctly."""
        base = 5 * FAR
        assert sim.run(until=base) == base
        fired = []
        sim.timeout(FAR + 10).add_callback(lambda ev: fired.append(sim.now))
        sim.timeout(10).add_callback(lambda ev: fired.append(sim.now))
        assert sim.peek() == base + 10
        sim.run(until=base + FAR)
        assert fired == [base + 10]
        sim.run()
        assert fired == [base + 10, base + FAR + 10]

    def test_interleaved_near_and_far_rounds(self, sim):
        """Alternate near/far work across several far hops."""
        fired = []

        def ping(round_no):
            if round_no >= 4:
                return
            fired.append((round_no, sim.now))
            sim.call_in(FAR, lambda: ping(round_no + 1))
            sim.call_in(5, lambda: fired.append(("near", sim.now)))

        ping(0)
        sim.run()
        rounds = [entry for entry in fired if isinstance(entry[0], int)]
        assert rounds == [(r, r * FAR) for r in range(4)]
        assert [t for tag, t in fired if tag == "near"] == [
            r * FAR + 5 for r in range(4)]


class TestUrgentOrdering:
    def test_urgent_sorts_before_normal_at_same_timestamp(self, sim):
        """An urgent event scheduled *after* a normal one at the same
        instant still runs first (the old heap's key layout)."""
        order = []
        sim._carrier(True, None, lambda ev: order.append("normal"))
        sim._carrier(True, None, lambda ev: order.append("urgent"),
                     urgent=True)
        sim.run()
        assert order == ["urgent", "normal"]

    def test_urgent_fifo_among_themselves(self, sim):
        order = []
        for tag in range(3):
            sim._carrier(True, None, lambda ev, t=tag: order.append(t),
                         urgent=True)
        sim.run()
        assert order == [0, 1, 2]

    def test_interrupt_preempts_same_tick_resume(self, sim):
        """Process.interrupt delivers via the urgent path: the
        interrupted process resumes before other work at that instant."""
        order = []

        def sleeper():
            try:
                yield sim.timeout(1000)
                order.append("slept")
            except Exception:
                order.append("interrupted")

        proc = sim.process(sleeper())

        def poker():
            yield sim.timeout(50)
            sim.call_at(50, lambda: order.append("same-tick"))
            proc.interrupt("wake")

        sim.process(poker())
        sim.run()
        assert order == ["interrupted", "same-tick"]

    def test_far_future_urgent_runs_before_normal(self, sim):
        """An urgent entry far ahead, scheduled after a normal one at the
        same instant, still runs first."""
        order = []
        sim._schedule(FAR + 30, _Call(lambda: order.append("normal")))
        sim._schedule_urgent(FAR + 30, _Call(lambda: order.append("urgent")))
        sim.run()
        assert order == ["urgent", "normal"]
        assert sim.now == FAR + 30


class TestCohortFifo:
    def test_interleaved_call_at_timeout_succeed_fifo(self, sim):
        """Mixed entry kinds at one timestamp fire in scheduling order."""
        order = []
        sim.call_at(50, lambda: order.append("call-1"))
        sim.timeout(50).add_callback(lambda ev: order.append("timeout-1"))
        event = sim.event()
        sim.call_at(50, lambda: event.succeed())
        event.add_callback(lambda ev: order.append("succeed"))
        sim.timeout(50).add_callback(lambda ev: order.append("timeout-2"))
        sim.call_at(50, lambda: order.append("call-2"))
        sim.run()
        # The succeed() happens *during* the t=50 drain, so its event
        # joins the tail of the open cohort — exactly the old heap's
        # behaviour (its sequence number was drawn at trigger time).
        assert order == ["call-1", "timeout-1", "timeout-2", "call-2",
                         "succeed"]

    def test_same_instant_appends_drain_in_same_pass(self, sim):
        """Zero-delay chains scheduled mid-drain run at the same now."""
        order = []

        def chain(depth):
            order.append(depth)
            if depth < 5:
                sim.call_in(0, lambda: chain(depth + 1))

        sim.call_at(10, lambda: chain(0))
        sim.run()
        assert order == [0, 1, 2, 3, 4, 5]
        assert sim.now == 10

    def test_step_matches_run_order(self):
        """Single-stepping must visit events in exactly run() order."""
        def build(record):
            sim = Simulator()
            for tag in range(3):
                sim.call_at(20, lambda t=tag: record.append(("a", t)))
            sim.call_at(10, lambda: record.append(("b", 0)))
            sim.timeout(20).add_callback(lambda ev: record.append(("c", 0)))
            sim._carrier(True, None, lambda ev: record.append(("u", 0)),
                         urgent=True)
            return sim

        via_run = []
        build(via_run).run()
        via_step = []
        stepper = build(via_step)
        while stepper.peek() is not None:
            stepper.step()
        assert via_step == via_run


class _HeapReference:
    """The pre-calendar-queue agenda, kept as the ordering oracle.

    Reimplements the old engine's contract: a single heap of
    ``(time, NORMAL_KEY-packed key, label)`` entries with a global
    sequence counter drawn at scheduling time.
    """

    def __init__(self):
        import heapq
        self._heapq = heapq
        self.heap = []
        self.seq = 0
        self.now = 0

    def schedule(self, time, label, urgent=False):
        key = (0 if urgent else NORMAL_KEY) | self.seq
        self.seq += 1
        self._heapq.heappush(self.heap, (time, key, label))

    def drain(self, on_pop):
        while self.heap:
            time, _key, label = self._heapq.heappop(self.heap)
            self.now = time
            on_pop(label)


def _engine_order(spec, drive):
    """Arm ``spec`` on a fresh engine, ``drive`` it, return the pop order.

    ``spec`` is a forest of ``(delay, kind, children, node_id)`` nodes
    (kinds as in :func:`strategies.op_trees`); children are armed
    relative to the moment their parent is *processed*, which is what
    makes the engine and the reference genuinely diverge if cohort
    handling reorders anything.
    """
    sim = Simulator()
    order = []

    def arm(node):
        delay, kind, children, node_id = node

        def fire():
            order.append(node_id)
            for child in children:
                arm(child)

        if kind == "timeout":
            sim.timeout(delay).add_callback(lambda _ev: fire())
        elif kind == "urgent":
            sim._schedule_urgent(sim.now + delay, _Call(fire))
        else:
            sim._schedule(sim.now + delay, _Call(fire))

    for node in spec:
        arm(node)
    drive(sim)
    assert sim.peek() is None
    return order


def _reference_order(spec):
    """The pop order of ``spec`` through :class:`_HeapReference`."""
    ref = _HeapReference()
    order = []

    def arm(node):
        delay, kind, children, node_id = node

        def fire():
            order.append(node_id)
            for child in children:
                arm(child)

        ref.schedule(ref.now + delay, fire, urgent=kind == "urgent")

    for node in spec:
        arm(node)
    ref.drain(lambda fire: fire())
    return order


def _count(spec):
    return sum(1 + _count(node[2]) for node in spec)


def _run(sim):
    sim.run()


def _step(sim):
    while sim.peek() is not None:
        sim.step()


class TestDifferentialVsHeap:
    """Randomized schedules through both agendas must pop identically."""

    DELAY_CHOICES = (0, 0, 0, 1, 1, 3, 7, 40, 40, 1000, FAR, FARTHER)

    @pytest.mark.parametrize("seed", [7, 1989, 20260808])
    def test_identical_pop_order(self, seed):
        rng = random.Random(seed)
        spec = self._random_spec(rng, breadth=40, max_children=3, depth=3)
        engine_order = _engine_order(spec, _run)
        assert engine_order == _reference_order(spec)
        assert len(engine_order) == _count(spec)

    def _random_spec(self, rng, breadth, max_children, depth):
        """A forest of ``(delay, kind, children, node_id)`` op trees."""
        counter = [0]

        def node(level):
            counter[0] += 1
            delay = rng.choice(self.DELAY_CHOICES)
            kind = "urgent" if rng.random() < 0.15 else "call"
            children = []
            if level < depth:
                for _ in range(rng.randrange(max_children + 1)):
                    children.append(node(level + 1))
            return (delay, kind, children, counter[0])

        return [node(0) for _ in range(breadth)]


def _numbered(forest):
    """Give every generated ``(delay, kind, children)`` op a node id."""
    counter = itertools.count()

    def walk(op):
        delay, kind, children = op
        return (delay, kind, [walk(child) for child in children],
                next(counter))

    return [walk(op) for op in forest]


class TestDifferentialHypothesis:
    """Generated op trees, mixing ``_Call`` entries with free-list
    Timeouts, pop in the reference order whether the engine is driven by
    one run(), by run(until=...) slices, or by step()."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(forest=op_trees(), slice_ns=st.integers(1, 3_000_000))
    # Shrunk from a run against an engine whose free-list hit path sent
    # zero-delay Timeouts to a fresh bucket instead of the open cohort:
    # a recycled Timeout at the current instant must still fire before
    # a call scheduled after it at that instant.
    @example(forest=[(0, "timeout", ()),
                     (0, "call", ((0, "timeout", ()), (0, "call", ())))],
             slice_ns=1)
    def test_run_slices_and_step_match_reference(self, forest, slice_ns):
        spec = _numbered(forest)
        expected = _reference_order(spec)
        assert len(expected) == _count(spec)

        def run_in_slices(sim):
            # At least the next cohort per slice, so idle gaps of up to
            # 10 ms cost one slice, not millions.
            while sim.peek() is not None:
                sim.run(until=max(sim.now + slice_ns, sim.peek()))

        assert _engine_order(spec, _run) == expected
        assert _engine_order(spec, run_in_slices) == expected
        assert _engine_order(spec, _step) == expected
