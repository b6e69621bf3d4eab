"""Hypothesis strategies shared by the property-based tests.

:func:`op_trees` generates schedules for the engine's differential tests:
a forest of ops, each ``(delay, kind, children)``.  ``kind`` says how the
op goes on the agenda — ``"call"`` (a normal :class:`_Call`), ``"urgent"``
(an urgent :class:`_Call`) or ``"timeout"`` (``sim.timeout(delay)`` with a
callback, so processed Timeouts are recycled and later ops hit the free
list).  Children are scheduled when their parent fires.
"""

from hypothesis import strategies as st

#: Largest generated delay: about 10 ms of simulated time, well past the
#: 2 ms of any per-hop or per-packet delay in the model.
MAX_DELAY_NS = 10_000_000

#: Delays that collide often (same-instant cohorts, zero-delay appends to
#: the open cohort) mixed with arbitrary ones up to ``MAX_DELAY_NS``.
delays = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from((40, 1_000, 2_097_152, 2_097_163, 4_194_309)),
    st.integers(min_value=0, max_value=MAX_DELAY_NS),
)

#: Normal calls and timeouts dominate; urgent entries are the minority,
#: as interrupt deliveries are in the model.
kinds = st.sampled_from(("call", "timeout", "call", "timeout", "urgent"))


def op_trees(depth: int = 3, max_children: int = 3,
             max_roots: int = 12) -> st.SearchStrategy:
    """A non-empty forest of op trees at most ``depth`` levels deep."""
    level = st.tuples(delays, kinds, st.just(()))
    for _ in range(depth - 1):
        level = st.tuples(delays, kinds,
                          st.lists(level, max_size=max_children)
                          .map(tuple))
    return st.lists(level, min_size=1, max_size=max_roots)
