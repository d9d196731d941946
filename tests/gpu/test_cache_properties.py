"""Property-based cache tests: the model must behave as textbook LRU."""

from collections import OrderedDict
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cache import Cache, L1Cache

LINE = 128

# Access sequences over a small address space so evictions are frequent.
accesses = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=31),  # line index
        st.booleans(),                           # is_store
    ),
    max_size=300,
)


class ReferenceLru:
    """Dead-simple LRU reference (fully associative)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.lines = OrderedDict()

    def access(self, line, is_store):
        hit = line in self.lines
        evicted_dirty = None
        if hit:
            self.lines.move_to_end(line)
            if is_store:
                self.lines[line] = True
        else:
            if len(self.lines) >= self.capacity:
                victim, dirty = self.lines.popitem(last=False)
                if dirty:
                    evicted_dirty = victim
            self.lines[line] = is_store
        return hit, evicted_dirty


@settings(max_examples=200, deadline=None)
@given(accesses, st.integers(min_value=1, max_value=8))
def test_fully_associative_matches_reference(sequence, capacity_lines):
    cache = Cache(size_bytes=capacity_lines * LINE, line_bytes=LINE)
    reference = ReferenceLru(capacity_lines)
    for line_index, is_store in sequence:
        address = line_index * LINE
        assert cache.probe(address, is_store) == reference.access(
            address, is_store
        )


@settings(max_examples=100, deadline=None)
@given(accesses)
def test_occupancy_never_exceeds_capacity(sequence):
    cache = Cache(size_bytes=4 * LINE, line_bytes=LINE, assoc=2)
    for line_index, is_store in sequence:
        cache.probe(line_index * LINE, is_store=is_store)
        assert cache.occupancy() <= 4


@settings(max_examples=100, deadline=None)
@given(accesses)
def test_hits_plus_misses_equals_accesses(sequence):
    cache = Cache(size_bytes=4 * LINE, line_bytes=LINE)
    for line_index, is_store in sequence:
        cache.probe(line_index * LINE, is_store=is_store)
    assert cache.hits + cache.misses == len(sequence)


@settings(max_examples=100, deadline=None)
@given(accesses)
def test_immediate_reaccess_always_hits(sequence):
    cache = Cache(size_bytes=2 * LINE, line_bytes=LINE)
    for line_index, is_store in sequence:
        cache.probe(line_index * LINE, is_store=is_store)
        assert cache.probe(line_index * LINE) == (True, None)


class ReferencePollutedLru(ReferenceLru):
    """:class:`ReferenceLru` with shader pollution spelled out line by line.

    Each pollution line is a clean miss on a fresh address that is never
    probed again.  The fresh addresses are negative, so they never alias
    a real line.
    """

    def __init__(self, capacity):
        super().__init__(capacity)
        self._fresh = count(-1, -1)

    def pollute(self, lines):
        victims = []
        for _ in range(lines):
            _, evicted_dirty = self.access(next(self._fresh), False)
            if evicted_dirty is not None:
                victims.append(evicted_dirty)
        return victims

    def real_lines(self):
        return [(line, dirty) for line, dirty in self.lines.items() if line >= 0]


def l1_ops(capacity):
    return st.lists(
        st.one_of(
            st.tuples(
                st.just("access"),
                st.integers(min_value=0, max_value=31),  # line index
                st.booleans(),                           # is_store
            ),
            st.tuples(
                st.just("pollute"),
                st.integers(min_value=1, max_value=2 * capacity),
                st.just(False),
            ),
        ),
        max_size=200,
    )


@st.composite
def l1_workloads(draw):
    capacity = draw(st.integers(min_value=1, max_value=16))
    return capacity, draw(l1_ops(capacity))


@settings(max_examples=300, deadline=None)
@given(l1_workloads())
def test_l1_counted_pollution_matches_spelled_out_lru(workload):
    capacity, ops = workload
    l1 = L1Cache(size_bytes=capacity * LINE, line_bytes=LINE)
    reference = ReferencePollutedLru(capacity)
    for op, value, is_store in ops:
        if op == "access":
            address = value * LINE
            assert l1.probe(address, is_store) == reference.access(address, is_store)
        else:
            assert l1.pollute(value) == reference.pollute(value)
        assert l1.occupancy() == len(reference.lines)
        resident = [(line, dirty) for line, dirty in l1._lines.items() if line >= 0]
        assert resident == reference.real_lines()
