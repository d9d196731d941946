"""Property tests for the vector backend's derived data structures.

Two oracles, both dead-simple Python:

* :func:`pack_trace` / :func:`unpack_trace` must round-trip any step
  stream losslessly, and :func:`batch_warp_state`'s whole-warp numpy
  reductions must equal the per-lane loop they replace.
* :class:`LazyL1` (the O(1)-pollution L1 mirror) must be
  observationally identical to a textbook clean LRU in which every
  pollution burst is spelled out as individual never-probed-again
  inserts — hit/miss per probe, occupancy, and the resident tracked
  line set all match after every operation.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.vector.lru import LazyL1
from repro.gpu.vector.soa import batch_warp_state, pack_trace, unpack_trace
from repro.trace.events import NodeKind, RayKind, RayTrace, Step

steps_strategy = st.lists(
    st.builds(
        Step,
        address=st.integers(min_value=0, max_value=2**20),
        size_bytes=st.integers(min_value=1, max_value=256),
        kind=st.sampled_from([NodeKind.INTERNAL, NodeKind.LEAF]),
        tests=st.integers(min_value=0, max_value=8),
        pushes=st.lists(
            st.integers(min_value=0, max_value=2**20), max_size=4
        ),
        popped=st.booleans(),
    ),
    max_size=40,
)


def make_trace(steps, ray_id=3):
    return RayTrace(
        ray_id=ray_id, pixel=7, kind=RayKind.SHADOW, steps=steps,
        hit_prim=5, hit_t=1.5,
    )


# -- pack/unpack round-trip ---------------------------------------------


@settings(max_examples=150, deadline=None)
@given(steps_strategy)
def test_pack_unpack_round_trip(steps):
    trace = make_trace(steps)
    soa = pack_trace(trace)
    rebuilt = unpack_trace(
        soa, ray_id=3, pixel=7, kind=RayKind.SHADOW, hit_prim=5, hit_t=1.5
    )
    assert rebuilt == trace


def test_pack_trace_caches_on_the_trace():
    trace = make_trace([Step(0, 64, NodeKind.LEAF, 2, [], False)])
    assert pack_trace(trace) is pack_trace(trace)


# -- warp batching vs the per-lane loop ---------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.none(), steps_strategy), max_size=8))
def test_batch_warp_state_matches_lane_loop(lane_steps):
    traces = [
        None if steps is None else make_trace(steps, ray_id=i)
        for i, steps in enumerate(lane_steps)
    ]
    state = batch_warp_state(traces)
    populated = [
        i for i, t in enumerate(traces) if t is not None and t.steps
    ]
    assert state.lanes == populated
    length = max((len(traces[i].steps) for i in populated), default=0)
    assert state.n_iters == length
    for k in range(length):
        box_max = tri_max = instructions = 0
        for row, lane in enumerate(populated):
            steps = traces[lane].steps
            active = k < len(steps)
            assert bool(state.active[row, k]) == active
            if not active:
                continue
            step = steps[k]
            instructions += 1 + step.tests
            if step.kind is NodeKind.INTERNAL:
                box_max = max(box_max, step.tests)
            else:
                tri_max = max(tri_max, step.tests)
            depth = sum(
                len(s.pushes) - int(s.popped) for s in steps[: k + 1]
            )
            assert int(state.depth[row, k]) == depth
            assert int(state.pending_ops[row, k]) == (
                len(step.pushes) + int(step.popped)
            )
        assert int(state.box_max[k]) == box_max
        assert int(state.tri_max[k]) == tri_max
        assert int(state.instructions[k]) == instructions


def test_batch_warp_state_empty_warp():
    state = batch_warp_state([None, None])
    assert state.lanes == [] and state.n_iters == 0


# -- LazyL1 vs spelled-out clean LRU ------------------------------------

#: A foreign (pollution) line id base far above any real line the ops
#: strategy can generate, so the reference can tell the populations
#: apart when checking the tracked-resident set.
FOREIGN_BASE = 10**9


class SpelledOutLru:
    """Clean fully-associative LRU; pollution as individual inserts."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.lines = OrderedDict()
        self.foreign_seq = 0

    def access(self, line):
        if line in self.lines:
            self.lines.move_to_end(line)
            return True
        if len(self.lines) >= self.capacity:
            self.lines.popitem(last=False)
        self.lines[line] = True
        return False

    def pollute(self, count):
        for _ in range(count):
            self.access(FOREIGN_BASE + self.foreign_seq)
            self.foreign_seq += 1

    def tracked_lines(self):
        return {line for line in self.lines if line < FOREIGN_BASE}


ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(min_value=0, max_value=15)),
        st.tuples(st.just("pollute"), st.integers(min_value=1, max_value=4)),
    ),
    max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(ops_strategy, st.integers(min_value=4, max_value=16))
def test_lazy_l1_matches_spelled_out_lru(ops, capacity):
    lazy = LazyL1(capacity)
    reference = SpelledOutLru(capacity)
    for op, value in ops:
        if op == "access":
            hit = lazy.hit(value)
            if not hit:
                lazy.insert(value)
            assert hit == reference.access(value)
        else:
            # The pollute contract requires count <= capacity (checked
            # at plan build); the strategy bounds count at 4 <= cap.
            lazy.pollute(value)
            reference.pollute(value)
        assert lazy.occupancy == len(reference.lines)
        assert lazy.resident_lines() == reference.tracked_lines()
