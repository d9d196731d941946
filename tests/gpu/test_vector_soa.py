"""Property tests for the vector backend's SoA mirrors.

:func:`pack_trace` / :func:`unpack_trace` must round-trip any step
stream losslessly, and :func:`batch_warp_state`'s whole-warp numpy
reductions must equal the per-lane loop they replace.  The vector core
has no cache model of its own; the L1's counted pollution is checked
against a spelled-out LRU in ``tests/gpu/test_cache_properties.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
