"""Warp state and packing tests."""

import pytest

from repro.gpu.warp import Warp, pack_warps
from repro.trace.events import NodeKind, RayKind, RayTrace, Step


def make_trace(ray_id, steps):
    trace = RayTrace(ray_id=ray_id, pixel=0, kind=RayKind.PRIMARY)
    for _ in range(steps):
        trace.steps.append(
            Step(address=0, size_bytes=32, kind=NodeKind.INTERNAL,
                 tests=1, pushes=[], popped=False)
        )
    return trace


def test_pack_full_warp():
    warps = pack_warps([make_trace(i, 1) for i in range(32)])
    assert len(warps) == 1
    assert warps[0].lane_count == 32
    assert all(t is not None for t in warps[0].traces)


def test_pack_pads_partial_warp():
    warps = pack_warps([make_trace(i, 1) for i in range(40)])
    assert len(warps) == 2
    assert warps[1].traces[8:] == [None] * 24


def test_pack_preserves_order():
    warps = pack_warps([make_trace(i, 1) for i in range(64)])
    assert warps[0].traces[0].ray_id == 0
    assert warps[1].traces[0].ray_id == 32


def test_warp_ids_sequential():
    warps = pack_warps([make_trace(i, 1) for i in range(70)])
    assert [w.warp_id for w in warps] == [0, 1, 2]


def test_lane_activity_tracking():
    warp = pack_warps([make_trace(0, 2), make_trace(1, 1)])[0]
    assert warp.lane_active(0)
    assert warp.lane_active(1)
    assert not warp.lane_active(2)  # padding
    warp.advance(0)
    warp.advance(1)
    assert warp.lane_active(0)
    assert not warp.lane_active(1)


def test_active_lanes_and_done():
    warp = pack_warps([make_trace(0, 1)])[0]
    assert warp.active_lanes() == [0]
    assert not warp.done
    warp.advance(0)
    assert warp.done


def test_total_steps():
    warp = pack_warps([make_trace(0, 3), make_trace(1, 2)])[0]
    assert warp.total_steps == 5


def test_empty_input():
    assert pack_warps([]) == []


def test_custom_warp_size():
    warps = pack_warps([make_trace(i, 1) for i in range(10)], warp_size=4)
    assert len(warps) == 3
    assert warps[0].lane_count == 4
