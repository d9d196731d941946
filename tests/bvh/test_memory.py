"""The wide BVH is small: flat per-node arrays, nothing derived.

Under ``tracemalloc``, the object :func:`~repro.bvh.api.build_bvh` returns
may retain at most :data:`MAX_BYTES_PER_TRIANGLE` beyond the scene it
indexes.  A wide node costs a few int64 fields plus two bound rows, and a
median tree with 4-triangle leaves has well under one node per triangle.

The paper-scale CRNVL case runs only when ``REPRO_BENCH_SCALE`` selects
paper-true geometry::

    REPRO_BENCH_SCALE=1.0 pytest tests/bvh/test_memory.py -k fullscale
"""

import gc
import tracemalloc

import pytest

from repro.bvh.api import build_bvh
from repro.workloads.lumibench import bench_scale, load_scene

MAX_BYTES_PER_TRIANGLE = 128


def retained_bytes_per_triangle(scene):
    """Bytes the built BVH keeps alive, per scene triangle."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bvh = build_bvh(scene)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bvh.node_count > 0
    return retained / scene.triangle_count


@pytest.mark.parametrize(
    "name, scale", [("SHIP", 1.0), ("CRNVL", None), ("PARTY", None)]
)
def test_bvh_retains_little_per_triangle(name, scale):
    per_triangle = retained_bytes_per_triangle(load_scene(name, scale=scale))
    assert per_triangle <= MAX_BYTES_PER_TRIANGLE, (
        f"{name}: the BVH retains {per_triangle:.0f} B per triangle"
    )


@pytest.mark.skipif(
    bench_scale() is None, reason="paper-scale geometry needs REPRO_BENCH_SCALE=1.0"
)
def test_fullscale_crnvl_retains_little_per_triangle():
    per_triangle = retained_bytes_per_triangle(load_scene("CRNVL"))
    assert per_triangle <= MAX_BYTES_PER_TRIANGLE, (
        f"CRNVL: the BVH retains {per_triangle:.0f} B per triangle"
    )
