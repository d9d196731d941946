"""The wide BVH is small, and so is building it.

Under ``tracemalloc``, the object :func:`~repro.bvh.api.build_bvh` returns
may retain at most :data:`MAX_BYTES_PER_TRIANGLE` beyond the scene it
indexes.  A wide node costs a few int64 fields plus two bound rows, and a
median tree with 4-triangle leaves has well under one node per triangle.
While it builds, the traced memory beyond the scene may peak at no more
than :data:`MAX_PEAK_BYTES_PER_TRIANGLE`, so the paper's largest scene
(ROBOT, 20.6M triangles) would peak near 6.2 GB beyond its scene.

The paper-scale CRNVL cases run only when ``REPRO_BENCH_SCALE`` selects
paper-true geometry::

    REPRO_BENCH_SCALE=1.0 pytest tests/bvh/test_memory.py -k fullscale
"""

import gc
import tracemalloc

import pytest

from repro.bvh.api import build_bvh
from repro.workloads.lumibench import bench_scale, load_scene

MAX_BYTES_PER_TRIANGLE = 128
MAX_PEAK_BYTES_PER_TRIANGLE = 300

CASES = [("SHIP", 1.0), ("CRNVL", None), ("PARTY", None)]
FULLSCALE = pytest.mark.skipif(
    bench_scale() is None, reason="paper-scale geometry needs REPRO_BENCH_SCALE=1.0"
)


def build_bytes_per_triangle(scene):
    """``(retained, peak)``: the bytes the built BVH keeps alive, and the
    most the build held at once, per scene triangle."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        bvh = build_bvh(scene)
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bvh.node_count > 0
    count = scene.triangle_count
    return (current - before) / count, (peak - before) / count


@pytest.mark.parametrize("name, scale", CASES)
def test_bvh_retains_little_per_triangle(name, scale):
    per_triangle, _ = build_bytes_per_triangle(load_scene(name, scale=scale))
    assert per_triangle <= MAX_BYTES_PER_TRIANGLE, (
        f"{name}: the BVH retains {per_triangle:.0f} B per triangle"
    )


@pytest.mark.parametrize("name, scale", CASES)
def test_build_peaks_low_per_triangle(name, scale):
    _, per_triangle = build_bytes_per_triangle(load_scene(name, scale=scale))
    assert per_triangle <= MAX_PEAK_BYTES_PER_TRIANGLE, (
        f"{name}: the build peaks at {per_triangle:.0f} B per triangle"
    )


@FULLSCALE
def test_fullscale_crnvl_retains_little_per_triangle():
    per_triangle, _ = build_bytes_per_triangle(load_scene("CRNVL"))
    assert per_triangle <= MAX_BYTES_PER_TRIANGLE, (
        f"CRNVL: the BVH retains {per_triangle:.0f} B per triangle"
    )


@FULLSCALE
def test_fullscale_crnvl_build_peaks_low_per_triangle():
    _, per_triangle = build_bytes_per_triangle(load_scene("CRNVL"))
    assert per_triangle <= MAX_PEAK_BYTES_PER_TRIANGLE, (
        f"CRNVL: the build peaks at {per_triangle:.0f} B per triangle"
    )
