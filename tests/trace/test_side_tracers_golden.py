"""Pinned outputs of the traversals that ``golden_sms.json`` does not cover.

``golden_sms.json`` pins the stack-based tracer through the timing model.
This golden pins the other walks over the same wide BVH, on SHIP, CRNVL
and BUNNY at the smoke resolution (8x8, 1 spp, 2 bounces, seed 0):

* the ``stackless`` strategy's phase one: per ray, ``hit_prim`` and a
  digest of its step stream;
* :func:`~repro.trace.restart.restart_trail_trace` and
  :func:`~repro.trace.restart.short_stack_restart_trace` with a 2-entry
  stack: per ray, the hit and the visit, restart and trail counters;
* :func:`~repro.trace.packet.packet_trace`: per group, the shared-stack
  and per-ray test counters.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python -m tests.trace.test_side_tracers_golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bvh.api import build_bvh
from repro.geometry.ray import Ray
from repro.geometry.vec import normalize
from repro.trace.packet import packet_trace
from repro.trace.path import _default_camera
from repro.trace.restart import restart_trail_trace, short_stack_restart_trace
from repro.traversal.stackless import StacklessStrategy
from repro.workloads.lumibench import load_scene

GOLDEN_PATH = Path(__file__).parent / "golden_side_tracers.json"
SCENES = ("SHIP", "CRNVL", "BUNNY")
PARAMS = {"width": 8, "height": 8, "spp": 1, "max_bounces": 2, "seed": 0}
#: Rays aimed at random triangles, added to the camera rays; packet size.
AIMED_RAYS = 16
PACKET = 8


def _rays(bvh):
    """Camera rays over the frame, then seeded rays aimed at triangles.

    Most smoke-resolution camera rays miss the reduced scenes; the aimed
    rays start anywhere around the scene and head for a random
    triangle's centroid, so each one hits something.
    """
    camera = _default_camera(bvh, PARAMS["width"], PARAMS["height"])
    rays = [ray for _, ray in camera.rays()]
    rng = np.random.default_rng(PARAMS["seed"])
    scene = bvh.scene
    aabb = scene.bounds()
    center = (aabb.lo + aabb.hi) / 2.0
    radius = float(np.linalg.norm(aabb.hi - aabb.lo)) / 2.0 + 1.0
    centroids = scene.centroids()
    for _ in range(AIMED_RAYS):
        origin = center + rng.uniform(-radius, radius, size=3)
        target = centroids[rng.integers(scene.triangle_count)]
        rays.append(Ray(origin=origin, direction=normalize(target - origin)))
    return rays


def _digest(trace):
    steps = [(s.address, s.size_bytes, s.kind.value, s.tests) for s in trace.steps]
    return hashlib.sha256(repr(steps).encode()).hexdigest()[:16]


def _restart_row(result):
    return [
        int(result.hit_prim),
        result.node_visits,
        result.restarts,
        result.max_trail_depth,
    ]


def capture(scene_name):
    """Every pinned side-tracer output for one scene."""
    bvh = build_bvh(load_scene(scene_name))
    workload = StacklessStrategy().build_workload(bvh, **PARAMS)
    rays = _rays(bvh)
    packets = [
        packet_trace(bvh, rays[start : start + PACKET])
        for start in range(0, len(rays), PACKET)
    ]
    return {
        "stackless": [
            [int(trace.hit_prim), _digest(trace)] for trace in workload.all_traces
        ],
        "restart_trail": [_restart_row(restart_trail_trace(bvh, ray)) for ray in rays],
        "short_stack_2": [
            _restart_row(short_stack_restart_trace(bvh, ray, stack_entries=2))
            for ray in rays
        ],
        "packet": [
            [
                p.node_visits,
                p.stack_pushes,
                p.max_stack_depth,
                p.ray_box_tests,
                p.ray_tri_tests,
            ]
            for p in packets
        ],
    }


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_parameters():
    golden = _golden()
    assert golden["params"] == PARAMS
    assert sorted(golden["scenes"]) == sorted(SCENES)


@pytest.mark.parametrize("scene_name", SCENES)
def test_side_tracers_match_golden(scene_name):
    want = _golden()["scenes"][scene_name]
    got = capture(scene_name)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], f"{scene_name}: {name} drifted"


def _render(scenes):
    """The golden as JSON with one row per line."""
    lines = ["{", f' "params": {json.dumps(PARAMS, sort_keys=True)},', ' "scenes": {']
    for s_pos, name in enumerate(sorted(scenes)):
        lines.append(f"  {json.dumps(name)}: {{")
        tables = scenes[name]
        for t_pos, table in enumerate(sorted(tables)):
            rows = ",\n".join(f"    {json.dumps(row)}" for row in tables[table])
            comma = "," if t_pos + 1 < len(tables) else ""
            lines.append(f"   {json.dumps(table)}: [\n{rows}\n   ]{comma}")
        lines.append("  }," if s_pos + 1 < len(scenes) else "  }")
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(_render({name: capture(name) for name in SCENES}))
