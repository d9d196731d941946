"""Pinned phase one: the per-ray stack-event streams every figure reads.

Each case is one scene traced by one traversal strategy's phase one
(``build_workload``) and pinned by its wave sizes and one SHA-256.  The
hash runs over the trace fields themselves, not over the store codec's
bytes, so a codec change cannot move it: for every ray in wave order,
``ray_id``, ``pixel``, ``kind``, ``hit_prim`` and ``float.hex(hit_t)``,
then every field of every step.

* Reduced scale: the 16 Lumibench scenes x the ``sms``, ``stackless``
  and ``reorder`` strategies at 8x8, 1 spp, 2 bounces, seed 0.
* Default workload (``golden_phase_one_default.json``): CRNVL, PARTY,
  SHIP and ROBOT at ``DEFAULT_PARAMS`` (32x32, or 16x16 for ROBOT, 1 spp,
  3 bounces) for seeds 0 and 1, plus CRNVL at 32x32 with 2 spp, which
  takes the sub-pixel jitter path.  The 8x8 waves are mostly misses;
  these are the wide waves, 1,024 to 2,048 primary rays each.
* Paper scale: CRNVL at 24x24, 1 spp, 2 bounces under ``sms``.  It runs
  only when ``REPRO_BENCH_SCALE`` selects paper-true geometry, and the
  reduced-scale cases skip then::

      REPRO_BENCH_SCALE=1.0 pytest tests/trace/test_phase_one_golden.py -k fullscale

Regenerate (only for an intended behaviour change) with the two
commands below; the first rewrites the reduced-scale half of
``golden_phase_one.json`` and ``golden_phase_one_default.json``, the
second only the paper-scale half::

    PYTHONPATH=src python -m tests.trace.test_phase_one_golden
    REPRO_BENCH_SCALE=1.0 PYTHONPATH=src python -m tests.trace.test_phase_one_golden
"""

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.bvh.api import build_bvh
from repro.traversal.registry import resolve_strategy
from repro.workloads.lumibench import SCENE_NAMES, bench_scale, load_scene
from repro.workloads.params import DEFAULT_PARAMS

GOLDEN_PATH = Path(__file__).parent / "golden_phase_one.json"
DEFAULT_GOLDEN_PATH = Path(__file__).parent / "golden_phase_one_default.json"
STRATEGIES = ("sms", "stackless", "reorder")
PARAMS = {"width": 8, "height": 8, "spp": 1, "max_bounces": 2, "seed": 0}
FULLSCALE_SCENE = "CRNVL"
FULLSCALE_STRATEGY = "sms"
FULLSCALE_PARAMS = {"width": 24, "height": 24, "spp": 1, "max_bounces": 2, "seed": 0}



def _default_params(scene_name, seed):
    width, height, spp = DEFAULT_PARAMS.for_scene(scene_name)
    return {
        "width": width, "height": height, "spp": spp,
        "max_bounces": DEFAULT_PARAMS.max_bounces, "seed": seed,
    }


#: The default-workload cases, all under ``sms``: name -> (scene, params).
DEFAULT_CASES = {
    **{
        f"{scene_name}/seed{seed}": (scene_name, _default_params(scene_name, seed))
        for scene_name in ("CRNVL", "PARTY", "SHIP", "ROBOT")
        for seed in (0, 1)
    },
    "CRNVL/spp2": (
        "CRNVL", {"width": 32, "height": 32, "spp": 2, "max_bounces": 3, "seed": 0},
    ),
}

paper_scale = pytest.mark.skipif(
    bench_scale() is None, reason="paper-scale geometry needs REPRO_BENCH_SCALE=1.0"
)
reduced_scale = pytest.mark.skipif(
    bench_scale() is not None, reason="pinned at reduced-scale geometry"
)


@lru_cache(maxsize=1)
def _bvh(scene_name):
    return build_bvh(load_scene(scene_name))


def _ray_fields(trace):
    """Every field of one trace, as plain Python values."""
    return (
        int(trace.ray_id),
        int(trace.pixel),
        trace.kind.value,
        int(trace.hit_prim),
        float.hex(float(trace.hit_t)),
        [
            (
                int(step.address),
                int(step.size_bytes),
                step.kind.value,
                int(step.tests),
                [int(address) for address in step.pushes],
                bool(step.popped),
            )
            for step in trace.steps
        ],
    )


def capture(scene_name, strategy, params):
    """Wave sizes and the SHA-256 of one scene's phase one."""
    workload = resolve_strategy(strategy).build_workload(_bvh(scene_name), **params)
    digest = hashlib.sha256()
    for wave in workload.waves:
        for trace in wave:
            digest.update(repr(_ray_fields(trace)).encode())
            digest.update(b"\n")
    return {
        "waves": [len(wave) for wave in workload.waves],
        "sha256": digest.hexdigest(),
    }


def _golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_parameters():
    golden = _golden()
    assert golden["params"] == PARAMS
    assert sorted(golden["cases"]) == sorted(SCENE_NAMES)
    for scene_name in SCENE_NAMES:
        assert sorted(golden["cases"][scene_name]) == sorted(STRATEGIES)
    fullscale = golden["fullscale"]
    assert fullscale["params"] == FULLSCALE_PARAMS
    assert (fullscale["scene"], fullscale["strategy"]) == (
        FULLSCALE_SCENE, FULLSCALE_STRATEGY,
    )


@reduced_scale
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("scene_name", SCENE_NAMES)
def test_phase_one_matches_golden(scene_name, strategy):
    want = _golden()["cases"][scene_name][strategy]
    assert capture(scene_name, strategy, PARAMS) == want, (
        f"{scene_name}/{strategy}: phase one drifted"
    )


def _default_golden():
    return json.loads(DEFAULT_GOLDEN_PATH.read_text())


def test_default_golden_parameters():
    golden = _default_golden()
    assert sorted(golden) == sorted(DEFAULT_CASES)
    for case, (scene_name, params) in DEFAULT_CASES.items():
        assert (golden[case]["scene"], golden[case]["params"]) == (scene_name, params)


@reduced_scale
@pytest.mark.parametrize("case", sorted(DEFAULT_CASES))
def test_default_workload_phase_one_matches_golden(case):
    want = _default_golden()[case]
    scene_name, params = DEFAULT_CASES[case]
    assert capture(scene_name, "sms", params) == {
        "waves": want["waves"], "sha256": want["sha256"],
    }, f"{case}: phase one drifted"


@paper_scale
def test_fullscale_crnvl_phase_one_matches_golden():
    want = _golden()["fullscale"]
    got = capture(FULLSCALE_SCENE, FULLSCALE_STRATEGY, FULLSCALE_PARAMS)
    assert got == {"waves": want["waves"], "sha256": want["sha256"]}


def _regenerate():
    golden = _golden() if GOLDEN_PATH.exists() else {}
    if bench_scale() is None:
        golden["params"] = PARAMS
        golden["cases"] = {
            scene_name: {
                strategy: capture(scene_name, strategy, PARAMS)
                for strategy in STRATEGIES
            }
            for scene_name in SCENE_NAMES
        }
        default = {
            case: {"scene": scene_name, "params": params,
                   **capture(scene_name, "sms", params)}
            for case, (scene_name, params) in DEFAULT_CASES.items()
        }
        DEFAULT_GOLDEN_PATH.write_text(
            "{\n"
            + ",\n".join(
                f" {json.dumps(case)}: {json.dumps(default[case], sort_keys=True)}"
                for case in sorted(default)
            )
            + "\n}\n"
        )
    else:
        golden["fullscale"] = {
            "scene": FULLSCALE_SCENE,
            "strategy": FULLSCALE_STRATEGY,
            "params": FULLSCALE_PARAMS,
            **capture(FULLSCALE_SCENE, FULLSCALE_STRATEGY, FULLSCALE_PARAMS),
        }
    GOLDEN_PATH.write_text(_render(golden))


def _render(golden):
    """The golden as JSON with one case per line."""
    sections = []
    for key in sorted(golden):
        if key == "cases":
            scenes = [
                f"  {json.dumps(name)}: {{\n"
                + ",\n".join(
                    f"   {json.dumps(strategy)}: {json.dumps(case, sort_keys=True)}"
                    for strategy, case in sorted(golden[key][name].items())
                )
                + "\n  }"
                for name in sorted(golden[key])
            ]
            sections.append(' "cases": {\n' + ",\n".join(scenes) + "\n }")
        else:
            sections.append(f" {json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    _regenerate()
