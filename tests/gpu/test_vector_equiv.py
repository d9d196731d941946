"""Vector timing core ≡ stepped oracle: whole-output bit identity.

The vector backend (``GPUSimulator(backend="vector")``) replays
precomputed warp plans through numpy-batched stepping; its contract is
that *nothing* observable changes — every integer counter and every
per-SM cycle count matches the stepped reference loop exactly.  These
tests sweep the full LumiBench scene catalogue under the two headline
configurations, cross it with the guard axis, cover the supported
spill policies and traversal strategies, and pin the
fallback behavior: any run outside the vector validity envelope
silently degrades to the stepped core and records that in
``SimOutput.backend``.
"""

from dataclasses import asdict, replace

import pytest

from repro.bvh.api import build_bvh
from repro.core.presets import named_config
from repro.gpu.simulator import GPUSimulator
from repro.guard.config import GuardConfig
from repro.trace.path import generate_workload
from repro.traversal.registry import resolve_strategy
from repro.workloads.lumibench import SCENE_NAMES, load_scene

CONFIGS = ["RB_8", "RB_8+SH_8+SK+RA"]

# Traces are strategy- and config-independent (phase one), so one small
# workload per scene serves every test in the module.
_TRACES = {}


def traces_for(scene):
    cached = _TRACES.get(scene)
    if cached is None:
        bvh = build_bvh(load_scene(scene))
        workload = generate_workload(
            bvh, width=8, height=8, max_bounces=2, seed=0
        )
        cached = _TRACES[scene] = workload.all_traces
    return cached


def assert_identical(reference, candidate):
    """Every counter field and every per-SM cycle count must match."""
    assert asdict(reference.counters) == asdict(candidate.counters)
    assert reference.per_sm_cycles == candidate.per_sm_cycles


def run(traces, config, backend, **kwargs):
    return GPUSimulator(config=config, backend=backend, **kwargs).run_traces(
        traces
    )


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("scene", SCENE_NAMES)
def test_vector_bit_identical_across_catalogue(scene, config_name):
    traces = traces_for(scene)
    config = named_config(config_name)
    stepped = run(traces, config, "stepped")
    vector = run(traces, config, "vector")
    # The headline configs are inside the validity envelope: the vector
    # core must actually execute, not silently fall back.
    assert vector.backend == "vector"
    assert stepped.backend == "stepped"
    assert_identical(stepped, vector)


def test_guarded_vector_request_falls_back_and_matches():
    """Guards need the stepped observer; the fallback is bit-identical."""
    traces = traces_for("CRNVL")
    config = named_config("RB_8+SH_8")
    guard = GuardConfig(invariants=True, watchdog=True)
    stepped = run(traces, config, "stepped", guard=guard)
    vector = run(traces, config, "vector", guard=guard)
    assert vector.backend == "stepped"
    assert_identical(stepped, vector)


def test_l2_spill_policy_is_supported():
    traces = traces_for("BUNNY")
    config = replace(
        named_config("RB_4+SH_4"), spill_cache_policy="l2"
    )
    stepped = run(traces, config, "stepped")
    vector = run(traces, config, "vector")
    assert vector.backend == "vector"
    assert_identical(stepped, vector)


def test_l1_spill_policy_falls_back():
    """L1-cached spills dirty the lazy L1 mirror — out of envelope."""
    traces = traces_for("BUNNY")
    config = replace(named_config("RB_4+SH_4"), spill_cache_policy="l1")
    stepped = run(traces, config, "stepped")
    vector = run(traces, config, "vector")
    assert vector.backend == "stepped"
    assert_identical(stepped, vector)


def test_inter_warp_realloc_falls_back():
    traces = traces_for("CRNVL")
    config = replace(
        named_config("RB_8+SH_8+SK+RA"), inter_warp_realloc=True
    )
    stepped = run(traces, config, "stepped")
    vector = run(traces, config, "vector")
    assert vector.backend == "stepped"
    assert_identical(stepped, vector)


@pytest.mark.parametrize("strategy", ["sms", "stackless", "reorder"])
def test_vector_bit_identical_per_strategy(strategy):
    """Each traversal strategy's own workload times identically."""
    bvh = build_bvh(load_scene("CRNVL"))
    workload = resolve_strategy(strategy).build_workload(
        bvh, width=8, height=8, spp=1, max_bounces=2, seed=0
    )
    traces = workload.all_traces
    config = named_config("RB_8+SH_8")
    stepped = run(traces, config, "stepped", strategy=strategy)
    vector = run(traces, config, "vector", strategy=strategy)
    assert_identical(stepped, vector)


def test_empty_workload():
    config = named_config("RB_8")
    stepped = run([], config, "stepped")
    vector = run([], config, "vector")
    assert_identical(stepped, vector)


def test_unknown_backend_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        GPUSimulator(backend="warp-drive")
