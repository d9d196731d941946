"""Vector timing core ≡ stepped oracle: whole-output bit identity.

The vector backend (``GPUSimulator(backend="vector")``) replays
precomputed warp plans and prices memory through the stepped
``MemoryHierarchy``; its contract is that *nothing* observable changes
— every integer counter and every per-SM cycle count matches the
stepped reference loop exactly.  These tests sweep the full
LumiBench scene catalogue under the two headline configurations and
under two memory settings the vector core once fell back on (L1-cached
spills, an L1 smaller than one pollution burst), cross it with the
guard axis, cover the spill policies and traversal strategies, and pin
the fallback behavior: any run outside the vector validity envelope
silently degrades to the stepped core and records that in
``SimOutput.backend``.  One test drives a single SM's warps through
both units on fresh hierarchies and compares the memory state they
leave behind, and one re-runs a workload whose plans are cached under
each cost field changed alone.  A trace with a bad pop must fail both
cores with the same error.  Two more pin the guard layer's plan
sampler: it checks every sixteenth warp, and it catches a model whose
depth diverges from its lane's pushes minus pops.
"""

from dataclasses import asdict, replace

import pytest

from repro.bvh.api import build_bvh
from repro.core.presets import named_config
from repro.errors import InvariantViolationError, SimulationError
from repro.gpu.counters import Counters
from repro.gpu.hierarchy import sm_memory
from repro.gpu.rt_unit import RTUnit
from repro.gpu.simulator import GPUSimulator
from repro.gpu.vector.plan import SAMPLE_STRIDE
from repro.gpu.vector.unit import VectorRTUnit
from repro.gpu.warp import pack_warps
from repro.guard.config import GuardConfig
from repro.guard.vector import VectorPlanSampler
from repro.stack.sms import SmsStack
from repro.trace.path import generate_workload
from repro.traversal.registry import resolve_strategy
from repro.workloads.lumibench import SCENE_NAMES, load_scene

CONFIGS = ["RB_8", "RB_8+SH_8+SK+RA"]

#: Memory settings the vector core once fell back on: L1-cached
#: (dirty) spills, and a 32-line L1 under a 48-line pollution burst.
MEMORY_CONFIGS = [
    pytest.param(
        replace(named_config("RB_4+SH_4"), spill_cache_policy="l1"),
        id="RB_4+SH_4-l1-spills",
    ),
    pytest.param(
        replace(named_config("RB_8+SH_8+SK+RA"), l1d_bytes_override=4096),
        id="RB_8+SH_8+SK+RA-4KB-L1",
    ),
]

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
    guard = GuardConfig()
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


def test_l1_spill_policy_is_supported():
    traces = traces_for("BUNNY")
    config = replace(named_config("RB_4+SH_4"), spill_cache_policy="l1")
    stepped = run(traces, config, "stepped")
    vector = run(traces, config, "vector")
    assert vector.backend == "vector"
    assert_identical(stepped, vector)


@pytest.mark.parametrize("config", MEMORY_CONFIGS)
@pytest.mark.parametrize("scene", SCENE_NAMES)
def test_vector_bit_identical_under_memory_settings(scene, config):
    traces = traces_for(scene)
    stepped = run(traces, config, "stepped")
    vector = run(traces, config, "vector")
    assert vector.backend == "vector"
    assert_identical(stepped, vector)


def memory_state(hierarchy):
    l1 = hierarchy.l1
    return {
        "l1": list(l1._lines.items()),
        "l1_live": l1._live,
        "l1_head": l1._head,
        "l2": [list(cache_set.items()) for cache_set in hierarchy.l2._sets],
        "dram_next_free": hierarchy.dram._next_free,
        "l2_port_free": hierarchy._l2_port_free,
    }


def run_one_sm(unit_class, traces, config):
    """SM 0's share of the warps through ``unit_class`` on a fresh
    hierarchy; returns (completion, counters, memory state)."""
    warps = pack_warps(traces, warp_size=config.warp_size)
    sm_warps = warps[::config.num_sms]
    hierarchy = sm_memory(config)
    counters = Counters()
    completion = unit_class(config, hierarchy, counters).run(sm_warps)
    return completion, asdict(counters), memory_state(hierarchy)


@pytest.mark.parametrize("config", [
    pytest.param(named_config("RB_2"), id="RB_2"),
    pytest.param(named_config("RB_8+SH_8+SK+RA"), id="RB_8+SH_8+SK+RA"),
    pytest.param(
        replace(
            named_config("RB_4+SH_4"), spill_cache_policy="l1",
            l1d_bytes_override=4096,
        ),
        id="RB_4+SH_4-l1-spills-4KB-L1",
    ),
])
@pytest.mark.parametrize("scene", ["CRNVL", "SHIP", "PARTY"])
def test_vector_unit_leaves_the_stepped_memory_state(scene, config):
    """Both units drive one memory system: same L1 contents and LRU
    order, L2 sets, DRAM queue and L2 port after the same warps."""
    traces = traces_for(scene)
    stepped = run_one_sm(RTUnit, traces, config)
    vector = run_one_sm(VectorRTUnit, traces, config)
    state = stepped[2]
    assert state["l1_live"] and state["dram_next_free"], "memory untouched"
    assert stepped == vector


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


#: Each cost field a plan is priced with, and a value that moves it.
COST_FIELDS = [
    ("l1_port_cycles", 5),
    ("box_test_cycles", 3),
    ("tri_test_cycles", 7),
    ("shared_latency", 31),
    ("bank_conflict_penalty", 13),
    ("shared_port_cycles", 4),
]


def test_vector_reprices_a_warp_when_only_a_cost_field_changes():
    """Plans cache on the traces, so a run under one changed cost field
    must build its own plans, not reuse the ones priced before it.  At
    8x8 on one SM the port cycles never become the bottleneck, and a
    stale ``l1_port_cycles`` price goes unseen: keep 24x24."""
    bvh = build_bvh(load_scene("SHIP"))
    traces = generate_workload(
        bvh, width=24, height=24, max_bounces=1, seed=0
    ).all_traces
    base = replace(named_config("RB_2+SH_2+SK+RA"), num_sms=1)
    for field, value in [(None, None)] + COST_FIELDS:
        config = base if field is None else replace(base, **{field: value})
        vector = run(traces, config, "vector")
        assert vector.backend == "vector"
        assert_identical(run(traces, config, "stepped"), vector)


def fresh_traces():
    """CRNVL at 24x24, 21 warps, traced anew: plans cache on the traces,
    so a warp is only sampled when its plan is first built."""
    bvh = build_bvh(load_scene("CRNVL"))
    return generate_workload(
        bvh, width=24, height=24, max_bounces=1, seed=0
    ).all_traces


@pytest.mark.parametrize("final", [False, True], ids=["order", "final"])
def test_both_cores_report_a_bad_pop_alike(final):
    """A pop that disagrees with the ray's next step, or comes at its
    last step, fails both cores with the same error."""
    errors = []
    for backend in ("stepped", "vector"):
        traces = generate_workload(
            build_bvh(load_scene("CRNVL")), width=8, height=8,
            max_bounces=1, seed=0,
        ).all_traces
        trace = next(t for t in traces if any(s.popped for s in t.steps))
        k = next(i for i, s in enumerate(trace.steps) if s.popped)
        if final:
            del trace.steps[k + 1:]
        else:
            step = trace.steps[k + 1]
            trace.steps[k + 1] = replace(step, address=step.address + 64)
        with pytest.raises(SimulationError) as caught:
            run(traces, named_config("RB_8+SH_8+SK+RA"), backend)
        errors.append(caught.value)
    stepped, vector = errors
    assert ("final step" in str(stepped)) == final
    assert str(stepped) == str(vector)


def test_vector_run_samples_every_sixteenth_warp(monkeypatch):
    checked = []
    check_totals = VectorPlanSampler.check_totals

    def counting(self, totals, n_iters):
        checked.append(self.warp_id)
        return check_totals(self, totals, n_iters)

    monkeypatch.setattr(VectorPlanSampler, "check_totals", counting)
    traces = fresh_traces()
    config = named_config("RB_8+SH_8+SK+RA")
    output = run(traces, config, "vector")
    assert output.backend == "vector"
    warp_ids = [warp.warp_id for warp in pack_warps(traces, config.warp_size)]
    assert len(warp_ids) > SAMPLE_STRIDE
    assert checked == [i for i in warp_ids if i % SAMPLE_STRIDE == 0]


def test_sampler_catches_a_depth_divergence(monkeypatch):
    depth = SmsStack.depth
    monkeypatch.setattr(
        SmsStack, "depth", lambda self, lane: depth(self, lane) + 1
    )
    with pytest.raises(InvariantViolationError,
                       match="diverged from its trace"):
        run(fresh_traces(), named_config("RB_8+SH_8+SK+RA"), "vector")


def test_empty_workload():
    config = named_config("RB_8")
    stepped = run([], config, "stepped")
    vector = run([], config, "vector")
    assert_identical(stepped, vector)


def test_unknown_backend_rejected():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        GPUSimulator(backend="warp-drive")
