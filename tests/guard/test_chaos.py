"""Fault-injection tests: every fault class is caught.

This is the evidence the guard layer earns its keep — each seeded fault
(see :mod:`tests.guard.chaos`) must be flagged with a structured error
naming the cycle, warp and component, while the fault-free guarded run
stays bit-identical to the unguarded baseline.
"""

import pytest

from repro.errors import (
    ConfigError,
    GuardViolationError,
    InvariantViolationError,
    SimulationStallError,
)
from repro.gpu.simulator import GPUSimulator
from repro.guard import GuardConfig
from tests.guard.chaos import (
    FAULT_CLASSES,
    STACK_FAULTS,
    FaultSpec,
    chaos_config,
    chaos_traces,
    run_with_fault,
)

#: Each fault class is injected at every one of these seeds.
SEEDS = (0, 1, 2)


def _detect(kind, seed):
    """The guard error ``kind``'s seeded fault raises, or None."""
    try:
        run_with_fault(chaos_traces(seed=seed), FaultSpec.seeded(kind, seed))
    except GuardViolationError as error:
        return error
    return None


@pytest.fixture(scope="module")
def detections():
    return {
        (kind, seed): _detect(kind, seed)
        for seed in SEEDS for kind in FAULT_CLASSES
    }


def _errors_of(detections, kinds):
    return [detections[kind, seed] for kind in kinds for seed in SEEDS]


def test_campaign_covers_every_fault_class():
    """Six classes, each injected at a different point per seed."""
    assert len(set(FAULT_CLASSES)) == 6
    for kind in FAULT_CLASSES:
        triggers = {FaultSpec.seeded(kind, seed).trigger for seed in SEEDS}
        assert len(triggers) == len(SEEDS), kind


def test_all_faults_detected(detections):
    undetected = [key for key, error in detections.items() if error is None]
    assert not undetected, f"faults escaped the guard: {undetected}"


def test_every_detection_is_structured(detections):
    """Each error names cycle, warp and component (the acceptance bar)."""
    for key, error in detections.items():
        diagnostics = error.diagnostics()
        assert {"cycle", "warp", "component"} <= set(diagnostics), key
        assert diagnostics["component"], key


def test_stuck_warp_becomes_stall_not_hang(detections):
    for error in _errors_of(detections, ["stuck_warp"]):
        assert type(error) is SimulationStallError
        assert error.component == "scheduler"
        assert error.decisions, "scheduler decision log missing"
        assert error.stack_snapshots, "per-lane stack snapshots missing"


def test_counter_skew_lands_on_counters_component(detections):
    for error in _errors_of(detections, ["skew_counter"]):
        assert type(error) is InvariantViolationError
        assert error.component == "counters"


def test_stack_faults_name_the_slot(detections):
    for error in _errors_of(detections, STACK_FAULTS):
        assert type(error) is InvariantViolationError
        assert error.component == "stack[slot=0]"


def test_clean_guarded_run_bit_identical():
    for seed in SEEDS:
        traces = chaos_traces(seed=seed)
        plain = GPUSimulator(chaos_config(), verify_pops=False)
        guarded = GPUSimulator(
            chaos_config(), verify_pops=False,
            guard=GuardConfig(stall_window=48),
        )
        expected = plain.run_traces(traces)
        output = guarded.run_traces(traces)
        assert output.counters.as_dict() == expected.counters.as_dict(), seed
        assert output.per_sm_cycles == expected.per_sm_cycles, seed


def test_campaign_is_deterministic(detections):
    """Same seed, same fault: trigger points and detections repeat."""
    for kind in ("corrupt_entry", "stuck_warp"):
        assert FaultSpec.seeded(kind, 0) == FaultSpec.seeded(kind, 0)
        again = _detect(kind, 0)
        assert type(again) is type(detections[kind, 0])
        assert again.diagnostics() == detections[kind, 0].diagnostics()


def test_unknown_fault_kind_rejected():
    with pytest.raises(ConfigError, match="unknown fault kind"):
        FaultSpec(kind="not_a_fault")
    with pytest.raises(ConfigError, match="trigger"):
        FaultSpec(kind="stuck_warp", trigger=0)


def test_injected_stall_raises_instead_of_hanging():
    """The acceptance scenario: a seeded no-progress loop terminates with
    a structured stall error rather than spinning forever."""
    traces = chaos_traces(rays=64, max_depth=16)
    with pytest.raises(SimulationStallError) as excinfo:
        run_with_fault(
            traces, FaultSpec(kind="stuck_warp", trigger=8), stall_window=32
        )
    error = excinfo.value
    assert error.cycle > 0 and error.warp_id is not None
    assert error.decisions, "scheduler decision log missing"
    assert error.stack_snapshots, "per-lane stack snapshots missing"


def test_injected_corruption_raises_invariant_error():
    traces = chaos_traces(rays=64, max_depth=16)
    with pytest.raises(InvariantViolationError, match="LIFO") as excinfo:
        run_with_fault(traces, FaultSpec(kind="corrupt_entry", trigger=100))
    assert isinstance(excinfo.value, GuardViolationError)


def test_chaos_traces_are_deterministic_and_deep():
    first = chaos_traces(rays=16, max_depth=12, seed=5)
    second = chaos_traces(rays=16, max_depth=12, seed=5)
    assert [
        [s.address for s in t.steps] for t in first
    ] == [[s.address for s in t.steps] for t in second]
    # the sawtooth actually reaches max_depth on the pinned rays
    assert max(len(t.steps) for t in first) >= 12
