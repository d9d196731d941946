"""The integrity layer observes every strategy without perturbing it."""

import pytest

from repro.core.api import time_traces
from repro.core.presets import sms_config
from repro.errors import InvariantViolationError
from repro.guard.config import GuardConfig
from repro.guard.invariants import GuardContext, GuardedStack
from repro.traversal import resolve_strategy
from repro.traversal.stackless import StacklessState


def _int_counters(result):
    return {
        key: value
        for key, value in result.counters.as_dict().items()
        if isinstance(value, int)
    }


@pytest.mark.parametrize("name", ["sms", "stackless", "reorder"])
def test_guard_is_transparent_for_every_strategy(small_bvh, name):
    strategy = resolve_strategy(name)
    workload = strategy.build_workload(
        small_bvh, width=6, height=6, spp=1, max_bounces=2, seed=5
    )
    config = sms_config()
    plain = time_traces(workload.all_traces, config=config,
                        verify_pops=False, strategy=strategy)
    guarded = time_traces(workload.all_traces, config=config,
                          verify_pops=False, strategy=strategy,
                          guard=GuardConfig())
    assert _int_counters(plain) == _int_counters(guarded)


def test_guarded_stackless_run_completes_clean(small_bvh):
    strategy = resolve_strategy("stackless")
    workload = strategy.build_workload(
        small_bvh, width=6, height=6, spp=1, max_bounces=2, seed=5
    )
    result = time_traces(workload.all_traces, config=sms_config(),
                         verify_pops=False, strategy=strategy,
                         guard=GuardConfig())
    assert result.counters.stack_global_ops == 0
    assert result.counters.stack_shared_ops == 0


def test_guard_degrades_to_structural_only_without_a_stack():
    guard = GuardedStack(StacklessState(warp_size=32), GuardContext())
    assert guard.structural_only
    guard.verify()  # zero ops, zero traffic: clean


def test_structural_guard_rejects_stack_ops():
    guard = GuardedStack(StacklessState(warp_size=32), GuardContext())
    with pytest.raises(InvariantViolationError, match="stackless"):
        guard.push(0, 0x40)
    with pytest.raises(InvariantViolationError):
        guard.pop(0)


def test_stack_backed_guard_keeps_full_checking():
    from repro.stack.factory import make_stack_model

    guard = GuardedStack(make_stack_model(sms_config()), GuardContext())
    assert not guard.structural_only
