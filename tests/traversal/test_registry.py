"""Strategy registry semantics and per-strategy config adaptation."""

import pytest

from repro.errors import ConfigError
from repro.gpu.config import GPUConfig
from repro.traversal import (
    ReorderStrategy,
    StackStrategy,
    StacklessStrategy,
    TraversalStrategy,
    available_strategies,
    register_strategy,
    resolve_strategy,
)
from repro.traversal.registry import _REGISTRY


def test_builtins_registered():
    names = available_strategies()
    for expected in ("sms", "stackless", "reorder"):
        assert expected in names
    assert names == sorted(names)


def test_resolve_by_name_and_case():
    assert isinstance(resolve_strategy("sms"), StackStrategy)
    assert isinstance(resolve_strategy("STACKLESS"), StacklessStrategy)
    assert isinstance(resolve_strategy("Reorder"), ReorderStrategy)


def test_resolve_none_is_default_sms():
    strategy = resolve_strategy(None)
    assert isinstance(strategy, StackStrategy)
    assert strategy.name == "sms"


def test_resolve_instance_passthrough():
    strategy = ReorderStrategy()
    assert resolve_strategy(strategy) is strategy


def test_resolve_unknown_lists_available():
    with pytest.raises(ConfigError) as excinfo:
        resolve_strategy("warp-sort")
    assert "warp-sort" in str(excinfo.value)
    assert "sms" in str(excinfo.value)


def test_register_override_last_wins():
    class Custom(StackStrategy):
        name = "sms"

    original = _REGISTRY["sms"]
    try:
        register_strategy("sms", Custom)
        assert isinstance(resolve_strategy("sms"), Custom)
    finally:
        register_strategy("sms", original)
    assert not isinstance(resolve_strategy("sms"), Custom)


def test_every_builtin_describes_itself():
    for name in available_strategies():
        strategy = resolve_strategy(name)
        assert isinstance(strategy, TraversalStrategy)
        assert strategy.name == name
        assert strategy.describe()


def test_sms_adapt_config_is_identity():
    config = GPUConfig()
    assert StackStrategy().adapt_config(config) is config


def test_stackless_frees_shared_memory_carveout():
    config = GPUConfig(rb_stack_entries=8, sh_stack_entries=8,
                       skewed_bank_access=True, intra_warp_realloc=True)
    adapted = StacklessStrategy().adapt_config(config)
    assert adapted.sh_stack_entries == 0
    assert not adapted.skewed_bank_access
    # The SH carve-out returns to the L1D: capacity must not shrink.
    assert adapted.l1d_bytes >= config.l1d_bytes


def test_stackless_adapt_is_noop_when_already_bare():
    config = GPUConfig(rb_stack_entries=8, sh_stack_entries=0)
    assert StacklessStrategy().adapt_config(config) is config


def test_trace_keys_partition_phase_one():
    # Strategies that replay identical recorded traces share a key;
    # strategies that alter phase one must not.
    assert StacklessStrategy().trace_key() != StackStrategy().trace_key()
    assert ReorderStrategy().trace_key() != StackStrategy().trace_key()
