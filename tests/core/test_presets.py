"""Configuration preset and name-parsing tests."""

import pytest

from repro.core.presets import (
    baseline_config,
    full_stack_config,
    named_config,
    sms_config,
    table1_config,
)
from repro.errors import ConfigError


def test_baseline_defaults():
    config = baseline_config()
    assert config.rb_stack_entries == 8
    assert config.sh_stack_entries == 0


def test_full_stack():
    assert full_stack_config().rb_stack_entries is None


def test_sms_defaults_to_paper_design():
    config = sms_config()
    assert config.rb_stack_entries == 8
    assert config.sh_stack_entries == 8
    assert config.skewed_bank_access
    assert config.intra_warp_realloc


def test_table1_restores_3mb_l2():
    assert table1_config().l2_bytes == 3 * 1024 * 1024


def test_named_baseline():
    assert named_config("RB_8").describe() == "RB_8"
    assert named_config("RB_2").rb_stack_entries == 2


def test_named_full():
    assert named_config("RB_FULL").rb_stack_entries is None


def test_named_sms_variants():
    assert named_config("RB_8+SH_8").sh_stack_entries == 8
    assert named_config("RB_8+SH_8+SK").skewed_bank_access
    assert not named_config("RB_8+SH_8+SK").intra_warp_realloc
    full = named_config("RB_4+SH_16+SK+RA")
    assert full.rb_stack_entries == 4
    assert full.sh_stack_entries == 16
    assert full.skewed_bank_access and full.intra_warp_realloc


def test_named_roundtrips_describe():
    for name in ["RB_2", "RB_8", "RB_FULL", "RB_8+SH_4", "RB_8+SH_8+SK",
                 "RB_8+SH_8+SK+RA"]:
        assert named_config(name).describe() == name


def test_named_rejects_garbage():
    for bad in ["RB", "SH_8", "RB_8+RA", "RB_8+SK", "RB_FULL+SH_8", "rbx"]:
        with pytest.raises(ConfigError):
            named_config(bad)


@pytest.mark.parametrize("label", ["RB_8+SH_0", "RB_08", "RB_FULL+SK"])
def test_named_rejects_non_canonical_labels(label):
    """A label parses only when it is the one its config describes."""
    with pytest.raises(ConfigError, match="not canonical"):
        named_config(label)


def test_named_accepts_overrides():
    config = named_config("RB_8", num_sms=2)
    assert config.num_sms == 2


def test_named_strips_whitespace():
    assert named_config("  RB_8 ").describe() == "RB_8"
