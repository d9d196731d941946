"""GPU configuration tests."""

import hashlib
import json
from dataclasses import asdict, fields

import pytest

from repro.core.presets import named_config
from repro.errors import ConfigError
from repro.gpu.config import FIELD_DOMAINS, GPUConfig, KB


def test_defaults_match_table1_organization():
    config = GPUConfig()
    assert config.num_sms == 8
    assert config.warp_size == 32
    assert config.max_warps_per_rt_unit == 4
    assert config.rb_stack_entries == 8
    assert config.unified_cache_bytes == 64 * KB


def test_shared_carveout_zero_without_sh_stack():
    config = GPUConfig(sh_stack_entries=0)
    assert config.shared_memory_bytes == 0
    assert config.l1d_bytes == 64 * KB


def test_paper_sram_split_8kb():
    """Paper IV-B: SH_8 -> 8 KB shared + 56 KB L1D."""
    config = GPUConfig(sh_stack_entries=8)
    assert config.shared_memory_bytes == 8 * KB
    assert config.l1d_bytes == 56 * KB


def test_sh16_doubles_carveout():
    config = GPUConfig(sh_stack_entries=16)
    assert config.shared_memory_bytes == 16 * KB
    assert config.l1d_bytes == 48 * KB


def test_l1d_override():
    config = GPUConfig(l1d_bytes_override=128 * KB)
    assert config.l1d_bytes == 128 * KB


def test_full_stack_config():
    config = GPUConfig(rb_stack_entries=None)
    assert config.describe() == "RB_FULL"


def test_describe_labels():
    assert GPUConfig().describe() == "RB_8"
    assert GPUConfig(rb_stack_entries=4).describe() == "RB_4"
    assert GPUConfig(sh_stack_entries=8).describe() == "RB_8+SH_8"
    assert (
        GPUConfig(sh_stack_entries=8, skewed_bank_access=True).describe()
        == "RB_8+SH_8+SK"
    )
    assert (
        GPUConfig(
            sh_stack_entries=8, skewed_bank_access=True, intra_warp_realloc=True
        ).describe()
        == "RB_8+SH_8+SK+RA"
    )


def test_with_creates_modified_copy():
    base = GPUConfig()
    changed = base.with_(rb_stack_entries=16)
    assert changed.rb_stack_entries == 16
    assert base.rb_stack_entries == 8


def test_threads_per_rt_unit():
    assert GPUConfig().threads_per_rt_unit == 128


def test_invalid_rb_entries():
    with pytest.raises(ConfigError):
        GPUConfig(rb_stack_entries=0)


def test_full_stack_with_sh_rejected():
    with pytest.raises(ConfigError):
        GPUConfig(rb_stack_entries=None, sh_stack_entries=8)


def test_sh_stack_cannot_exceed_sram():
    with pytest.raises(ConfigError):
        GPUConfig(sh_stack_entries=1024)


def test_invalid_spill_policy():
    with pytest.raises(ConfigError):
        GPUConfig(spill_cache_policy="bogus")


def test_negative_sh_entries_rejected():
    with pytest.raises(ConfigError):
        GPUConfig(sh_stack_entries=-1)


def test_domain_table_lists_every_field_in_order():
    assert list(FIELD_DOMAINS) == [spec.name for spec in fields(GPUConfig)]


@pytest.mark.parametrize("overrides", [
    {"max_borrows": 0, "sh_stack_entries": 8, "intra_warp_realloc": True},
    {"max_flushes": -1},
    {"l2_service_cycles": 0},
    {"shader_pollution_lines": -5},
    {"bank_conflict_penalty": -1},
    {"rt_units_per_sm": 0},
], ids=lambda overrides: next(iter(overrides)))
def test_out_of_domain_field_rejected(overrides):
    with pytest.raises(ConfigError, match=next(iter(overrides))):
        GPUConfig(**overrides)


@pytest.mark.parametrize("overrides", [
    {"sh_stack_entries": 64},
    {"l1d_bytes_override": 64},
    {"l1d_bytes_override": 200},
    {"l2_bytes": 384},
], ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()))
def test_cache_geometry_the_models_reject_fails_at_construction(overrides):
    """An L1D of no whole line (SH_64 takes all 64 KB; 64 B; 200 B) or
    an L2 whose 3 lines cannot fill 16 ways never reaches a job."""
    with pytest.raises(ConfigError, match="L1D|L2"):
        GPUConfig(**overrides)


#: Fig. 13's configurations and the first 8 hex digits of the SHA-256
#: of each one's sorted ``asdict`` JSON: the digest the benchmark's
#: pinned cell ids carry, and the one every job key builds on.
FIG13_CONFIG_DIGESTS = {
    "RB_8": "b4a13007",
    "RB_8+SH_8": "a5420362",
    "RB_8+SH_8+SK": "b53ec34e",
    "RB_8+SH_8+SK+RA": "070c4ea6",
    "RB_FULL": "cbcec666",
}


@pytest.mark.parametrize("label", sorted(FIG13_CONFIG_DIGESTS))
def test_config_digest_is_pinned(label):
    """Adding, renaming, reordering or re-defaulting a field moves it."""
    blob = json.dumps(asdict(named_config(label)), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest()[:8] == FIG13_CONFIG_DIGESTS[label]
