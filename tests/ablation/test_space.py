"""Knob-space declaration and validation tests."""

import json
from dataclasses import fields

import pytest

from repro.ablation import (
    KnobSpace,
    available_knobs,
    available_spaces,
    check_knob,
    generate_matrix,
    load_space,
    named_space,
    resolve_run,
    resolve_space,
    space_catalog,
)
from repro.core.presets import baseline_config, sms_config
from repro.errors import AblationError, ConfigError
from repro.gpu.config import GPUConfig


def make_space(**overrides):
    kwargs = dict(
        name="t",
        fixed={"rb_stack_entries": 8},
        ranges={"sh_stack_entries": [0, 8]},
    )
    kwargs.update(overrides)
    return KnobSpace(**kwargs)


def test_valid_space_builds():
    space = make_space()
    assert space.size == 2
    assert space.range_names == ["sh_stack_entries"]


def test_no_ranges_rejected():
    with pytest.raises(AblationError, match="no ranges"):
        make_space(ranges={})


def test_unknown_knob_in_ranges_rejected():
    with pytest.raises(AblationError, match="unknown knob 'warp_speed'"):
        make_space(ranges={"warp_speed": [1, 2]})


def test_unknown_knob_in_fixed_rejected():
    with pytest.raises(AblationError, match="unknown knob"):
        make_space(fixed={"nope": 1})


def test_empty_range_rejected():
    with pytest.raises(AblationError, match="empty range"):
        make_space(ranges={"sh_stack_entries": []})


def test_duplicate_range_value_rejected():
    with pytest.raises(AblationError, match="duplicate value"):
        make_space(ranges={"sh_stack_entries": [8, 8]})


def test_fixed_and_ranged_overlap_rejected():
    with pytest.raises(AblationError, match="both fixed and ranges"):
        make_space(
            fixed={"sh_stack_entries": 8},
            ranges={"sh_stack_entries": [0, 8]},
        )


def test_out_of_domain_value_rejected():
    with pytest.raises(AblationError, match="sh_stack_entries"):
        make_space(ranges={"sh_stack_entries": [-1, 8]})


def test_bool_knob_rejects_integers():
    with pytest.raises(AblationError, match="true/false"):
        make_space(ranges={"skewed_bank_access": [0, 1]})


def test_int_knob_rejects_bools():
    with pytest.raises(AblationError, match="integer"):
        make_space(ranges={"sh_stack_entries": [False, True]})


def test_choice_knob_rejects_unknown_choice():
    with pytest.raises(AblationError, match="spill_cache_policy"):
        make_space(ranges={"spill_cache_policy": ["uncached", "l3"]})


def test_int_knob_with_choices_rejects_other_values():
    """One RT unit per SM is all the simulator builds."""
    with pytest.raises(ConfigError, match="rt_units_per_sm"):
        GPUConfig(rt_units_per_sm=2)
    with pytest.raises(AblationError, match="rt_units_per_sm"):
        make_space(ranges={"rt_units_per_sm": [1, 2]})


def test_cache_geometry_the_models_reject_is_skipped():
    """SH_64 takes the whole 64 KB SRAM, leaving no L1D line."""
    matrix = generate_matrix(make_space(ranges={"sh_stack_entries": [8, 64]}))
    assert [run.knobs["sh_stack_entries"] for run in matrix.runs] == [8]
    assert [knobs["sh_stack_entries"] for knobs, _ in matrix.skipped] == [64]
    assert "L1D" in matrix.skipped[0][1]


def test_null_only_where_nullable():
    make_space(ranges={"rb_stack_entries": [8, None]}, fixed={})
    with pytest.raises(AblationError, match="does not accept null"):
        make_space(ranges={"sh_stack_entries": [None, 8]})


def test_unknown_scene_rejected():
    with pytest.raises(AblationError, match="unknown scene"):
        make_space(scenes=("WKND", "ATLANTIS"))


def test_scene_names_are_canonicalized():
    space = make_space(scenes=("wknd", "bunny"))
    assert space.scene_names() == ["WKND", "BUNNY"]


def test_size_is_range_product():
    space = make_space(ranges={
        "sh_stack_entries": [0, 4, 8],
        "skewed_bank_access": [False, True],
    })
    assert space.size == 6


def test_to_from_dict_round_trip():
    space = make_space(scenes=("WKND",))
    again = KnobSpace.from_dict(space.to_dict())
    assert again.to_dict() == space.to_dict()


def test_from_dict_rejects_non_object():
    with pytest.raises(AblationError, match="JSON object"):
        KnobSpace.from_dict([1, 2])


def test_from_dict_rejects_unknown_top_level_keys():
    with pytest.raises(AblationError, match="unknown top-level"):
        KnobSpace.from_dict({"ranges": {"sh_stack_entries": [0]}, "foo": 1})


def test_from_dict_rejects_non_list_range():
    with pytest.raises(AblationError, match="JSON list"):
        KnobSpace.from_dict({"ranges": {"sh_stack_entries": 8}})


def test_load_space_missing_file(tmp_path):
    with pytest.raises(AblationError, match="cannot read"):
        load_space(tmp_path / "nope.json")


def test_load_space_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(AblationError, match="malformed JSON"):
        load_space(path)


def test_load_space_takes_name_from_stem(tmp_path):
    path = tmp_path / "mystudy.json"
    path.write_text(json.dumps({"ranges": {"sh_stack_entries": [0, 8]}}))
    assert load_space(path).name == "mystudy"


def test_registry_covers_strategy_pseudo_knob():
    """The knobs are GPUConfig's fields plus the strategy pseudo-knob."""
    assert available_knobs() == sorted(
        [spec.name for spec in fields(GPUConfig)] + ["strategy"]
    )
    check_knob("strategy", "sms")
    with pytest.raises(AblationError, match="strategy"):
        check_knob("strategy", "breadth-first")
    assert resolve_run({"strategy": "stackless"}).strategy == "stackless"


#: A value inside and a value outside the domain of every GPUConfig
#: field; the inside value is the least the field accepts wherever the
#: field has a lower bound.
_FIELD_CASES = {
    "num_sms": (1, 0),
    "warp_size": (1, 0),
    "rt_units_per_sm": (1, 0),
    "max_warps_per_rt_unit": (1, 0),
    "rb_stack_entries": (None, 0),
    "sh_stack_entries": (0, -1),
    "skewed_bank_access": (True, 1),
    "intra_warp_realloc": (True, "yes"),
    "inter_warp_realloc": (False, None),
    "max_borrows": (1, 0),
    "max_flushes": (0, -1),
    "unified_cache_bytes": (128, 127),
    "l1_latency": (1, 0),
    "line_bytes": (16, 15),
    "l2_bytes": (2048, 127),
    "l2_assoc": (1, 0),
    "l2_latency": (1, 0),
    "l2_service_cycles": (1, 0),
    "dram_latency": (1, 0),
    "dram_service_cycles": (1, 0),
    "shared_latency": (1, 0),
    "bank_conflict_penalty": (0, -1),
    "l1_port_cycles": (0, -1),
    "shared_port_cycles": (0, 2.0),
    "box_test_cycles": (0, -1),
    "tri_test_cycles": (0, True),
    "spill_cache_policy": ("l2", "l3"),
    "shader_pollution_lines": (0, -5),
    "l1d_bytes_override": (None, 0),
}


def test_field_cases_cover_every_config_field():
    assert sorted(_FIELD_CASES) == sorted(
        spec.name for spec in fields(GPUConfig)
    )


@pytest.mark.parametrize("name", sorted(_FIELD_CASES))
def test_config_and_knob_space_share_each_field_domain(name):
    """GPUConfig and a knob space accept and reject the same values."""
    inside, outside = _FIELD_CASES[name]
    config = GPUConfig(**{name: inside})
    KnobSpace(name="t", ranges={name: [inside]})
    assert resolve_run({name: inside}).config == config
    with pytest.raises(ConfigError, match=name):
        GPUConfig(**{name: outside})
    with pytest.raises(AblationError, match=name):
        KnobSpace(name="t", ranges={name: [outside]})


def test_every_named_space_is_valid_and_expands():
    assert available_spaces() == sorted(available_spaces())
    for name in available_spaces():
        space = named_space(name)
        matrix = generate_matrix(space)
        assert len(matrix) >= 2
        assert space_catalog()[name]


def test_named_space_unknown_name():
    with pytest.raises(AblationError, match="unknown knob space"):
        named_space("figure-of-doom")


def test_resolve_space_prefers_names_then_paths(tmp_path):
    assert resolve_space("mechanisms").name == "mechanisms"
    path = tmp_path / "own.json"
    path.write_text(json.dumps({"ranges": {"sh_stack_entries": [0, 8]}}))
    assert resolve_space(str(path)).name == "own"


_STUDY_CONFIGS = {
    "bounds": [
        sms_config().with_(max_borrows=borrows, max_flushes=flushes)
        for borrows in (1, 2, 4, 8) for flushes in (0, 1, 3, 6)
    ],
    "skew": [
        sms_config(sh_entries=size, skewed=skewed, realloc=False)
        for size in (4, 8, 16) for skewed in (False, True)
    ],
    "spill_policy": [
        baseline_config(spill_cache_policy=policy)
        for policy in ("uncached", "l2", "l1")
    ],
    "occupancy": [
        baseline_config(max_warps_per_rt_unit=warps) for warps in (1, 2, 4, 8)
    ],
    "inter_warp": [
        sms_config(rb_entries=rb, sh_entries=sh, inter_warp=inter_warp)
        for inter_warp in (False, True) for rb in (2, 8) for sh in (2, 8)
    ],
}


@pytest.mark.parametrize("name", sorted(_STUDY_CONFIGS))
def test_study_space_runs_the_preset_configs(name):
    """Each study space's design points are its study's preset configs,
    in matrix order."""
    matrix = generate_matrix(named_space(name))
    assert not matrix.skipped
    assert [run.config for run in matrix.runs] == _STUDY_CONFIGS[name]


@pytest.mark.parametrize("name", ["bounds", "occupancy", "spill_policy"])
def test_off_ladder_design_points_have_distinct_labels(name):
    """Runs that differ only in knobs the RB/SH/SK/RA/IW label omits
    must still be told apart in tables and Pareto frontiers."""
    labels = [run.label for run in generate_matrix(named_space(name)).runs]
    assert len(set(labels)) == len(labels), labels
