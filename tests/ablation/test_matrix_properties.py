"""Property-based run-matrix guarantees (hypothesis).

The four invariants the campaign stack leans on:

* run IDs are content-derived — insertion order of the knob dict (and
  of the declaring ``fixed``/``ranges`` dicts) never changes them;
* a matrix never contains two runs with the same ID (no duplicate
  configurations);
* every surviving run resolves to a *valid* ``GPUConfig`` whose fields
  match the knob assignment, and every rejected combination is
  accounted for in ``skipped`` (valid + skipped = the declared size);
* the matrix is a subset of the declared space: every run's knob
  values come verbatim from ``fixed`` or the respective range.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.ablation import (
    KnobSpace,
    check_knob,
    generate_matrix,
    run_id,
)
from repro.errors import AblationError
from repro.gpu.config import GPUConfig

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

KB = 1024

#: Knobs the generator draws ranges from, with their example pools.
_POOL = {
    # Traversal-stack architecture.
    "rb_stack_entries": [2, 4, 8, 16, None],
    "sh_stack_entries": [0, 4, 8, 16],
    "skewed_bank_access": [False, True],
    "intra_warp_realloc": [False, True],
    "inter_warp_realloc": [False, True],
    "max_borrows": [1, 2, 4, 8],
    "max_flushes": [0, 1, 3, 6],
    # Scheduler / occupancy.
    "max_warps_per_rt_unit": [1, 2, 4, 8],
    # Cache geometry.
    "unified_cache_bytes": [32 * KB, 64 * KB, 128 * KB],
    "l2_bytes": [128 * KB, 256 * KB, 512 * KB],
    "l2_assoc": [4, 8, 16],
    "line_bytes": [64, 128],
    # Latencies and port occupancies.
    "l1_latency": [10, 20, 40],
    "l2_latency": [80, 160, 320],
    "dram_latency": [110, 220, 440],
    "shared_latency": [10, 20, 40],
    "bank_conflict_penalty": [0, 2, 4, 8],
    "l2_service_cycles": [8, 16, 32],
    "dram_service_cycles": [1, 2, 4],
    # Spill cacheability and background pressure.
    "spill_cache_policy": ["uncached", "l2", "l1"],
    "shader_pollution_lines": [0, 24, 48, 96],
    # Traversal strategy (job-level, not a GPUConfig field).
    "strategy": ["sms", "stackless", "reorder"],
}


def knob_assignments():
    """A resolved knob assignment drawn from the registry examples."""
    return st.dictionaries(
        st.sampled_from(sorted(_POOL)),
        st.none(),
        min_size=1,
        max_size=5,
    ).flatmap(
        lambda keys: st.fixed_dictionaries(
            {name: st.sampled_from(_POOL[name]) for name in keys}
        )
    )


def knob_spaces():
    """A small valid KnobSpace over the registry examples."""

    def build(names_and_seed):
        names, seed = names_and_seed
        range_names = names[: max(1, len(names) - 1)]
        fixed_names = names[len(range_names):]
        ranges = {}
        for offset, name in enumerate(range_names):
            pool = _POOL[name]
            take = 1 + (seed + offset) % len(pool)
            ranges[name] = pool[:take]
        fixed = {name: _POOL[name][seed % len(_POOL[name])]
                 for name in fixed_names}
        return KnobSpace(name="prop", fixed=fixed, ranges=ranges)

    return st.tuples(
        st.lists(st.sampled_from(sorted(_POOL)), min_size=1, max_size=4,
                 unique=True),
        st.integers(min_value=0, max_value=7),
    ).map(build)


def expand(space):
    """Expand, discarding the rare draw whose every combination is
    structurally invalid (generate_matrix refuses empty matrices)."""
    try:
        return generate_matrix(space)
    except AblationError:
        assume(False)


@SETTINGS
@given(knobs=knob_assignments(), seed=st.randoms(use_true_random=False))
def test_run_id_invariant_under_key_reordering(knobs, seed):
    names = list(knobs)
    seed.shuffle(names)
    reordered = {name: knobs[name] for name in names}
    assert run_id(reordered) == run_id(knobs)


@SETTINGS
@given(space=knob_spaces())
def test_matrix_has_no_duplicate_runs(space):
    matrix = expand(space)
    ids = [run.id for run in matrix.runs]
    assert len(ids) == len(set(ids))
    assignments = [
        tuple(sorted(run.knobs.items())) for run in matrix.runs
    ]
    assert len(assignments) == len(set(assignments))


@SETTINGS
@given(space=knob_spaces())
def test_every_run_is_a_valid_config_and_all_cells_accounted(space):
    matrix = expand(space)
    assert len(matrix.runs) + len(matrix.skipped) == space.size
    for run in matrix.runs:
        assert isinstance(run.config, GPUConfig)
        for name in sorted(run.knobs):
            check_knob(name, run.knobs[name])
            if name == "strategy":
                assert run.strategy == run.knobs[name]
            else:
                assert getattr(run.config, name) == run.knobs[name]


@SETTINGS
@given(space=knob_spaces())
def test_matrix_is_subset_of_declared_space(space):
    matrix = expand(space)
    for run in matrix.runs:
        assert sorted(run.knobs) == sorted(
            list(space.fixed) + space.range_names
        )
        for name in sorted(space.fixed):
            assert run.knobs[name] == space.fixed[name]
        for name in space.range_names:
            assert run.knobs[name] in space.ranges[name]
    # Skipped combinations also came from the declared space.
    for knobs, reason in matrix.skipped:
        assert reason
        for name in space.range_names:
            assert knobs[name] in space.ranges[name]


@SETTINGS
@given(space=knob_spaces())
def test_matrix_generation_is_deterministic(space):
    first = expand(space)
    second = expand(space)
    assert [run.id for run in first.runs] == [run.id for run in second.runs]
    assert first.skipped == second.skipped
