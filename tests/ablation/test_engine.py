"""Engine tests: execution paths, determinism, persistence, dedup."""

import json
from dataclasses import replace

import pytest

from repro.ablation import (
    AblationReport,
    KnobSpace,
    REPORT_FILENAME,
    available_spaces,
    generate_matrix,
    load_report,
    matrix_jobs,
    named_space,
    render_json,
    run_space,
    write_report,
)
from repro.errors import AblationError
from repro.runtime.cache import CachedWorkloadCache
from repro.runtime.store import ResultStore
from repro.workloads.params import WorkloadParams

TINY = WorkloadParams(width=6, height=6, spp=1, max_bounces=2,
                      complex_width=6, complex_height=6, complex_spp=1)

SPACE = KnobSpace(
    name="engine-test",
    fixed={"rb_stack_entries": 8},
    ranges={"sh_stack_entries": [0, 8]},
    scenes=("WKND", "BUNNY"),
)


def test_matrix_jobs_are_scene_major_and_content_addressed():
    matrix = generate_matrix(SPACE)
    jobs = matrix_jobs(matrix, params=TINY)
    assert len(jobs) == 4
    assert [job.scene for job in jobs] == [
        "WKND", "WKND", "BUNNY", "BUNNY",
    ]
    assert len({job.key() for job in jobs}) == 4
    assert all(not job.guard for job in jobs)
    guarded = matrix_jobs(matrix, params=TINY, guard=True)
    assert all(job.guard for job in guarded)


@pytest.fixture(scope="module")
def small_cache():
    return CachedWorkloadCache(
        params=WorkloadParams().scaled(0.3), scene_names=["SHIP", "CRNVL"],
    )


@pytest.mark.parametrize("name", available_spaces())
def test_every_named_space_runs_end_to_end(small_cache, name):
    space = replace(named_space(name), scenes=tuple(small_cache.names))
    report = run_space(space, params=small_cache.params, cache=small_cache)
    assert report.run_ids == [run.id for run in generate_matrix(space).runs]
    assert set(report.speedups) == set(report.run_ids)
    assert report.importance
    assert report.pareto


def test_run_space_serial_report_shape():
    report = run_space(SPACE, params=TINY)
    assert len(report.runs) == 2
    assert report.importance_ranking() == ["sh_stack_entries"]
    for spec_id in report.run_ids:
        per_scene = report.runs[spec_id]["per_scene"]
        assert sorted(per_scene) == ["BUNNY", "WKND"]
        for cell in per_scene.values():
            assert cell["ipc"] > 0
            assert cell["cycles"] > 0
    assert report.pareto  # never empty: the cheapest point always survives
    assert set(report.speedups) == set(report.run_ids)


def test_reports_are_bit_identical_across_runs_and_pool():
    serial = run_space(SPACE, params=TINY)
    again = run_space(SPACE, params=TINY)
    assert render_json(serial) == render_json(again)


def test_pool_path_matches_serial_and_dedups(tmp_path):
    serial = run_space(SPACE, params=TINY)
    cache = CachedWorkloadCache(store=ResultStore(tmp_path / "store"))
    pooled = run_space(SPACE, params=TINY, cache=cache)
    assert render_json(pooled) == render_json(serial)
    # Every cell landed in the store; a re-run is served entirely from it.
    assert len(cache.store) == 4
    rerun = run_space(
        SPACE, params=TINY,
        cache=CachedWorkloadCache(store=ResultStore(tmp_path / "store")),
    )
    assert render_json(rerun) == render_json(serial)
    assert len(cache.store) == 4


def test_guarded_run_matches_unguarded_metrics():
    plain = run_space(SPACE, params=TINY)
    guarded = run_space(SPACE, params=TINY, guard=True)
    assert guarded.guard and not plain.guard
    assert guarded.per_scene_ipc() == plain.per_scene_ipc()


def test_write_then_load_round_trip(tmp_path):
    report = run_space(SPACE, params=TINY)
    path = write_report(report, tmp_path / "run")
    assert path.name == REPORT_FILENAME
    loaded = load_report(tmp_path / "run")
    assert loaded.to_dict() == report.to_dict()
    assert render_json(loaded) == render_json(report)
    # The file itself is canonical: rewriting is byte-identical.
    before = path.read_bytes()
    write_report(loaded, tmp_path / "run")
    assert path.read_bytes() == before


def test_load_report_missing_directory(tmp_path):
    with pytest.raises(AblationError, match="no such ablation run"):
        load_report(tmp_path / "missing")


def test_load_report_missing_file(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(AblationError, match="not an ablation run"):
        load_report(tmp_path / "empty")


def test_load_report_malformed_json(tmp_path):
    run_dir = tmp_path / "bad"
    run_dir.mkdir()
    (run_dir / REPORT_FILENAME).write_text("{broken")
    with pytest.raises(AblationError, match="malformed"):
        load_report(run_dir)


def test_from_dict_rejects_wrong_schema():
    report = run_space(SPACE, params=TINY)
    payload = report.to_dict()
    payload["schema"] = 99
    with pytest.raises(AblationError, match="schema"):
        AblationReport.from_dict(payload)


def test_from_dict_rejects_non_reports():
    with pytest.raises(AblationError, match="not an ablation report"):
        AblationReport.from_dict({"hello": "world"})


def test_executor_mismatch_detected():
    matrix = generate_matrix(SPACE)
    from repro.ablation.engine import _assemble

    with pytest.raises(AblationError, match="results for"):
        _assemble(matrix, TINY, False, [])


def test_report_json_has_no_wall_clock_fields():
    report = run_space(SPACE, params=TINY)
    blob = json.dumps(report.to_dict())
    for forbidden in ("time", "date", "host"):
        assert forbidden not in blob.lower()
