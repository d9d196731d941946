"""Analysis / export module tests."""

import csv
import json

import pytest

from repro.analysis import (
    results_markdown,
    results_to_rows,
    write_csv,
    write_json,
)
from repro.core.presets import named_config
from repro.runtime.cache import CachedWorkloadCache
from repro.workloads.params import WorkloadParams


@pytest.fixture(scope="module")
def results():
    cache = CachedWorkloadCache(
        params=WorkloadParams().scaled(0.25), scene_names=["SHIP"]
    )
    return cache.run_jobs([
        cache.job_for("SHIP", named_config(label))
        for label in ("RB_8", "RB_FULL")
    ])


def test_rows_have_all_columns(results):
    from repro.analysis.export import COLUMNS

    rows = results_to_rows(results)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(COLUMNS)
        assert row["scene"] == "SHIP"


def test_csv_roundtrip(results, tmp_path):
    path = write_csv(results, tmp_path / "runs.csv")
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2
    assert float(rows[0]["ipc"]) > 0


def test_json_roundtrip(results, tmp_path):
    path = write_json(results, tmp_path / "runs.json")
    data = json.loads(path.read_text())
    assert len(data) == 2
    assert data[0]["config"] in ("RB_8", "RB_FULL")


def test_markdown_table(results):
    text = results_markdown(results, baseline_label="RB_8")
    assert "| scene |" in text
    assert "SHIP" in text
    assert "1.000" in text  # baseline normalized to itself


def test_markdown_handles_missing_baseline(results):
    text = results_markdown(results, baseline_label="NOPE")
    assert "SHIP" in text  # falls back to raw IPC
