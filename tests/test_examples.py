"""Smoke tests for the runnable examples (the fast ones, end to end)."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
EXAMPLES = REPO / "examples"


def example_env():
    """Subprocess environment with the package importable.

    The examples import ``repro`` from the src layout; an absolute
    ``PYTHONPATH`` entry keeps them runnable from any working directory
    (a relative ``PYTHONPATH=src`` breaks as soon as cwd is a tmp dir).
    """
    env = dict(os.environ)
    src = str(REPO / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def run_example(name, *args, timeout=240, cwd=REPO, cache_dir=None):
    """Run one example; ``cache_dir`` becomes its ``REPRO_CACHE_DIR``."""
    env = example_env()
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=timeout,
    )


def test_short_stack_walkthrough():
    result = run_example("short_stack_walkthrough.py")
    assert result.returncode == 0, result.stderr
    assert "push E" in result.stdout
    assert "GLOBAL store" in result.stdout
    assert "shared store" in result.stdout


def test_bank_mapping():
    result = run_example("bank_mapping.py", "8")
    assert result.returncode == 0, result.stderr
    assert "conflict degree 16" in result.stdout
    assert "conflict degree  2" in result.stdout


def test_overhead_report():
    result = run_example("overhead_report.py")
    assert result.returncode == 0, result.stderr
    assert "272" in result.stdout


def test_render_image(tmp_path):
    result = run_example("render_image.py", "SHIP", "16", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    ppm = tmp_path / "render_ship.ppm"
    assert ppm.exists()
    header = ppm.read_bytes()[:20]
    assert header.startswith(b"P6 16 16 255")


def test_warp_timeline(tmp_path):
    out = tmp_path / "t.json"
    result = run_example("warp_timeline.py", "SHIP", str(out))
    assert result.returncode == 0, result.stderr
    assert out.exists()
    assert "warps in flight" in result.stdout


def test_campaign_export(tmp_path):
    result = run_example("campaign_export.py", str(tmp_path),
                         cache_dir=tmp_path / "store")
    assert result.returncode == 0, result.stderr
    assert "running 5 configs x 3 scenes" in result.stdout
    with (tmp_path / "campaign.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 15
    assert {row["scene"] for row in rows} == {"SHIP", "CRNVL", "PARTY"}
    assert len(json.loads((tmp_path / "campaign.json").read_text())) == 15
    assert "| SHIP | 1.000 |" in result.stdout
    assert "RB_8               geomean 1.000" in result.stdout


def test_parallel_campaign(tmp_path):
    from repro.runtime.store import ResultStore

    store = tmp_path / "store"
    result = run_example("parallel_campaign.py", "2", str(store),
                         cache_dir=tmp_path / "default-store")
    assert result.returncode == 0, result.stderr
    assert "9/9 jobs, 0 cached, 9 simulated" in result.stdout
    assert ("cache served 9/9 jobs (100%); results identical: True"
            in result.stdout)
    assert len(ResultStore(store)) == 9
    assert not (tmp_path / "default-store").exists()


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "stack_depth_study.py",
        "design_space_sweep.py",
        "energy_comparison.py",
    ],
)
def test_example_compiles(name):
    """The heavier examples at least parse and carry a docstring."""
    source = (EXAMPLES / name).read_text()
    code = compile(source, name, "exec")
    assert code.co_consts[0], f"{name} missing module docstring"
