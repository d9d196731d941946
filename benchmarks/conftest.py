"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables/figures at the full
16-scene suite and prints the rows/series the paper reports.  One
session-wide workload cache serves every benchmark; its functional
traces come from the per-process phase-one memo.

``REPRO_BENCH_SCALE`` unset is the default: the reduced stand-in scenes
at the default resolution, the setting behind the numbers recorded in
EXPERIMENTS.md.  A value below 1.0 (e.g. ``0.5``) shrinks only the
workload resolution, for quick smoke runs.  A value of 1.0 or more also
selects paper-scale (Table II) geometry through
:func:`repro.workloads.lumibench.bench_scale`: CRNVL has 4,400 triangles
unset and 448,802 at 1.0.
"""

import os
import sys

import pytest

from repro.runtime.cache import CachedWorkloadCache
from repro.workloads.params import DEFAULT_PARAMS


def _scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


@pytest.fixture(scope="session")
def cache() -> CachedWorkloadCache:
    """Session-wide workload cache at the configured benchmark scale."""
    scale = _scale()
    params = DEFAULT_PARAMS if scale == 1.0 else DEFAULT_PARAMS.scaled(scale)
    return CachedWorkloadCache(params=params)


_CAPTURE_MANAGER = [None]


def pytest_configure(config):
    _CAPTURE_MANAGER[0] = config.pluginmanager.getplugin("capturemanager")


def report(title: str, body: str) -> None:
    """Print a figure/table report in a uniform, grep-friendly block.

    Capture is suspended around the print so the regenerated tables
    always reach the terminal / tee'd log — which is the point of the
    benchmark harness.
    """
    manager = _CAPTURE_MANAGER[0]
    if manager is not None:
        with manager.global_and_fixture_disabled():
            _emit(title, body)
    else:
        _emit(title, body)


def _emit(title: str, body: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(body)
    sys.stdout.flush()
