"""Shared benchmark fixtures.

Every benchmark regenerates one of the paper's tables/figures at the full
16-scene suite and prints the rows/series the paper reports.  One
session-wide workload cache serves every benchmark; its functional
traces come from the per-process phase-one memo.

Set ``REPRO_BENCH_SCALE`` (e.g. ``0.5``) to shrink the workload
resolution for quick smoke runs; ``1.0`` (default) is the scale used for
the numbers recorded in EXPERIMENTS.md.
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
