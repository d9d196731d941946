"""Lint settings: where each rule family applies in this repository.

The defaults are this repository's settings; ``repro lint`` always runs
with them.  Tests build a :class:`LintConfig` with other values to point
a rule at a fixture.

``exclude``
    Path prefixes / glob patterns never linted (rule fixtures live here).
``timing_critical``
    Packages whose code runs under the simulated clock;
    ``scope="timing"`` rules only fire inside these.
``singletons``
    Module-level singleton names whose mutation SL201 flags, in addition
    to the ALL_CAPS naming convention.
``counter_owners``
    Packages allowed to write ``Counters`` fields (SL203).
``print_allowed``
    Modules where ``print()`` is the job (SL402).
``vector_packages``
    Packages holding the vector timing backend; the SL6xx vector family
    (``scope="vector"``) only fires inside these.
``soa_cache_writers``
    Function names sanctioned to mutate the vector plans cached on
    ``RayTrace._vector_cache`` (SL602).
``taint_sinks``
    Function names whose return value is a content key / cache salt —
    the determinism taint engine (SL110) rejects tainted returns here.
``test_families``
    Rule categories that also run against ``tests/`` files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass
class LintConfig:
    """Lint settings for one run; the defaults describe this repository."""

    exclude: Tuple[str, ...] = ("tests/simlint/fixtures",)
    timing_critical: Tuple[str, ...] = (
        "repro.gpu", "repro.stack", "repro.trace", "repro.traversal",
        "repro.ablation",
    )
    singletons: Tuple[str, ...] = (
        "EMPTY_ACTIVITY", "DEFAULT_PARAMS", "SCENE_NAMES", "RULES",
    )
    counter_owners: Tuple[str, ...] = ("repro.gpu",)
    print_allowed: Tuple[str, ...] = ("repro.cli",)
    vector_packages: Tuple[str, ...] = ("repro.gpu.vector",)
    soa_cache_writers: Tuple[str, ...] = ("trace_cache", "warp_plan")
    taint_sinks: Tuple[str, ...] = (
        "key", "spec", "content_key", "cache_key", "salt", "phase_key",
    )
    test_families: Tuple[str, ...] = ("determinism", "hygiene")
