"""Workload execution parameters (paper section VII-A).

The paper renders most scenes at 128x128 with 2 spp and the three most
complex (CHSNT, ROBOT, PARK) at 32x32 with 1 spp, noting that trends are
consistent across workload sizes.  We apply the same two-tier scheme at
our scaled-down default resolution; both tiers are configurable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

#: Scenes the paper runs at reduced scale due to simulation cost.
COMPLEX_SCENES = ("CHSNT", "ROBOT", "PARK")


@dataclass(frozen=True)
class WorkloadParams:
    """Resolution/sampling for one simulation campaign."""

    width: int = 32
    height: int = 32
    spp: int = 1
    max_bounces: int = 3
    complex_width: int = 16
    complex_height: int = 16
    complex_spp: int = 1
    seed: int = 0

    def for_scene(self, scene_name: str) -> "tuple[int, int, int]":
        """(width, height, spp) for a given scene."""
        if scene_name.upper() in COMPLEX_SCENES:
            return self.complex_width, self.complex_height, self.complex_spp
        return self.width, self.height, self.spp

    def scaled(self, factor: float) -> "WorkloadParams":
        """A resolution-scaled copy (for quick test runs); each side is
        floored at 4 pixels, and ``factor`` must be positive."""
        if not factor > 0:
            raise ConfigError(f"scale must be positive, got {factor}")
        return WorkloadParams(
            width=max(4, int(self.width * factor)),
            height=max(4, int(self.height * factor)),
            spp=self.spp,
            max_bounces=self.max_bounces,
            complex_width=max(4, int(self.complex_width * factor)),
            complex_height=max(4, int(self.complex_height * factor)),
            complex_spp=self.complex_spp,
            seed=self.seed,
        )


#: Defaults used by the experiment drivers and benchmarks.
DEFAULT_PARAMS = WorkloadParams()
