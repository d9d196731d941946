"""Bounding volume hierarchies.

Builds the acceleration structure the paper's RT unit traverses: a binary
median BVH collapsed into a wide BVH (``BVHk``, default ``k = 6`` as in
the paper's Fig. 3 walkthrough), laid out into a simulated global-memory
address space so the timing model sees realistic node-fetch addresses.
"""

from repro.bvh.builder import NO_NODE, BinaryBVH, build_binary_bvh
from repro.bvh.wide import WideBVH, collapse_to_wide
from repro.bvh.layout import assign_addresses, MemoryLayout
from repro.bvh.stats import BVHStats, compute_stats
from repro.bvh.validate import validate_binary, validate_wide
from repro.bvh.api import build_bvh

__all__ = [
    "NO_NODE",
    "BinaryBVH",
    "build_binary_bvh",
    "WideBVH",
    "collapse_to_wide",
    "assign_addresses",
    "MemoryLayout",
    "BVHStats",
    "compute_stats",
    "validate_binary",
    "validate_wide",
    "build_bvh",
]
