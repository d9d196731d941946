"""Warp formation orderings.

Warps are formed from consecutive rays, so ray order controls intra-warp
coherence: coherent lanes visit the same BVH nodes (coalesced fetches,
aligned stack behaviour), divergent lanes scatter.  Real GPUs rasterize
pixels in small tiles for exactly this reason; these helpers reorder a
primary wave into tile-major order so the effect can be measured (see the
``warp_formation_study`` ablation).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import TraversalError
from repro.trace.events import RayTrace


def traversal_locality_key(trace: RayTrace, key_depth: int = 8) -> tuple:
    """A ray's predicted-locality signature: its first node addresses.

    Rays whose early traversals touch the same nodes fetch the same
    cache lines and push the same children when scheduled into one warp;
    the address prefix is the cheapest proxy for that (the treelet id of
    ray-reordering hardware proposals, e.g. Meister et al. 2506.11273).
    """
    return tuple(step.address for step in trace.steps[:key_depth])


def reorder_wave_by_locality(
    wave: Sequence[RayTrace], key_depth: int = 8
) -> List[RayTrace]:
    """Stable-sort one wave so rays sharing an early traversal footprint
    become warp neighbours.

    The sort is stable, so the result is a deterministic permutation of
    ``wave`` — the same multiset of traces, only the warp packing
    changes.
    """
    return sorted(
        wave, key=lambda trace: traversal_locality_key(trace, key_depth)
    )


def tiled_pixel_order(
    width: int, height: int, tile_w: int = 8, tile_h: int = 4
) -> List[int]:
    """Pixel indices in tile-major order (tiles scanned row-major).

    A 8x4 tile holds exactly one 32-lane warp's worth of pixels — the
    classic fragment-quad-style mapping.
    """
    if width <= 0 or height <= 0 or tile_w <= 0 or tile_h <= 0:
        raise TraversalError("tiled_pixel_order needs positive dimensions")
    order: List[int] = []
    for tile_y in range(0, height, tile_h):
        for tile_x in range(0, width, tile_w):
            for y in range(tile_y, min(tile_y + tile_h, height)):
                for x in range(tile_x, min(tile_x + tile_w, width)):
                    order.append(y * width + x)
    return order


def reorder_wave_tiled(
    wave: Sequence[RayTrace],
    width: int,
    height: int,
    tile_w: int = 8,
    tile_h: int = 4,
) -> List[RayTrace]:
    """Reorder one wave of pixel-indexed traces into tile-major order.

    Traces whose pixels repeat (multi-sample) keep their relative order;
    traces with pixels outside the image are appended at the end.
    """
    by_pixel: dict = {}
    for trace in wave:
        by_pixel.setdefault(trace.pixel, []).append(trace)
    ordered: List[RayTrace] = []
    for pixel in tiled_pixel_order(width, height, tile_w, tile_h):
        ordered.extend(by_pixel.pop(pixel, ()))
    # Out-of-image leftovers append in first-seen (insertion) order — a
    # documented part of this function's contract, not hash order.
    # simlint: disable=SL103
    for leftovers in by_pixel.values():
        ordered.extend(leftovers)
    return ordered
