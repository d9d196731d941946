"""Stackless restart-trail traversal (Laine 2010, paper section VIII-A).

The paper's related work positions SMS against *stackless* methods: they
eliminate traversal-stack traffic entirely but pay for it with redundant
node visits — every backtrack restarts from the root, replaying the path
recorded in a small per-level trail.  This module implements the pure
restart-trail variant for wide BVHs so the trade-off can be measured:
:func:`restart_trail_trace` returns both the hit result and the visit
counts, and ``repro.experiments.ablations`` compares its traversal-step
overhead against the stack-based architectures.

The trail stores, per level of the current path, the next child slot to
consider (fixed slot order, so the trail stays valid as the closest-hit
distance shrinks).  Per-level state is a handful of bits — the storage
economy that motivates stackless designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.bvh.wide import WideBVH
from repro.geometry.intersect import ray_aabb_intersect_batch, ray_triangle_intersect
from repro.geometry.ray import Ray


@dataclass
class RestartTraceResult:
    """Outcome of one restart-trail traversal."""

    hit_prim: int
    hit_t: float
    node_visits: int     # total node visits including restart replays
    restarts: int        # how many times traversal restarted from the root
    max_trail_depth: int

    @property
    def hit(self) -> bool:
        """True when the ray intersected a primitive."""
        return self.hit_prim >= 0


def restart_trail_trace(bvh: WideBVH, ray: Ray) -> RestartTraceResult:
    """Closest-hit traversal with no stack: a per-level trail plus restarts.

    Children are considered in fixed slot order (not front-to-back), as
    the trail must index a stable sequence while the search interval
    shrinks.  Every completed subtree advances the parent's trail entry
    and restarts descent from the root; nodes revisited during the replay
    are counted in ``node_visits`` — the overhead stack-based traversal
    avoids.
    """
    scene = bvh.scene
    best_t = ray.t_max
    best_prim = -1
    trail: List[int] = []
    node_visits = 0
    restarts = 0
    max_depth = 0

    while True:
        node = bvh.root
        depth = 0
        ascended = False
        while not ascended:
            node_visits += 1
            if depth == len(trail):
                trail.append(0)
            max_depth = max(max_depth, depth + 1)
            count = int(bvh.child_count[node])
            if not count:
                for prim_id in bvh.leaf_prims(node):
                    clipped = Ray(ray.origin, ray.direction, ray.t_min, best_t)
                    t = ray_triangle_intersect(clipped, scene.triangle(prim_id))
                    if t is not None and t < best_t:
                        best_t = t
                        best_prim = prim_id
                ascended = True
                break
            first = int(bvh.first_child[node])
            clipped = Ray(ray.origin, ray.direction, ray.t_min, best_t)
            hit_mask, _ = ray_aabb_intersect_batch(
                clipped, bvh.lo[first : first + count], bvh.hi[first : first + count]
            )
            slot = trail[depth]
            while slot < count and not hit_mask[slot]:
                slot += 1
            trail[depth] = slot
            if slot >= count:
                ascended = True
                break
            node = first + slot
            depth += 1

        # The subtree rooted at `depth` is complete: advance the parent's
        # trail entry and replay from the root (or finish at the top).
        del trail[depth + 1 :]
        if depth == 0:
            break
        trail.pop()
        trail[depth - 1] += 1
        restarts += 1

    return RestartTraceResult(
        hit_prim=best_prim,
        hit_t=best_t if best_prim >= 0 else float("inf"),
        node_visits=node_visits,
        restarts=restarts,
        max_trail_depth=max_depth,
    )


def short_stack_restart_trace(
    bvh: WideBVH, ray: Ray, stack_entries: int = 4
) -> RestartTraceResult:
    """Laine's combined scheme: a bounded short stack plus the trail.

    Backtracking pops from a ``stack_entries``-deep stack when possible;
    pushes into a full stack drop the *oldest* entry (the shallowest
    pending sibling), and an empty-stack backtrack falls back to a
    trail-guided restart, which rediscovers any dropped siblings.  With a
    large enough stack no restart ever happens and visit counts equal the
    fixed-order DFS.  With ``stack_entries = 0`` it finds the same closest
    hit as :func:`restart_trail_trace`, but not always with the same node
    visits or restarts: a ray that never pushes ends here without a
    restart, while the trail scheme still restarts it, and some rays take
    more visits here than there.

    This is the approach the paper's section VIII-A positions SMS against:
    it removes stack *memory traffic* at the cost of replayed node visits.
    """
    scene = bvh.scene
    best_t = ray.t_max
    best_prim = -1
    trail: List[int] = []
    # Bounded stack of (node_index, depth, child_slot); drops at the bottom.
    stack: List[tuple] = []
    node_visits = 0
    restarts = 0
    max_depth = 0
    ever_dropped = False

    node = bvh.root
    depth = 0
    replay_limit = 0  # depths below this follow the trail directly
    while True:
        descend_target = None
        if depth == len(trail):
            trail.append(0)
        max_depth = max(max_depth, depth + 1)
        first = int(bvh.first_child[node])
        count = int(bvh.child_count[node])
        if depth < replay_limit - 1:
            # Trail replay after a restart: follow the recorded slot.
            node_visits += 1
            descend_target = first + trail[depth]
        else:
            node_visits += 1
            if not count:
                for prim_id in bvh.leaf_prims(node):
                    clipped = Ray(ray.origin, ray.direction, ray.t_min, best_t)
                    t = ray_triangle_intersect(clipped, scene.triangle(prim_id))
                    if t is not None and t < best_t:
                        best_t = t
                        best_prim = prim_id
            else:
                clipped = Ray(ray.origin, ray.direction, ray.t_min, best_t)
                hit_mask, _ = ray_aabb_intersect_batch(
                    clipped,
                    bvh.lo[first : first + count],
                    bvh.hi[first : first + count],
                )
                slot = trail[depth]
                while slot < count and not hit_mask[slot]:
                    slot += 1
                trail[depth] = slot
                if slot < count:
                    # Push the remaining hit siblings (nearest-slot pops
                    # first); drop the oldest entries beyond capacity.
                    for later in range(count - 1, slot, -1):
                        if hit_mask[later]:
                            stack.append((first + later, depth + 1, later))
                            if len(stack) > stack_entries:
                                # Drop the oldest (shallowest/farthest-slot)
                                # entry; the trail rediscovers it later.
                                stack.pop(0)
                                ever_dropped = True
                    descend_target = first + slot
        if descend_target is not None:
            node = descend_target
            depth += 1
            continue

        # Subtree at `depth` complete: backtrack — preferably by popping
        # the short stack; on underflow, by a trail-guided restart (which
        # also rediscovers any entries the bounded stack dropped).
        del trail[depth + 1 :]
        if stack:
            popped_node, popped_depth, popped_slot = stack.pop()
            del trail[popped_depth:]
            trail[popped_depth - 1] = popped_slot
            node = popped_node
            depth = popped_depth
            replay_limit = 0
            continue
        if not ever_dropped or depth == 0:
            # A never-overflowed stack is exhaustive: empty means done.
            # (At the root the trail itself is exhausted either way.)
            break
        trail.pop()
        trail[-1] += 1
        restarts += 1
        replay_limit = len(trail)
        node = bvh.root
        depth = 0

    return RestartTraceResult(
        hit_prim=best_prim,
        hit_t=best_t if best_prim >= 0 else float("inf"),
        node_visits=node_visits,
        restarts=restarts,
        max_trail_depth=max_depth,
    )
