"""Vector-path invariant sampling.

The full guard layer (shadow stacks, watchdog) wraps every
stack-model call and therefore only runs on the stepped oracle — a
guarded run is one of the vector backend's fallback conditions.  To
keep the vector path from becoming an unchecked fast lane, the plan
builder (:func:`repro.gpu.vector.plan.warp_plan`) samples warps
(``warp_id % SAMPLE_STRIDE == 0``) and cross-checks the canonical
stack-model replay against the traces themselves:

* the model's per-lane depth must equal the lane's running count of
  pushes minus pops, which the plan pass keeps from each step, at
  sampled iterations;
* SMS RB occupancy (via :meth:`~repro.stack.sms.SmsStack.soa_state`)
  must respect the configured register-stack bound;
* the finished plan's counter totals must satisfy the conservation
  laws the full guard asserts per drain step (loads never exceed
  stores, warp steps equal the structural iteration count).

Violations raise :class:`~repro.errors.InvariantViolationError`, the
same error type the full guard uses, so the executor's handling
(fail fast, no retry) applies unchanged.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import InvariantViolationError
from repro.gpu.config import GPUConfig

__all__ = ["VectorPlanSampler"]


class VectorPlanSampler:
    """Spot-checks one sampled warp's plan replay against its traces."""

    #: Check every this-many iterations of a sampled warp's replay.
    stride = 16

    def __init__(self, warp_id: int, config: GPUConfig) -> None:
        self.warp_id = warp_id
        self.config = config

    def check_iteration(
        self, model, depths: Dict[int, int], k: int
    ) -> None:
        """Depth and occupancy invariants after replaying iteration ``k``.

        ``depths`` maps each lane active at ``k`` to its pushes minus
        pops so far, counted from its trace.
        """
        for lane, expected in depths.items():
            actual = model.depth(lane)
            if actual != expected:
                raise InvariantViolationError(
                    f"vector replay diverged from its trace: lane "
                    f"{lane} depth {actual} != {expected} pushes minus "
                    f"pops at iteration {k}",
                    warp_id=self.warp_id, lane=lane, component="vector",
                )
        soa_state = getattr(model, "soa_state", None)
        if soa_state is None:
            return
        occupancy = soa_state()
        rb_limit = self.config.rb_stack_entries
        if rb_limit is not None and int(occupancy["rb"].max()) > rb_limit:
            raise InvariantViolationError(
                f"vector replay overfilled an RB stack: occupancy "
                f"{int(occupancy['rb'].max())} > {rb_limit} entries at "
                f"iteration {k}",
                warp_id=self.warp_id, component="vector",
            )
        if int(occupancy["sh"].min()) < 0 or int(occupancy["global"].min()) < 0:
            raise InvariantViolationError(
                "vector replay produced negative stack occupancy",
                warp_id=self.warp_id, component="vector",
            )

    def check_totals(self, totals: dict, n_iters: int) -> None:
        """Conservation laws over the finished plan's counter totals.

        ``n_iters`` is the warp's longest trace, in steps.
        """
        if totals["stack_shared_loads"] > totals["stack_shared_stores"]:
            raise InvariantViolationError(
                f"vector plan loads {totals['stack_shared_loads']} shared "
                f"entries but only {totals['stack_shared_stores']} were "
                f"ever stored",
                warp_id=self.warp_id, component="vector",
            )
        if totals["stack_global_loads"] > totals["stack_global_stores"]:
            raise InvariantViolationError(
                f"vector plan reloads {totals['stack_global_loads']} "
                f"spilled entries but only "
                f"{totals['stack_global_stores']} were ever spilled",
                warp_id=self.warp_id, component="vector",
            )
        if totals["warp_steps"] != n_iters:
            raise InvariantViolationError(
                f"vector plan priced {totals['warp_steps']} iterations "
                f"for a {n_iters}-iteration warp",
                warp_id=self.warp_id, component="vector",
            )
