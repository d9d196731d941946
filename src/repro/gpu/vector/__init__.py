"""The vector timing backend: SoA mirrors + plan-driven warp stepping.

``GPUSimulator(backend="vector")`` routes timing through this package;
the stepped loop stays the default and the bit-identity oracle.  Memory
is priced by the stepped ``MemoryHierarchy`` and bank conflicts by
``SharedMemorySim``, so the package holds no memory model of its own.
See ``docs/architecture.md`` §13 for the design and the validity
envelope.
"""

from repro.gpu.vector.plan import (
    BoundPlan,
    RawPlan,
    VectorUnsupported,
    vector_unsupported_reason,
    warp_plan,
)
from repro.gpu.vector.soa import (
    TraceSoA,
    WarpStateSoA,
    batch_warp_state,
    pack_trace,
    unpack_trace,
)
from repro.gpu.vector.unit import VectorRTUnit

__all__ = [
    "BoundPlan",
    "RawPlan",
    "TraceSoA",
    "VectorRTUnit",
    "VectorUnsupported",
    "WarpStateSoA",
    "batch_warp_state",
    "pack_trace",
    "unpack_trace",
    "vector_unsupported_reason",
    "warp_plan",
]
