"""The vector timing backend: per-warp plans priced once, replayed by warp.

``GPUSimulator(backend="vector")`` routes timing through this package;
the stepped loop stays the default and the bit-identity oracle.  Memory
is priced by the stepped ``MemoryHierarchy`` and bank conflicts by
``SharedMemorySim``, so the package holds no memory model of its own.
See ``docs/architecture.md`` §13 for the design and the validity
envelope.
"""

from repro.gpu.vector.plan import (
    VectorUnsupported,
    WarpPlan,
    vector_unsupported_reason,
    warp_plan,
)
from repro.gpu.vector.unit import VectorRTUnit

__all__ = [
    "VectorRTUnit",
    "VectorUnsupported",
    "WarpPlan",
    "vector_unsupported_reason",
    "warp_plan",
]
