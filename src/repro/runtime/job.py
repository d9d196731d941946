"""The job model: one simulation as a pure, content-addressed spec.

A :class:`SimulationJob` pins down everything that determines a
:class:`~repro.core.results.SimulationResult` — the scene, the full
:class:`~repro.gpu.config.GPUConfig`, and the workload resolution knobs
— in a frozen, picklable dataclass.  Because tracing and timing are both
deterministic, two jobs with equal specs produce bit-identical results,
so the spec's SHA-256 digest (:meth:`SimulationJob.key`) is a valid
content address for the result store.

The key also folds in a *code-version salt* (:func:`cache_salt`): bump
``repro.__version__`` (or set ``REPRO_CACHE_SALT``) and every previously
stored result is invalidated at once, because no new key can collide
with an old one.

Phase one (scene → BVH → traces) does not depend on the configuration,
so it has its own content address, :meth:`SimulationJob.phase_key`.
:meth:`SimulationJob.run` takes the result store it resolves under and
reads its traces from a small per-process memo, then from the store,
and builds (and stores) them only when both miss: each scene is traced
once per store, not once per worker per sweep.  The memo also keeps the
traces' depth statistics, which every configuration's result reports.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.gpu.config import GPUConfig
from repro.runtime.store import PHASE_CODEC_VERSION
from repro.workloads.params import DEFAULT_PARAMS, WorkloadParams

if TYPE_CHECKING:
    from repro.trace.depth import DepthStats

#: Bump when the stored-result layout changes incompatibly.
#: 2: job specs gained the traversal-strategy field.
#: 3: job specs gained the timing-backend field and stored results
#:    record which backend executed.
#: 4: the timing backend left the spec again (results still record it).
CACHE_SCHEMA_VERSION = 4

#: Traced workloads memoized per process (see :func:`_workload_traces`).
_TRACE_MEMO_CAPACITY = 4

_TRACE_MEMO: "OrderedDict[str, Tuple[str, list, DepthStats]]" = OrderedDict()


def cache_salt() -> str:
    """The code-version salt mixed into every job key.

    Combines the package version with the store schema version; the
    ``REPRO_CACHE_SALT`` environment variable is appended when set (handy
    for forcing a cold sweep without touching the store on disk).  The
    geometry scale (``REPRO_BENCH_SCALE``, see
    :func:`repro.workloads.lumibench.bench_scale`) is folded in too:
    scaled scenes are different workloads, so their results must never
    satisfy a reduced-scale job's content address (or vice versa).
    """
    import repro
    from repro.workloads.lumibench import bench_scale

    salt = f"repro-{repro.__version__}/schema-{CACHE_SCHEMA_VERSION}"
    scale = bench_scale()
    if scale is not None:
        salt = f"{salt}/geo-{scale:g}"
    extra = os.environ.get("REPRO_CACHE_SALT")
    return f"{salt}/{extra}" if extra else salt


@dataclass(frozen=True)
class SimulationJob:
    """One (scene, configuration, workload) cell of a sweep.

    Frozen and built only from hashable primitives (``GPUConfig`` is a
    frozen dataclass), so jobs can be dict keys, pickled to worker
    processes, and digested into content-address keys.
    """

    scene: str
    config: GPUConfig
    width: int
    height: int
    spp: int = 1
    max_bounces: int = 3
    seed: int = 0
    verify_pops: bool = False
    #: Run under the integrity layer (:mod:`repro.guard`).  Guards observe
    #: without perturbing, but the flag is still part of the spec: a
    #: guarded run that *completes* proves more than an unguarded one.
    guard: bool = False
    #: Watchdog cycle budget; only meaningful with ``guard=True``.
    max_cycles: Optional[int] = None
    #: Traversal strategy name (:mod:`repro.traversal`).  Part of the
    #: content address: both phases depend on it — the recorded traces
    #: (stackless re-traces, reorder permutes) and the timing replay.
    strategy: str = "sms"
    #: Timing backend (``"stepped"`` or ``"vector"``).  A pure
    #: performance knob: backends are bit-identical by contract (checked
    #: by the stepped-vs-vector equivalence suites), so the field is
    #: *not* part of the content address and either backend's stored
    #: result satisfies a request for the other.  The backend that
    #: actually ran is recorded on the result (``SimulationResult.backend``).
    backend: str = "stepped"

    @classmethod
    def from_params(
        cls,
        scene: str,
        config: GPUConfig,
        params: WorkloadParams = DEFAULT_PARAMS,
        verify_pops: bool = False,
        strategy: str = "sms",
        backend: str = "stepped",
    ) -> "SimulationJob":
        """Build a job resolving the two-tier resolution scheme.

        Complex scenes get the reduced tier of ``params``.
        """
        width, height, spp = params.for_scene(scene)
        return cls(
            scene=scene.upper(),
            config=config,
            width=width,
            height=height,
            spp=spp,
            max_bounces=params.max_bounces,
            seed=params.seed,
            verify_pops=verify_pops,
            strategy=strategy,
            backend=backend,
        )

    def spec(self) -> Dict:
        """The canonical, JSON-serializable description of this job.

        Includes the :func:`cache_salt`, so the digest of this dict is
        automatically invalidated by version bumps.  Omits ``backend``,
        which cannot change the result.
        """
        return {
            "scene": self.scene,
            "config": asdict(self.config),
            "width": self.width,
            "height": self.height,
            "spp": self.spp,
            "max_bounces": self.max_bounces,
            "seed": self.seed,
            "verify_pops": self.verify_pops,
            "guard": self.guard,
            "max_cycles": self.max_cycles,
            "strategy": self.strategy,
            "salt": cache_salt(),
        }

    def key(self) -> str:
        """Deterministic content-address: SHA-256 of the canonical spec."""
        return _digest(self.spec())

    def phase_key(self) -> str:
        """Content address of this job's phase one (its traces).

        Digests exactly what phase one depends on: the scene, the
        workload resolution, the strategy's trace key, the
        :func:`cache_salt` (which carries the geometry scale) and the
        artifact codec version.  Never a ``GPUConfig`` field: phase one
        is configuration-independent, the point of the two-phase split.
        """
        from repro.traversal.registry import resolve_strategy

        return _digest({
            "scene": self.scene,
            "width": self.width,
            "height": self.height,
            "spp": self.spp,
            "max_bounces": self.max_bounces,
            "seed": self.seed,
            "trace_key": resolve_strategy(self.strategy).trace_key(),
            "salt": cache_salt(),
            "codec": PHASE_CODEC_VERSION,
        })

    def run(self, store=None):
        """Execute the job in this process and return the result.

        Pure with respect to the spec: no reliance on ambient state
        beyond the deterministic scene generators, so it is safe to run
        in any worker process.  Phase one comes from the per-process
        memo, then from ``store`` (a
        :class:`~repro.runtime.store.ResultStore`, or ``None`` to
        persist nothing), and is built only when both miss.
        """
        from repro.core.api import time_traces

        guard = None
        if self.guard or self.max_cycles is not None:
            from repro.guard import GuardConfig

            guard = GuardConfig(max_cycles=self.max_cycles)
        scene_name, traces, depth_stats = _workload_traces(self, store)
        return time_traces(
            traces,
            config=self.config,
            scene_name=scene_name,
            verify_pops=self.verify_pops,
            guard=guard,
            strategy=self.strategy,
            backend=self.backend,
            depth_stats=depth_stats,
        )

    def describe(self) -> str:
        """Short human-readable label (scene + config + strategy)."""
        label = f"{self.scene}/{self.config.describe()}"
        if self.strategy != "sms":
            label += f"[{self.strategy}]"
        if self.backend != "stepped":
            label += f"@{self.backend}"
        return label


def _digest(fields: Dict) -> str:
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _workload_traces(
    job: SimulationJob, store=None
) -> Tuple[str, List, "DepthStats"]:
    """The job's phase one: ``(scene name, traces, depth statistics)``.

    This is the process's one phase-one path: job runs, pool workers
    and :meth:`~repro.runtime.cache.CachedWorkloadCache.traced` all call
    it.  It reads a small per-process LRU memo, then ``store``'s
    artifact, and only when both miss builds scene, BVH and traces.
    Both tiers are keyed by :meth:`SimulationJob.phase_key`.  The depth
    statistics are computed once, when an entry enters the memo, for
    every configuration timed on it.  On return ``store`` holds the
    artifact, written before any timing starts, so another worker can
    load it (the executor's hold-back relies on it).
    """
    from repro.trace.depth import depth_statistics

    key = job.phase_key()
    entry = _TRACE_MEMO.get(key)
    if entry is None:
        loaded = store.get_traces(key) if store is not None else None
        scene_name, traces = loaded or _build_phase_one(job)
        entry = (scene_name, traces, depth_statistics(traces))
    if store is not None and not store.has_traces(key):
        store.put_traces(key, *entry[:2])
    _TRACE_MEMO[key] = entry
    _TRACE_MEMO.move_to_end(key)
    while len(_TRACE_MEMO) > _TRACE_MEMO_CAPACITY:
        _TRACE_MEMO.popitem(last=False)
    return entry


def _build_phase_one(job: SimulationJob) -> Tuple[str, List]:
    """Load the scene, build its BVH and trace the job's workload."""
    from repro.bvh.api import build_bvh
    from repro.traversal.registry import resolve_strategy
    from repro.workloads.lumibench import load_scene

    scene = load_scene(job.scene)
    workload = resolve_strategy(job.strategy).build_workload(
        build_bvh(scene),
        width=job.width,
        height=job.height,
        spp=job.spp,
        max_bounces=job.max_bounces,
        seed=job.seed,
    )
    return scene.name, workload.all_traces
