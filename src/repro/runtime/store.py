"""Persistent, content-addressed result store (JSON file per key).

Layout: ``<root>/<key[:2]>/<key>.json`` — two-level sharding keeps
directory listings small on big sweeps.  Each file records the store
schema version, the job spec that produced it (for debuggability), and
the serialized :class:`~repro.core.results.SimulationResult`.

Phase one (scene → BVH → traces) is stored beside the results, one
artifact per :meth:`~repro.runtime.job.SimulationJob.phase_key` under
``<root>/phase1/<key[:2]>/<key>.npz``: the traces as flat ``int64``
ray/step/push arrays plus ``float64`` hit distances
(:func:`pack_traces`), read back with ``allow_pickle=False``.  The tree
is not stored, because timing never reads it.

Invalidation is purely key-based: the job key already digests the full
spec plus the code-version salt, so changed configs or a version bump
simply miss.  Stale entries are garbage, not hazards; ``clear()`` or a
plain ``rm -r`` reclaims the space.

Writes are crash-safe: every file (result, failure record, artifact) is
written to a temp file, flushed and ``fsync``-ed, then ``os.replace``-d
into place and the directory entry fsync-ed — so neither a concurrent
sweep, a worker killed mid-write, nor a power cut can leave a torn file
behind (a kill mid-write leaves at most an orphaned ``*.tmp.*`` file,
which no read path ever matches).  Unparseable or schema-mismatched
results and malformed artifacts read as misses, but they are
*quarantined* to ``<root>/corrupt/`` (with a logged warning) rather
than deleted — a corrupt cache entry is evidence of a writer bug, and
evidence should survive the read that discovers it.

Guard violations are recorded under ``<root>/failures/`` by
:meth:`ResultStore.record_failure`: a deterministic integrity failure
must never be cached as a (partial) result, but *that the job fails, and
how* is itself worth persisting for diagnosis.
"""

from __future__ import annotations

import io
import itertools
import json
import logging
import os
import time
import traceback
import zipfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.results import SimulationResult
from repro.trace.events import NodeKind, RayKind, RayTrace, Step

logger = logging.getLogger(__name__)

#: Per-process sequence for temp-file names: two writes of the same key
#: from one process (retry after a corrupt read, say) must never race on
#: one temp path.
_TMP_SEQUENCE = itertools.count()


def _fsync_dir(directory: Path) -> None:
    """Flush a directory entry to disk (best-effort on odd filesystems)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _write_crash_safe(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so a kill can never tear it.

    temp file -> flush -> fsync -> ``os.replace`` -> directory fsync:
    a reader (or a post-crash restart) sees either the complete previous
    file or the complete new one, never a prefix.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{next(_TMP_SEQUENCE)}")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def _json_bytes(payload: Dict) -> bytes:
    return json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")


def _json_safe(value):
    """``value`` as JSON reads it back: string keys, numpy scalars as
    Python numbers, and anything else JSON cannot hold as its ``str``."""

    def plain(item):
        return item.item() if isinstance(item, np.generic) else str(item)

    return json.loads(json.dumps(value, default=plain))


# ----------------------------------------------------------------------
# the phase-one artifact codec
# ----------------------------------------------------------------------

#: Bump when the artifact layout changes; it is folded into every
#: phase key, so artifacts of another layout are never read.
PHASE_CODEC_VERSION = 1

#: Kind codes are indices into these tuples.
_RAY_KINDS = (RayKind.PRIMARY, RayKind.SHADOW, RayKind.BOUNCE)
_NODE_KINDS = (NodeKind.INTERNAL, NodeKind.LEAF)
_RAY_CODES = {kind: code for code, kind in enumerate(_RAY_KINDS)}

#: The arrays of one artifact, in :func:`unpack_traces` order.
_MEMBERS = ("scene", "rays", "hit_t", "ray_steps", "steps", "step_pushes",
            "pushes")

#: Columns of the ``rays`` and ``steps`` arrays.
_RAY_COLUMNS = ("ray_id", "pixel", "kind", "hit_prim")
_STEP_COLUMNS = ("address", "size_bytes", "kind", "tests", "popped")


def pack_traces(scene_name: str, traces: Sequence[RayTrace]) -> bytes:
    """Encode one workload's traces as an ``.npz`` blob.

    ``rays`` and ``steps`` hold one row per ray and per step; the
    offset arrays ``ray_steps`` and ``step_pushes`` (length rows + 1)
    say which steps belong to a ray and which ``pushes`` to a step.
    """
    rays, hit_t, ray_steps = [], [], [0]
    steps, step_pushes, pushes = [], [0], []
    for trace in traces:
        rays.append((trace.ray_id, trace.pixel, _RAY_CODES[trace.kind],
                     trace.hit_prim))
        hit_t.append(trace.hit_t)
        for step in trace.steps:
            steps.append((step.address, step.size_bytes,
                          1 if step.kind is NodeKind.LEAF else 0,
                          step.tests, 1 if step.popped else 0))
            pushes.extend(step.pushes)
            step_pushes.append(len(pushes))
        ray_steps.append(len(steps))
    buffer = io.BytesIO()
    np.savez(
        buffer,
        scene=np.array(scene_name),
        rays=np.array(rays, dtype=np.int64).reshape(-1, len(_RAY_COLUMNS)),
        hit_t=np.array(hit_t, dtype=np.float64),
        ray_steps=np.array(ray_steps, dtype=np.int64),
        steps=np.array(steps, dtype=np.int64).reshape(-1, len(_STEP_COLUMNS)),
        step_pushes=np.array(step_pushes, dtype=np.int64),
        pushes=np.array(pushes, dtype=np.int64),
    )
    return buffer.getvalue()


def _check_table(array, columns: int, name: str) -> int:
    if array.dtype != np.int64 or array.ndim != 2 or array.shape[1] != columns:
        raise ValueError(f"{name}: expected int64 rows of {columns}, got "
                         f"{array.dtype} {array.shape}")
    return array.shape[0]


def _check_offsets(offsets, rows: int, total: int, name: str) -> None:
    if offsets.dtype != np.int64 or offsets.shape != (rows + 1,):
        raise ValueError(f"{name}: expected {rows + 1} int64 offsets, got "
                         f"{offsets.dtype} {offsets.shape}")
    if offsets[0] != 0 or offsets[-1] != total or np.any(np.diff(offsets) < 0):
        raise ValueError(f"{name}: offsets are not a partition of {total}")


def _check_codes(column, count: int, name: str) -> None:
    if column.size and (column.min() < 0 or column.max() >= count):
        raise ValueError(f"{name}: code outside [0, {count})")


def unpack_traces(arrays) -> Tuple[str, List[RayTrace]]:
    """Decode :func:`pack_traces` output, given as a mapping of its arrays.

    Raises ``ValueError`` (or ``KeyError`` for a missing array) on any
    inconsistency, so a malformed artifact can never decode into wrong
    traces.
    """
    scene, rays, hit_t, ray_steps, steps, step_pushes, pushes = (
        arrays[name] for name in _MEMBERS
    )
    if scene.dtype.kind != "U" or scene.ndim != 0:
        raise ValueError(f"scene: expected a string, got {scene.dtype}")
    n_rays = _check_table(rays, len(_RAY_COLUMNS), "rays")
    n_steps = _check_table(steps, len(_STEP_COLUMNS), "steps")
    if hit_t.dtype != np.float64 or hit_t.shape != (n_rays,):
        raise ValueError(f"hit_t: expected {n_rays} float64 values")
    if pushes.dtype != np.int64 or pushes.ndim != 1:
        raise ValueError(f"pushes: expected int64 values, got {pushes.dtype}")
    _check_offsets(ray_steps, n_rays, n_steps, "ray_steps")
    _check_offsets(step_pushes, n_steps, pushes.size, "step_pushes")
    _check_codes(rays[:, 2], len(_RAY_KINDS), "ray kind")
    _check_codes(steps[:, 2], len(_NODE_KINDS), "node kind")
    _check_codes(steps[:, 4], 2, "popped")

    push_list = pushes.tolist()
    offsets = step_pushes.tolist()
    flat = [
        Step(address, size, _NODE_KINDS[kind], tests,
             push_list[begin:end], popped == 1)
        for (address, size, kind, tests, popped), begin, end
        in zip(steps.tolist(), offsets, offsets[1:])
    ]
    offsets = ray_steps.tolist()
    traces = [
        RayTrace(ray_id, pixel, _RAY_KINDS[kind], flat[begin:end],
                 hit_prim, t)
        for (ray_id, pixel, kind, hit_prim), t, begin, end
        in zip(rays.tolist(), hit_t.tolist(), offsets, offsets[1:])
    ]
    return scene.item(), traces


#: Default store location; override per-store or via ``REPRO_CACHE_DIR``.
DEFAULT_CACHE_DIR = Path("~/.cache/repro-sms")

#: On-disk payload schema; mismatched entries read as misses.
STORE_SCHEMA_VERSION = 1

#: Shard-directory glob: result entries only (never the ``corrupt/``,
#: ``failures/`` or ``phase1/`` sidecars, whose names are not two hex
#: characters).
_SHARD_GLOB = "[0-9a-f][0-9a-f]/*.json"

#: Phase-one artifacts, relative to ``<root>/phase1``.
_PHASE_GLOB = "[0-9a-f][0-9a-f]/*.npz"


class ResultStore:
    """On-disk map from job key to simulation result.

    Also holds each phase one's traces (:meth:`get_traces`,
    :meth:`put_traces`); ``keys()``, ``len()`` and ``size_bytes()``
    count results only.
    """

    def __init__(self, root=None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.root = Path(root).expanduser()

    def path_for(self, key: str) -> Path:
        """Where a given key lives (whether or not it exists yet)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[SimulationResult]:
        """The stored result for ``key``, or ``None`` on a miss.

        Corrupt or schema-mismatched files read as misses and are moved
        to ``<root>/corrupt/`` with a logged warning, so a store poisoned
        by an interrupted legacy writer heals itself without destroying
        the evidence.
        """
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema") != STORE_SCHEMA_VERSION:
                raise ValueError(
                    f"schema {payload.get('schema')!r} != "
                    f"{STORE_SCHEMA_VERSION}"
                )
            return SimulationResult.from_dict(payload["result"])
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError) as error:
            self._quarantine(path, error)
            return None

    def _quarantine(self, path: Path, error: Exception) -> None:
        """Move an unreadable entry aside instead of deleting it."""
        target = self.root / "corrupt" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            logger.warning(
                "result store: corrupt entry %s (%s) could not be "
                "quarantined; leaving it in place", path, error,
            )
            return
        logger.warning(
            "result store: corrupt entry %s (%s) quarantined to %s",
            path, error, target,
        )

    def put(
        self, key: str, result: SimulationResult, spec: Optional[Dict] = None
    ) -> Path:
        """Persist ``result`` under ``key`` crash-safely; returns the path."""
        path = self.path_for(key)
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            # Store *metadata*, outside the simulated clock: created-at
            # never feeds a result and exists only for cache forensics.
            # One of the two sanctioned wall-clock reads in src/ (see the
            # SL101 rule docs in docs/architecture.md section 10).
            "created": time.time(),  # simlint: disable=SL101
            "spec": spec,
            "result": result.to_dict(),
        }
        _write_crash_safe(path, _json_bytes(payload))
        return path

    # ------------------------------------------------------------------
    # phase-one artifacts
    # ------------------------------------------------------------------

    def traces_path_for(self, phase_key: str) -> Path:
        """Where ``phase_key``'s artifact lives (whether or not it exists)."""
        return self.root / "phase1" / phase_key[:2] / f"{phase_key}.npz"

    def has_traces(self, phase_key: str) -> bool:
        """True when ``phase_key``'s artifact is in the store."""
        return self.traces_path_for(phase_key).exists()

    def get_traces(
        self, phase_key: str
    ) -> Optional[Tuple[str, List[RayTrace]]]:
        """The stored ``(scene name, traces)`` for ``phase_key``, or ``None``.

        A malformed artifact reads as a miss and is quarantined to
        ``<root>/corrupt/``, exactly like a corrupt result.
        """
        path = self.traces_path_for(phase_key)
        try:
            with np.load(path, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
            return unpack_traces(arrays)
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as error:
            self._quarantine(path, error)
            return None

    def put_traces(
        self, phase_key: str, scene_name: str, traces: Sequence[RayTrace]
    ) -> Path:
        """Persist one phase one's traces crash-safely; returns the path."""
        path = self.traces_path_for(phase_key)
        _write_crash_safe(path, pack_traces(scene_name, traces))
        return path

    # ------------------------------------------------------------------
    # structured failures (guard violations)
    # ------------------------------------------------------------------

    def failure_path_for(self, key: str) -> Path:
        """Where ``key``'s failure record lives (if any)."""
        return self.root / "failures" / f"{key}.json"

    def record_failure(
        self,
        key: str,
        error: Exception,
        spec: Optional[Dict] = None,
        traceback_text: Optional[str] = None,
    ) -> Path:
        """Persist a structured failure record for ``key``.

        Used for deterministic failures (guard violations): the result
        slot stays empty — a partial result must never poison the cache
        — but the failure itself, with its diagnostic fields and its
        evidence (a stall's scheduler decisions and per-lane stack
        snapshots), is kept for inspection.  ``traceback_text`` (the
        formatted traceback captured where the exception was caught)
        rides along so the record pinpoints the raise site, not just the
        message.  When it is not supplied, whatever traceback the
        exception still carries is formatted here.  Returns the path
        written.
        """
        path = self.failure_path_for(key)
        diagnostics = getattr(error, "diagnostics", None)
        evidence = getattr(error, "evidence", None)
        if traceback_text is None and error.__traceback__ is not None:
            traceback_text = "".join(
                traceback.format_exception(
                    type(error), error, error.__traceback__
                )
            )
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "key": key,
            # Sanctioned wall-clock read: failure-record metadata (see
            # the SL101 note on the result payload above).
            "created": time.time(),  # simlint: disable=SL101
            "spec": spec,
            "error": {
                "type": type(error).__name__,
                "message": getattr(error, "message", str(error)),
                "rendered": str(error),
                "diagnostics": diagnostics() if callable(diagnostics) else {},
                "evidence": _json_safe(evidence() if callable(evidence) else {}),
                "traceback": traceback_text,
            },
        }
        _write_crash_safe(path, _json_bytes(payload))
        return path

    def failure_for(self, key: str) -> Optional[Dict]:
        """The recorded failure payload for ``key``, or ``None``."""
        try:
            return json.loads(self.failure_path_for(key).read_text())
        except (OSError, ValueError):
            return None

    def failures(self) -> Iterator[str]:
        """Keys with a recorded structured failure."""
        root = self.root / "failures"
        if not root.exists():
            return
        for path in sorted(root.glob("*.json")):
            yield path.stem

    # ------------------------------------------------------------------
    # admin
    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def keys(self) -> Iterator[str]:
        """All result keys currently stored."""
        if not self.root.exists():
            return
        for path in sorted(self.root.glob(_SHARD_GLOB)):
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def size_bytes(self) -> int:
        """Total bytes the store's result entries occupy on disk."""
        if not self.root.exists():
            return 0
        return sum(path.stat().st_size for path in self.root.glob(_SHARD_GLOB))

    def trace_artifacts(self) -> List[Path]:
        """Every stored phase-one artifact."""
        return sorted((self.root / "phase1").glob(_PHASE_GLOB))

    def clear(self) -> int:
        """Delete every result entry; returns how many were removed."""
        return _unlink_all(self.path_for(key) for key in list(self.keys()))

    def clear_traces(self) -> int:
        """Delete every phase-one artifact; returns how many were removed."""
        return _unlink_all(self.trace_artifacts())


def _unlink_all(paths) -> int:
    removed = 0
    for path in paths:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
