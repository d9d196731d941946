"""Phase one in the result store: the artifact codec, reuse and dispatch.

A job's traces are stored under its phase key, so a later sweep, another
worker or a later process loads them instead of rebuilding scene, BVH
and traces.  These tests pin the codec's round trip, the quarantine of
malformed artifacts, what the phase key does and does not digest, that
a second sweep on one store builds nothing, and the executor's rule
that no two in-flight jobs build the same phase one.
"""

import hashlib
import importlib
import io
import os
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace

import numpy as np
import pytest

from repro.core.presets import named_config
from repro.runtime import executor
from repro.runtime.cache import CachedWorkloadCache
from repro.runtime.executor import ExecutionPolicy, _JobState, run_jobs
from repro.runtime.job import SimulationJob
from repro.runtime.store import ResultStore, pack_traces, unpack_traces
from repro.trace.events import RayKind, RayTrace
from repro.traversal import registry
from repro.traversal.registry import available_strategies
from repro.traversal.stack_based import StackStrategy
from repro.workloads.params import WorkloadParams

PARAMS = WorkloadParams().scaled(0.25)
CONFIGS = (named_config("RB_8"), named_config("RB_8+SH_8+SK+RA"))

job_module = importlib.import_module("repro.runtime.job")


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """An empty memo, so each test sees its own phase-one builds."""
    monkeypatch.setattr(job_module, "_TRACE_MEMO", OrderedDict())


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture
def bvh_builds(monkeypatch):
    """Scene names passed to ``build_binary_bvh``, in call order."""
    bvh_api = importlib.import_module("repro.bvh.api")
    real_build = bvh_api.build_binary_bvh
    built = []

    def counting_build(scene, *args, **kwargs):
        built.append(scene.name)
        return real_build(scene, *args, **kwargs)

    monkeypatch.setattr(bvh_api, "build_binary_bvh", counting_build)
    return built


def job(scene="SHIP", config=CONFIGS[0], strategy="sms"):
    return SimulationJob.from_params(scene, config, params=PARAMS,
                                     strategy=strategy)


def decode(blob):
    with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
        return unpack_traces({name: npz[name] for name in npz.files})


def rewrite(path, **changes):
    """Rewrite an artifact with some of its arrays replaced."""
    with np.load(path, allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files}
    for name, change in changes.items():
        arrays[name] = change(arrays[name].copy())
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    path.write_bytes(buffer.getvalue())


# -- the codec ------------------------------------------------------------

@pytest.mark.parametrize("strategy", available_strategies())
@pytest.mark.parametrize("scene", ["SHIP", "CRNVL"])
def test_pack_unpack_round_trips_every_strategy_stream(scene, strategy):
    name, traces = job_module._build_phase_one(job(scene, strategy=strategy))
    # A ray that visits nothing and misses, beside the recorded stream.
    traces = traces + [RayTrace(ray_id=10 ** 6, pixel=3, kind=RayKind.SHADOW)]
    assert any(trace.hit_t == float("inf") for trace in traces)
    assert any(not trace.steps for trace in traces)
    loaded_name, loaded = decode(pack_traces(name, traces))
    assert loaded_name == name
    assert loaded == traces
    assert [type(trace.hit_t) for trace in loaded] == \
        [type(trace.hit_t) for trace in traces]


def test_empty_stream_round_trips():
    assert decode(pack_traces("WKND", [])) == ("WKND", [])


# -- malformed artifacts --------------------------------------------------

def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _bad_offsets(path):
    rewrite(path, step_pushes=lambda offsets: offsets[::-1])


def _bad_kind(path):
    def out_of_range(steps):
        steps[0, 2] = 2  # node kinds are 0 (internal) and 1 (leaf)
        return steps

    rewrite(path, steps=out_of_range)


@pytest.mark.parametrize("damage", [_truncate, _bad_offsets, _bad_kind],
                         ids=["truncated", "offsets", "kind"])
def test_malformed_artifact_is_a_quarantined_miss(store, monkeypatch,
                                                  damage):
    first = job()
    expected = first.run(store)
    path = store.traces_path_for(first.phase_key())
    damage(path)
    assert store.get_traces(first.phase_key()) is None
    assert not path.exists()
    assert [p.name for p in (store.root / "corrupt").iterdir()] == [path.name]
    # The next run re-traces, stores a good artifact, and times the same.
    monkeypatch.setattr(job_module, "_TRACE_MEMO", OrderedDict())
    assert first.run(store).counters == expected.counters
    assert store.get_traces(first.phase_key()) is not None


# -- the phase key --------------------------------------------------------

def test_phase_key_ignores_the_configuration():
    assert job(config=CONFIGS[0]).phase_key() == \
        job(config=CONFIGS[1]).phase_key()
    assert job(config=CONFIGS[0]).key() != job(config=CONFIGS[1]).key()


def test_phase_key_follows_the_trace_key_not_the_strategy_name(monkeypatch):
    # An alias of the stack strategy records the same streams under
    # another name; stackless re-traces.
    class Alias(StackStrategy):
        name = "alias"

    monkeypatch.setitem(registry._REGISTRY, "alias", Alias)
    assert job(strategy="sms").phase_key() == \
        job(strategy="alias").phase_key()
    assert job(strategy="sms").phase_key() != \
        job(strategy="stackless").phase_key()


@pytest.mark.parametrize("field,value", [
    ("scene", "CRNVL"), ("width", 9), ("height", 9), ("spp", 2),
    ("max_bounces", 1), ("seed", 5),
])
def test_phase_key_changes_with_each_workload_field(field, value):
    assert replace(job(), **{field: value}).phase_key() != job().phase_key()


def test_salt_change_misses_the_stored_phase_one(store, monkeypatch):
    first = job()
    first.run(store)
    assert store.get_traces(first.phase_key()) is not None
    monkeypatch.setenv("REPRO_CACHE_SALT", "another-build")
    assert store.get_traces(first.phase_key()) is None


def test_strategy_change_misses_the_stored_phase_one(store):
    job().run(store)
    assert store.get_traces(job(strategy="stackless").phase_key()) is None


# -- reuse ----------------------------------------------------------------

def test_second_sweep_on_one_store_builds_nothing(store, monkeypatch,
                                                  bvh_builds):
    scenes = ["SHIP", "CRNVL"]
    CachedWorkloadCache(params=PARAMS, scene_names=scenes,
                        store=store).sweep([CONFIGS[0]])
    assert bvh_builds == scenes
    monkeypatch.setattr(job_module, "_TRACE_MEMO", OrderedDict())
    second = CachedWorkloadCache(params=PARAMS, scene_names=scenes,
                                 store=store)
    swept = second.sweep([CONFIGS[1]])
    assert bvh_builds == scenes  # no new builds: both scenes loaded
    # Loading phase one is not a result hit: every cell was simulated.
    assert second.metrics.cache_hits == 0
    assert second.metrics.simulated == len(scenes)
    monkeypatch.setattr(job_module, "_TRACE_MEMO", OrderedDict())
    plain = CachedWorkloadCache(params=PARAMS, scene_names=scenes)
    assert swept == plain.sweep([CONFIGS[1]])


def test_traced_reads_and_writes_the_store(store, monkeypatch, bvh_builds):
    cache = CachedWorkloadCache(params=PARAMS, scene_names=["SHIP"],
                                store=store)
    traces = cache.traced("SHIP")
    assert len(store.trace_artifacts()) == 1
    monkeypatch.setattr(job_module, "_TRACE_MEMO", OrderedDict())
    assert cache.traced("SHIP") == traces
    assert bvh_builds == ["SHIP"]


def test_a_memo_hit_still_fills_an_empty_store(store, bvh_builds):
    job().run()  # memoized, nothing persisted
    job().run(store)
    assert bvh_builds == ["SHIP"]
    assert store.get_traces(job().phase_key()) is not None


def test_pooled_cold_sweep_matches_serial_and_stores_each_scene(store):
    scenes = ["SHIP", "CRNVL"]
    pooled = CachedWorkloadCache(
        params=PARAMS, scene_names=scenes, store=store,
        policy=ExecutionPolicy(workers=2),
    ).sweep(CONFIGS)
    serial = CachedWorkloadCache(params=PARAMS, scene_names=scenes)
    assert pooled == serial.sweep(CONFIGS)
    assert len(store.trace_artifacts()) == len(scenes)


# -- dispatch -------------------------------------------------------------

@dataclass(frozen=True)
class PhaseStub:
    """A job with a phase one that takes a while to build.

    ``run`` builds (logs, sleeps, writes an empty artifact) only when
    the store lacks the artifact, then "times" for a short while.
    """

    token: str
    phase: str
    log_dir: str
    build_s: float = 0.3

    def key(self) -> str:
        return hashlib.sha256(f"job:{self.token}".encode()).hexdigest()

    def phase_key(self) -> str:
        return hashlib.sha256(f"phase:{self.phase}".encode()).hexdigest()

    def run(self, store=None) -> str:
        path = store.traces_path_for(self.phase_key())
        if not path.exists():
            marker = os.path.join(self.log_dir, f"build-{self.token}")
            with open(marker, "w") as handle:
                handle.write(self.phase)
            time.sleep(self.build_s)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"")
        time.sleep(0.05)
        return f"ok:{self.token}"


def builds_by_phase(log_dir):
    builds = {}
    for marker in log_dir.glob("build-*"):
        phase = marker.read_text()
        builds[phase] = builds.get(phase, 0) + 1
    return builds


def test_no_two_in_flight_jobs_build_one_phase(tmp_path, store):
    jobs = [PhaseStub(f"{phase}{index}", phase, str(tmp_path))
            for phase in "ab" for index in range(3)]
    report = run_jobs(jobs, store=store, policy=ExecutionPolicy(workers=2))
    assert report.results == [f"ok:{stub.token}" for stub in jobs]
    assert builds_by_phase(tmp_path) == {"a": 1, "b": 1}


def test_a_batch_sharing_one_phase_still_drains(tmp_path, store):
    jobs = [PhaseStub(f"s{index}", "shared", str(tmp_path))
            for index in range(4)]
    report = run_jobs(jobs, store=store, policy=ExecutionPolicy(workers=2))
    assert report.results == [f"ok:s{index}" for index in range(4)]
    assert report.metrics.simulated == 4
    assert builds_by_phase(tmp_path) == {"shared": 1}


@dataclass(frozen=True)
class StorelessStub:
    """A job whose phase key must never be asked for without a store."""

    token: str

    def key(self) -> str:
        return hashlib.sha256(f"storeless:{self.token}".encode()).hexdigest()

    def phase_key(self) -> str:
        raise AssertionError("phase key read without a store")

    def run(self, store=None) -> str:
        assert store is None
        return f"ok:{self.token}"


def test_without_a_store_dispatch_ignores_phase_keys():
    jobs = [StorelessStub(f"n{index}") for index in range(4)]
    report = run_jobs(jobs, policy=ExecutionPolicy(workers=2))
    assert report.results == [f"ok:n{index}" for index in range(4)]


def test_next_ready_skips_only_jobs_waiting_on_a_build():
    states = [_JobState(job=None, key=str(index), phase=phase)
              for index, phase in enumerate(["a", "a", None, "b"])]
    queue = deque(states)
    assert executor._next_ready(queue, set()) is states[0]  # popleft
    assert executor._next_ready(queue, {"a"}) is states[2]
    assert executor._next_ready(queue, {"a", "b"}) is None
    assert list(queue) == [states[1], states[3]]
