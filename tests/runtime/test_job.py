"""Job model tests: content addressing, spec resolution, purity."""

import pytest

from repro.core.presets import named_config
from repro.runtime.job import SimulationJob, cache_salt
from repro.workloads.params import WorkloadParams

PARAMS = WorkloadParams().scaled(0.25)


def job_for(config_name="RB_8", scene="SHIP", **overrides):
    job = SimulationJob.from_params(scene, named_config(config_name), PARAMS)
    if overrides:
        from dataclasses import replace

        job = replace(job, **overrides)
    return job


def test_key_is_deterministic():
    assert job_for().key() == job_for().key()


def test_key_is_hex_sha256():
    key = job_for().key()
    assert len(key) == 64
    int(key, 16)  # raises if not hex


def test_key_changes_with_config():
    assert job_for("RB_8").key() != job_for("RB_FULL").key()
    assert job_for("RB_8").key() != job_for("RB_8+SH_8").key()


def test_key_changes_with_scene_and_workload():
    base = job_for()
    assert base.key() != job_for(scene="CRNVL").key()
    assert base.key() != job_for(width=base.width + 1).key()
    assert base.key() != job_for(seed=99).key()
    assert base.key() != job_for(max_bounces=base.max_bounces + 1).key()


def test_key_changes_with_salt(monkeypatch):
    base = job_for().key()
    monkeypatch.setenv("REPRO_CACHE_SALT", "experiment-42")
    assert job_for().key() != base
    assert "experiment-42" in cache_salt()


def test_from_params_resolves_complex_tier():
    params = WorkloadParams(width=32, height=32, complex_width=8,
                            complex_height=8)
    simple = SimulationJob.from_params("SHIP", named_config("RB_8"), params)
    complex_ = SimulationJob.from_params("ROBOT", named_config("RB_8"), params)
    assert (simple.width, simple.height) == (32, 32)
    assert (complex_.width, complex_.height) == (8, 8)


def test_from_params_uppercases_scene():
    assert SimulationJob.from_params(
        "ship", named_config("RB_8"), PARAMS
    ).scene == "SHIP"


def test_run_matches_direct_simulation():
    from repro.bvh.api import build_bvh
    from repro.core.api import time_traces
    from repro.trace.path import generate_workload
    from repro.workloads.lumibench import load_scene

    job = job_for()
    workload = generate_workload(
        build_bvh(load_scene("SHIP")), width=job.width, height=job.height,
        spp=job.spp, max_bounces=job.max_bounces, seed=job.seed,
    )
    direct = time_traces(workload.all_traces, config=job.config,
                         scene_name="SHIP")
    assert job.run() == direct


def test_job_is_hashable_and_spec_is_json_canonical():
    import json

    job = job_for()
    assert hash(job) == hash(job_for())
    blob = json.dumps(job.spec(), sort_keys=True)
    assert json.loads(blob)["scene"] == "SHIP"


def test_backend_is_not_part_of_the_key(tmp_path):
    from dataclasses import replace

    from repro.runtime.cache import runtime_cache

    stepped = job_for("RB_8+SH_8+SK+RA")
    vector = replace(stepped, backend="vector")
    assert vector.key() == stepped.key()
    assert "backend" not in stepped.spec()

    def cache(backend):
        return runtime_cache(params=PARAMS, scene_names=["SHIP"], jobs=1,
                             cache_dir=tmp_path, backend=backend)

    config = named_config("RB_8+SH_8+SK+RA")
    primed = cache("stepped").simulate("SHIP", config)
    served = cache("vector")
    hit = served.simulate("SHIP", config)
    assert served.metrics.cache_hits == 1
    assert served.metrics.simulated == 0
    assert hit.counters == primed.counters
    assert hit.backend == "stepped"  # the record of what actually ran
