"""End-to-end guard wiring: bit-identity, API plumbing, runtime paths."""

import dataclasses

import pytest

from repro.core.api import time_traces
from repro.core.presets import named_config
from repro.errors import ConfigError, GuardViolationError, JobExecutionError
from repro.gpu.simulator import GPUSimulator
from repro.guard import GuardConfig
from repro.runtime import executor
from repro.runtime.executor import ExecutionPolicy, run_jobs
from repro.runtime.job import SimulationJob
from repro.runtime.store import ResultStore
from repro.workloads.params import WorkloadParams

SMS_CONFIG = named_config("RB_2+SH_2+SK+RA")


@pytest.mark.parametrize(
    "label", ["RB_8", "RB_8+SH_8", "RB_2+SH_2+SK+RA", "RB_8+SH_8+SK+RA+IW"]
)
def test_guarded_run_bit_identical(deep_workload, label):
    """The tentpole guarantee: guards observe without perturbing."""
    traces = deep_workload.all_traces
    config = named_config(label)
    plain = GPUSimulator(config).run_traces(traces)
    guarded = GPUSimulator(config, guard=GuardConfig()).run_traces(traces)
    assert plain.counters.as_dict() == guarded.counters.as_dict()
    assert plain.per_sm_cycles == guarded.per_sm_cycles


def test_time_traces_accepts_guard(small_workload):
    result = time_traces(
        small_workload.all_traces, SMS_CONFIG, guard=GuardConfig()
    )
    baseline = time_traces(small_workload.all_traces, SMS_CONFIG)
    assert result.counters == baseline.counters


def test_max_cycles_budget_enforced(small_workload):
    from repro.errors import SimulationStallError

    with pytest.raises(SimulationStallError, match="cycle budget"):
        GPUSimulator(
            SMS_CONFIG, guard=GuardConfig(max_cycles=10)
        ).run_traces(small_workload.all_traces)


def test_guard_config_validation():
    with pytest.raises(ConfigError):
        GuardConfig(stall_window=0)
    with pytest.raises(ConfigError):
        GuardConfig(max_cycles=0)


PARAMS = WorkloadParams().scaled(0.25)


def test_job_guard_fields_change_key():
    plain = SimulationJob.from_params("SHIP", SMS_CONFIG, PARAMS)
    guarded = dataclasses.replace(plain, guard=True, max_cycles=10_000_000)
    assert plain.key() != guarded.key()
    assert guarded.spec()["guard"] is True
    assert guarded.spec()["max_cycles"] == 10_000_000


def test_guarded_job_runs_and_matches_unguarded():
    plain = SimulationJob.from_params("SHIP", SMS_CONFIG, PARAMS)
    guarded = dataclasses.replace(plain, guard=True)
    assert guarded.run().counters == plain.run().counters


class _ViolatingJob:
    """A job whose guard deterministically fires (stand-in for a real
    integrity bug surfacing mid-sweep)."""

    runs = 0

    def __init__(self, tag="c"):
        self.tag = tag

    def key(self):
        return "ab" + self.tag * 62

    def spec(self):
        return {"scene": "SYNTH"}

    def describe(self):
        return f"SYNTH/violating-{self.tag}"

    def run(self, store=None):
        _ViolatingJob.runs += 1
        raise GuardViolationError(
            "entry conservation violated", cycle=812, sm_id=0, warp_id=3,
            component="stack[slot=0]",
        )


def test_executor_records_guard_violation_without_retry(tmp_path,
                                                        monkeypatch):
    monkeypatch.setattr(executor, "RETRIES", 3)
    store = ResultStore(tmp_path / "store")
    _ViolatingJob.runs = 0
    with pytest.raises(JobExecutionError, match="integrity guard") as excinfo:
        run_jobs(
            [_ViolatingJob()],
            store=store,
            policy=ExecutionPolicy(workers=1),
        )
    assert _ViolatingJob.runs == 1  # deterministic failure: no retries
    assert isinstance(excinfo.value.__cause__, GuardViolationError)
    key = _ViolatingJob().key()
    record = store.failure_for(key)
    assert record["error"]["type"] == "GuardViolationError"
    assert record["error"]["diagnostics"]["cycle"] == 812
    assert record["spec"] == {"scene": "SYNTH"}
    # the violation never produced a cached result
    assert store.get(key) is None and list(store.keys()) == []


def test_executor_records_guard_violation_from_workers(tmp_path,
                                                       monkeypatch):
    """Same contract through the process pool: the violation pickles back
    from the worker, skips the retry budget, and is recorded."""
    monkeypatch.setattr(executor, "RETRIES", 3)
    store = ResultStore(tmp_path / "store")
    with pytest.raises(JobExecutionError, match="integrity guard"):
        run_jobs(
            [_ViolatingJob("c"), _ViolatingJob("d")],
            store=store,
            policy=ExecutionPolicy(workers=2),
        )
    recorded = list(store.failures())
    assert recorded, "no structured failure persisted from the pool path"
    record = store.failure_for(recorded[0])
    assert record["error"]["diagnostics"]["component"] == "stack[slot=0]"
    assert list(store.keys()) == []


def test_cycle_budget_overrun_is_recorded(tmp_path):
    """A real job past its ``max_cycles`` fails with its traceback and
    leaves a failure record but no result."""
    store = ResultStore(tmp_path / "store")
    job = SimulationJob(scene="FOX", config=named_config("RB_8"), width=8,
                        height=8, spp=1, max_bounces=2, guard=True,
                        max_cycles=10)
    with pytest.raises(JobExecutionError, match="integrity guard") as excinfo:
        run_jobs([job], store=store, policy=ExecutionPolicy(workers=1))
    assert "SimulationStallError" in excinfo.value.traceback_text
    record = store.failure_for(job.key())
    assert record["error"]["type"] == "SimulationStallError"
    assert store.get(job.key()) is None


def test_stall_record_keeps_the_watchdog_evidence(tmp_path):
    """The record holds the stall's scheduler decisions and one stack
    snapshot per lane of the stalled warp; ``str`` stays the short form."""
    store = ResultStore(tmp_path / "store")
    config = named_config("RB_8")
    job = SimulationJob(scene="FOX", config=config, width=8, height=8,
                        guard=True, max_cycles=10)
    with pytest.raises(JobExecutionError) as excinfo:
        run_jobs([job], store=store, policy=ExecutionPolicy(workers=1))
    stall = excinfo.value.__cause__
    error = store.failure_for(job.key())["error"]
    assert error["rendered"] == str(stall)
    assert "decisions" not in str(stall)
    decisions = error["evidence"]["decisions"]
    assert decisions and decisions == stall.decisions
    snapshots = error["evidence"]["stack_snapshots"]
    assert sorted(snapshots, key=int) == [str(lane) for lane in range(config.warp_size)]
    assert snapshots == {str(lane): s for lane, s in stall.stack_snapshots.items()}
