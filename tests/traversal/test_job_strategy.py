"""Strategy is part of the job content address (cache invalidation)."""

from repro.core.presets import sms_config
from repro.runtime.job import SimulationJob
from repro.runtime.store import ResultStore
from repro.workloads.params import WorkloadParams

TINY = WorkloadParams(width=6, height=6, spp=1, max_bounces=2,
                      complex_width=6, complex_height=6, complex_spp=1)


def _job(strategy):
    return SimulationJob.from_params(
        "WKND", sms_config(), params=TINY, strategy=strategy
    )


def test_strategy_is_in_the_spec():
    job = _job("stackless")
    assert job.spec()["strategy"] == "stackless"
    assert job.strategy == "stackless"


def test_strategies_get_distinct_keys():
    keys = {name: _job(name).key() for name in
            ("sms", "stackless", "reorder")}
    assert len(set(keys.values())) == len(keys)


def test_default_strategy_key_is_sms():
    assert _job("sms").key() == SimulationJob.from_params(
        "WKND", sms_config(), params=TINY
    ).key()


def test_describe_marks_non_default_strategies():
    assert "[stackless]" in _job("stackless").describe()
    assert "[" not in _job("sms").describe()


def test_store_never_serves_one_strategy_for_another(tmp_path):
    """The regression satellite 2 exists for: a cached sms result must
    never satisfy a stackless lookup of the same scene/config cell."""
    store = ResultStore(root=tmp_path)
    sms_job, stackless_job = _job("sms"), _job("stackless")
    result = sms_job.run()
    store.put(sms_job.key(), result, spec=sms_job.spec())
    assert store.get(sms_job.key()) is not None
    assert store.get(stackless_job.key()) is None


def test_jobs_run_their_strategy():
    sms_result = _job("sms").run()
    stackless_result = _job("stackless").run()
    # The recorded streams differ at the root: sms traces push, the
    # stackless re-trace never does (so its depth statistics are flat).
    assert sms_result.depth_stats.max_depth > 0
    assert stackless_result.depth_stats.max_depth == 0
    assert stackless_result.counters.stack_global_ops == 0
    assert stackless_result.counters.stack_shared_ops == 0
    # Stackless adapted the config: the SH carve-out is gone.
    assert stackless_result.config.sh_stack_entries == 0
    assert sms_result.config.sh_stack_entries > 0
