"""Golden regression: the pinned end-to-end ablation report.

``golden_report.json`` is the canonical report of the 3-knob mechanism
space (SH tier x skewing x intra-warp realloc on an RB_8 base) over
PARTY + SPNZA at half resolution — scenes and scale chosen so every
mechanism produces a nonzero, strictly ordered attribution
(sh_stack_entries > intra_warp_realloc > skewed_bank_access).

The whole pipeline is deterministic, so the regenerated report must
match the committed payload *byte for byte* — any drift in tracing,
timing, energy, importance math, Pareto selection or JSON
canonicalization fails here.  The same equality must hold under the
integrity guard and on the worker pool behind ``run_space``'s
``service`` hook.
"""

import json
from pathlib import Path

import pytest

from repro.ablation import (
    AblationReport,
    KnobSpace,
    render_json,
    run_space,
)
from repro.runtime.executor import ExecutionPolicy, run_jobs
from repro.workloads.params import WorkloadParams

GOLDEN_PATH = Path(__file__).parent / "golden_report.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def golden_space() -> KnobSpace:
    return KnobSpace.from_dict(GOLDEN["space"])


def golden_params() -> WorkloadParams:
    return WorkloadParams(**GOLDEN["params"])


@pytest.fixture(scope="module")
def regenerated() -> AblationReport:
    return run_space(golden_space(), params=golden_params())


def test_report_matches_golden_byte_for_byte(regenerated):
    payload = json.dumps(regenerated.to_dict(), sort_keys=True, indent=2)
    assert payload + "\n" == GOLDEN_PATH.read_text()


def test_importance_ranking_is_pinned(regenerated):
    assert regenerated.importance_ranking() == [
        "sh_stack_entries", "intra_warp_realloc", "skewed_bank_access",
    ]
    # Strict ordering, not a tie that happens to sort this way.
    loo = [imp.loo_delta for imp in regenerated.importance]
    assert loo[0] > loo[1] > loo[2] > 0


def test_pareto_set_is_pinned(regenerated):
    assert [p.label for p in regenerated.pareto] == [
        "RB_8", "RB_8+SH_8+SK+RA",
    ]
    assert regenerated.pareto_ids() == [
        p["run_id"] for p in GOLDEN["pareto"]
    ]


def test_loaded_golden_round_trips():
    report = AblationReport.from_dict(GOLDEN)
    assert report.to_dict() == GOLDEN
    assert len(report.runs) == 8
    assert report.space.scene_names() == ["PARTY", "SPNZA"]


def test_guarded_run_matches_golden_metrics():
    guarded = run_space(golden_space(), params=golden_params(), guard=True)
    plain = AblationReport.from_dict(GOLDEN)
    assert guarded.per_scene_ipc() == plain.per_scene_ipc()
    assert guarded.importance_ranking() == plain.importance_ranking()
    assert guarded.pareto_ids() == plain.pareto_ids()
    assert guarded.speedups == pytest.approx(plain.speedups)


class PoolService:
    """The smallest ``service``: the cells run on a two-worker pool."""

    def run_jobs(self, jobs):
        return run_jobs(jobs, policy=ExecutionPolicy(workers=2)).results


def test_pool_through_the_service_hook_is_bit_identical_to_golden():
    report = run_space(
        golden_space(),
        params=golden_params(),
        service=PoolService(),
    )
    payload = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    assert payload + "\n" == GOLDEN_PATH.read_text()
    assert render_json(report) == render_json(AblationReport.from_dict(GOLDEN))
