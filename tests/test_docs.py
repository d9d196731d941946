"""Documentation generation and repo-doc consistency tests."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).parent.parent


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO / "tools" / "gen_api_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_api_doc_generator_runs():
    """The generator renders the reference without writing docs/api.md."""
    api = _load_generator().api_reference()
    assert api.startswith("# API reference\n")
    for module in ("repro.stack.sms", "repro.gpu.rt_unit", "repro.core.api"):
        assert f"## `{module}`" in api


def test_required_docs_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                 "docs/architecture.md"):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 500, name


def test_design_doc_covers_every_figure():
    design = (REPO / "DESIGN.md").read_text()
    for artifact in ("Table I", "Table II", "Fig. 4", "Fig. 5", "Fig. 6",
                     "Fig. 8", "Fig. 10", "Fig. 13", "Fig. 14", "Fig. 15"):
        assert artifact in design, artifact


def test_experiments_doc_records_headline():
    text = (REPO / "EXPERIMENTS.md").read_text()
    assert "23.2%" in text  # the paper's headline number
    assert "Deviations" in text


def test_every_benchmark_module_has_paper_anchor():
    for bench in (REPO / "benchmarks").glob("test_fig*.py"):
        text = bench.read_text()
        assert "Paper" in text or "paper" in text, bench.name
