"""Crash-safety tests: a killed writer can never tear a store entry."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.presets import named_config
from repro.runtime.job import SimulationJob
from repro.runtime.store import ResultStore, _write_crash_safe
from repro.workloads.params import WorkloadParams

PARAMS = WorkloadParams().scaled(0.25)


@pytest.fixture(scope="module")
def job_and_result():
    job = SimulationJob.from_params("WKND", named_config("RB_8"), PARAMS)
    return job, job.run()


def test_crash_between_tmp_and_replace_preserves_old_entry(
    tmp_path, monkeypatch, job_and_result
):
    """A crash after writing the temp file leaves the old entry intact."""
    job, result = job_and_result
    store = ResultStore(tmp_path / "store")
    store.put(job.key(), result, spec=job.spec())
    before = store.path_for(job.key()).read_text()

    def exploding_replace(src, dst):
        raise OSError("simulated crash before rename")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        store.put(job.key(), result, spec=job.spec())
    monkeypatch.undo()
    # The visible entry is byte-identical to the pre-crash one and the
    # stranded temp file is invisible to every read path.
    assert store.path_for(job.key()).read_text() == before
    assert store.get(job.key()) == result
    assert len(store) == 1
    assert not any(store.root.glob("corrupt/*"))


def test_tmp_names_never_collide(tmp_path):
    path = tmp_path / "ab" / "entry.json"
    _write_crash_safe(path, b'{"v": 1}')
    _write_crash_safe(path, b'{"v": 2}')
    assert json.loads(path.read_text()) == {"v": 2}
    assert list(path.parent.glob("*.tmp.*")) == []


_WRITER_SCRIPT = r"""
import json
import sys
from repro.runtime.store import _write_crash_safe
from pathlib import Path

root = Path(sys.argv[1])
payload = {"blob": "x" * 4096, "fields": list(range(512))}
index = 0
print("ready", flush=True)
while True:
    index += 1
    _write_crash_safe(root / "aa" / f"entry-{index % 32}.json",
                      json.dumps(dict(payload, index=index)).encode())
"""


def test_sigkill_mid_write_leaves_no_torn_entry(tmp_path):
    """SIGKILL a process hammering the store; every surviving entry
    must parse as complete JSON (the satellite's kill-during-write
    scenario)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    writer = subprocess.Popen(
        [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path)],
        env=env, stdout=subprocess.PIPE,
    )
    try:
        assert writer.stdout.readline().strip() == b"ready"
        deadline = time.monotonic() + 10.0
        while not list(tmp_path.glob("aa/*.json")):
            assert time.monotonic() < deadline, "writer produced nothing"
            time.sleep(0.01)
        time.sleep(0.05)  # let it get mid-flight on several entries
    finally:
        writer.kill()
        writer.wait()
        writer.stdout.close()

    entries = sorted(tmp_path.glob("aa/*.json"))
    assert entries, "no entries survived to check"
    for entry in entries:
        payload = json.loads(entry.read_text())  # torn JSON would raise
        assert payload["blob"] == "x" * 4096
        assert payload["fields"] == list(range(512))
