"""``repro serve`` tests: wire validation, ``POST /run``, error codes."""

import http.client
import json
import socket
import threading
from dataclasses import replace

import pytest

from repro.core.presets import named_config
from repro.errors import ConfigError, JobExecutionError
from repro.runtime.executor import run_jobs
from repro.runtime.job import SimulationJob
from repro.runtime.store import ResultStore
from repro.service import ServiceClient, ServiceHTTPServer
from repro.service.wire import job_from_wire, job_to_wire


def tiny_job(scene="FOX", **overrides) -> SimulationJob:
    fields = dict(
        scene=scene, config=named_config("RB_8"), width=8, height=8,
        spp=1, max_bounces=2,
    )
    fields.update(overrides)
    return SimulationJob(**fields)


#: Each one used to be accepted and then fail inside a worker.
INVALID_FIELDS = [
    {"scene": "NOPE"},
    {"backend": "gpu"},
    {"strategy": "bogus"},
    {"width": 0},
    {"height": 0},
    {"spp": 0},
    {"width": -3},
    {"width": "wide"},
]


def field_id(fields) -> str:
    return ",".join(f"{name}={value}" for name, value in fields.items())


# ---------------------------------------------------------------- wire


def test_wire_round_trip_preserves_the_key():
    job = tiny_job()
    assert job_from_wire(job_to_wire(job)).key() == job.key()


def test_wire_accepts_preset_labels():
    rebuilt = job_from_wire({"scene": "FOX", "config": "RB_8",
                             "width": 8, "height": 8, "spp": 1,
                             "max_bounces": 2})
    assert rebuilt == tiny_job()


def test_wire_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        job_from_wire({"scene": "FOX", "evil": True})
    with pytest.raises(ConfigError):
        job_from_wire({"width": 8})  # no scene
    with pytest.raises(ConfigError):
        job_from_wire({"scene": "FOX", "config": 42})


@pytest.mark.parametrize("fields", INVALID_FIELDS, ids=field_id)
def test_wire_rejects_invalid_fields(fields):
    with pytest.raises(ConfigError):
        job_from_wire({"scene": "FOX", **fields})


# ------------------------------------------------------------- server


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return ResultStore(tmp_path_factory.mktemp("serve-store"))


@pytest.fixture(scope="module")
def server(store):
    """A live ``repro serve`` on an ephemeral port, in its own thread."""
    server = ServiceHTTPServer("127.0.0.1", 0, store=store, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port, timeout=60.0)


def post(server, body: bytes):
    """Raw ``POST /run``; returns (status, decoded JSON body)."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=60.0)
    try:
        connection.request("POST", "/run", body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def raw_request(server, head: bytes):
    """Send raw request bytes (no body); returns (status, decoded JSON)."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=60.0) as sock:
        sock.sendall(head)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    status_line, _, rest = reply.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.split(b"\r\n\r\n")[1])


def test_run_round_trip_matches_local(client):
    jobs = [tiny_job(), tiny_job(scene="WKND"), tiny_job()]
    served = client.run_jobs(jobs)
    local = run_jobs(jobs).results
    assert [r.to_dict() for r in served] == [r.to_dict() for r in local]


def test_second_batch_is_served_from_the_store(client, store):
    job = tiny_job(scene="SPRNG")
    first = client.run_jobs([job])[0]
    assert store.get(job.key()) == first
    # A marked entry under the job's key is what the next batch returns,
    # so the repeat was answered from the store, not re-simulated.
    store.put(job.key(), replace(first, ray_count=-1), spec=job.spec())
    assert client.run_jobs([job])[0].ray_count == -1
    store.put(job.key(), first, spec=job.spec())


@pytest.mark.parametrize("fields", INVALID_FIELDS, ids=field_id)
def test_invalid_job_field_is_a_400(server, client, fields):
    wire = {**job_to_wire(tiny_job()), **fields}
    status, body = post(server, json.dumps({"jobs": [wire]}).encode())
    assert status == 400 and body["error"] == "bad_request"
    assert client.run_jobs([tiny_job()])  # still serving


@pytest.mark.parametrize("body", [
    b"{not json",
    b"\xff\xfe",
    b"[]",
    b'{"jobs": {}}',
    b'{"jobs": [], "priority": 1}',
], ids=["malformed", "not-utf8", "not-object", "jobs-not-list",
        "unknown-request-field"])
def test_malformed_request_is_a_400(server, client, body):
    status, decoded = post(server, body)
    assert status == 400 and decoded["error"] == "bad_request"
    assert client.run_jobs([tiny_job()])


def test_bad_submission_is_a_400(server, client):
    wire = {**job_to_wire(tiny_job()), "evil": 1}
    status, body = post(server, json.dumps({"jobs": [wire]}).encode())
    assert status == 400 and "evil" in body["message"]
    assert client.run_jobs([tiny_job()])


def test_client_raises_config_error_on_400(client):
    with pytest.raises(ConfigError, match="unknown scene"):
        client.run_jobs([tiny_job(scene="NOPE")])


def test_oversized_body_is_a_400(server, client):
    status, body = raw_request(
        server,
        b"POST /run HTTP/1.1\r\nHost: x\r\n"
        + f"Content-Length: {(1 << 20) + 1}\r\n\r\n".encode(),
    )
    assert status == 400 and "over" in body["message"]
    assert client.run_jobs([tiny_job()])


@pytest.mark.parametrize("length", [b"lots", b"-5"])
def test_bad_content_length_is_a_400(server, client, length):
    status, body = raw_request(
        server,
        b"POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: " + length
        + b"\r\n\r\n",
    )
    assert status == 400 and "Content-Length" in body["message"]
    assert client.run_jobs([tiny_job()])


def test_unknown_endpoint_is_a_404(server):
    for method in ("GET", "POST"):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=60.0)
        connection.request(method, "/submit", body=b"{}")
        assert connection.getresponse().status == 404
        connection.close()


def test_guard_violation_is_a_500_with_traceback(client, store):
    job = tiny_job(guard=True, max_cycles=10)
    with pytest.raises(JobExecutionError, match="integrity guard") as caught:
        client.run_jobs([job])
    assert "SimulationStallError" in caught.value.traceback_text
    record = store.failure_for(job.key())
    assert record["error"]["type"] == "SimulationStallError"
    assert store.get(job.key()) is None
    assert client.run_jobs([tiny_job()])


def test_client_url_parsing():
    parsed = ServiceClient.from_url("http://127.0.0.1:9999")
    assert (parsed.host, parsed.port) == ("127.0.0.1", 9999)
    assert ServiceClient.from_url("localhost:8642/").port == 8642
    with pytest.raises(ConfigError):
        ServiceClient.from_url("not a url")
