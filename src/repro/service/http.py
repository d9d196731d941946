"""Stdlib HTTP adapter that runs job batches through :func:`run_jobs`.

One endpoint, ``POST /run``: the body is ``{"jobs": [wire, ...]}``;
each job is rebuilt with :func:`~repro.service.wire.job_from_wire`, the
batch is resolved by :func:`repro.runtime.executor.run_jobs` against the
server's store and policy, and the reply is ``{"results": [result,
...]}`` in submission order.  A malformed request is a ``400`` before
any job runs; a job that fails is a ``500`` carrying the executor's
traceback.

The server handles one batch at a time: a concurrent client waits in
the listen backlog, and repeats across batches are answered from the
store.  Scheduling (pool, retries, serial fallback) is the executor's
alone.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Dict, List, Optional

from repro.errors import ConfigError, JobExecutionError, ReproError
from repro.runtime.executor import ExecutionPolicy, run_jobs
from repro.runtime.job import SimulationJob
from repro.runtime.store import ResultStore
from repro.service.wire import job_from_wire, result_to_wire

_MAX_BODY = 1 << 20  # 1 MiB is orders of magnitude above any batch spec


class ServiceHTTPServer(HTTPServer):
    """Serve ``POST /run`` on ``host:port`` (``port=0`` picks a free one)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Optional[ResultStore] = None,
        workers: Optional[int] = None,
    ) -> None:
        super().__init__((host, port), _RunHandler)
        self.store = store
        self.policy = ExecutionPolicy(workers=workers)

    @property
    def port(self) -> int:
        return self.server_address[1]


def _read_jobs(handler: BaseHTTPRequestHandler) -> List[SimulationJob]:
    """Parse and validate one ``/run`` body; raises :class:`ConfigError`."""
    declared = handler.headers.get("Content-Length", "0")
    if not declared.isdigit():
        raise ConfigError(f"bad Content-Length {declared!r}")
    length = int(declared)
    if length > _MAX_BODY:
        raise ConfigError(f"request body over {_MAX_BODY} bytes")
    try:
        body = json.loads(handler.rfile.read(length).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as bad:
        raise ConfigError(f"request body is not JSON: {bad}") from bad
    if not isinstance(body, dict) or not isinstance(body.get("jobs"), list):
        raise ConfigError('request body must be {"jobs": [...]}')
    unknown = sorted(set(body) - {"jobs"})
    if unknown:
        raise ConfigError(f"unknown request fields: {', '.join(unknown)}")
    return [job_from_wire(wire) for wire in body["jobs"]]


class _RunHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer

    def do_POST(self) -> None:
        if self.path != "/run":
            self._reply(404, {"error": "no_such_endpoint"})
            return
        try:
            jobs = _read_jobs(self)
            report = run_jobs(jobs, self.server.store, self.server.policy)
        except ConfigError as bad:
            self._reply(400, {"error": "bad_request", "message": str(bad)})
        except JobExecutionError as failed:
            self._reply(500, {
                "error": "job_failed",
                "message": str(failed),
                "traceback": getattr(failed, "traceback_text", None),
            })
        except ReproError as error:
            self._reply(500, {"error": type(error).__name__,
                              "message": str(error)})
        else:
            self._reply(200, {
                "results": [result_to_wire(r) for r in report.results]
            })

    def do_GET(self) -> None:
        self._reply(404, {"error": "no_such_endpoint"})

    def _reply(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        """Silence the per-request access log; handler crashes still print."""
