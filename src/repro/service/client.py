"""Blocking HTTP client for ``repro serve``.

:meth:`ServiceClient.run_jobs` posts a whole batch to ``/run`` and
rehydrates the results into the same :class:`SimulationResult` objects
a local run produces.  It has the same signature as
:meth:`~repro.runtime.cache.CachedWorkloadCache.run_jobs`, so a client
is a drop-in for the in-process path — ``run_space(...,
service=client)`` or ``client.run_jobs(jobs)`` — and aggregates
bit-identically.  ``repro ablate run --service URL`` builds one with
:meth:`ServiceClient.from_url`.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, List

from repro.errors import ConfigError, JobExecutionError, ServiceError
from repro.service.wire import job_to_wire, result_from_wire


class ServiceClient:
    """Talk to a ``repro serve`` instance at ``host:port``.

    Pass one as ``run_space(..., service=client)``, or call
    :meth:`run_jobs` with any batch of jobs.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        timeout: float = 120.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    @classmethod
    def from_url(cls, url: str, **kwargs) -> "ServiceClient":
        """``http://host:port`` (or bare ``host:port``) → client."""
        stripped = url.split("//", 1)[-1].rstrip("/")
        host, _, port = stripped.partition(":")
        if not host or not port.isdigit():
            raise ConfigError(
                f"service URL must look like http://host:port, got {url!r}"
            )
        return cls(host=host, port=int(port), **kwargs)

    def run_jobs(self, jobs: List[Any]) -> List[Any]:
        """Run a batch on the server; results come back in job order.

        A rejected batch raises :class:`ConfigError`; a failed job raises
        :class:`JobExecutionError` carrying the server-side traceback as
        ``traceback_text``.
        """
        body = json.dumps({"jobs": [job_to_wire(job) for job in jobs]})
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request("POST", "/run", body=body.encode(),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        try:
            decoded = json.loads(raw.decode() or "{}")
        except json.JSONDecodeError as bad:
            raise ServiceError(
                f"non-JSON response (status {response.status}): {bad}"
            ) from bad
        if response.status == 200:
            return [result_from_wire(wire) for wire in decoded["results"]]
        message = decoded.get("message", "")
        if response.status == 400:
            raise ConfigError(message or "bad request")
        if decoded.get("error") == "job_failed":
            error = JobExecutionError(message or "job failed")
            error.traceback_text = decoded.get("traceback")
            raise error
        raise ServiceError(
            f"POST /run: {decoded.get('error', response.status)}: {message}"
        )
