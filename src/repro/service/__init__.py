"""``repro serve``: run job batches for another process over HTTP.

A thin adapter over :func:`repro.runtime.executor.run_jobs`: the server
(:mod:`repro.service.http`) accepts a batch of job specs on ``POST
/run`` and returns their results in order; the client
(:mod:`repro.service.client`) has the workload cache's
``run_jobs(jobs)`` method, so ``run_space(..., service=client)`` and
``repro ablate run --service URL`` use it in the cache's place.  The
JSON wire format lives in :mod:`repro.service.wire`.
"""

from repro.service.client import ServiceClient
from repro.service.http import ServiceHTTPServer

__all__ = ["ServiceClient", "ServiceHTTPServer"]
