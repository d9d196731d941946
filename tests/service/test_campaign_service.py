"""Campaign-over-service tests: the service path is a drop-in executor."""

import threading

import pytest

from repro.analysis.campaign import Campaign
from repro.service import ServiceClient, ServiceHTTPServer
from repro.workloads.params import WorkloadParams

PARAMS = WorkloadParams().scaled(0.25)


@pytest.fixture(scope="module")
def server():
    http = ServiceHTTPServer("127.0.0.1", 0, workers=2)
    thread = threading.Thread(target=http.serve_forever, daemon=True)
    thread.start()
    yield {"port": http.port}
    http.shutdown()
    http.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def small_campaign() -> Campaign:
    return Campaign(
        configs=("RB_8", "RB_8+SH_8+SK+RA"),
        scenes=("WKND", "FOX"),
        params=PARAMS,
        jobs=1,
        use_cache=False,
    )


def test_service_campaign_matches_local(server):
    campaign = small_campaign()
    client = ServiceClient(port=server["port"], timeout=120.0)
    via_service = campaign.run(service=client)
    local = campaign.run()
    assert [r.to_dict() for r in via_service.results] == [
        r.to_dict() for r in local.results
    ]
    # Aggregates built on the results agree too.
    assert via_service.normalized_means() == local.normalized_means()


def test_campaign_accepts_a_url(server):
    campaign = small_campaign()
    result = campaign.run(service=f"http://127.0.0.1:{server['port']}")
    assert len(result.results) == 4
    assert all(r.counters is not None for r in result.results)
