"""Endpoint contract tests against an in-process server over real TCP.

One server (module fixture) serves every test; each test talks plain
HTTP through :class:`repro.serve.client.ServeClient`.  The contract
under test is the one docs/serving.md documents: the compose -> inspect
-> release round trip, clean 4xx on malformed input, and the status /
metrics surfaces.
"""

import pytest

from repro.capabilities import SERVE_API_VERSION, build_descriptor
from repro.serve.client import ServeApiError

APP = "video-on-demand"


def admit_one(client, duration=5.0):
    """Compose until admitted (the small grid admits essentially always)."""
    for _ in range(10):
        payload = client.compose(APP, qos_level="average", duration=duration)
        if payload["admitted"]:
            return payload
    pytest.fail("no admission in 10 compose attempts")


class TestRoundTrip:
    def test_compose_admits_and_returns_path(self, client):
        payload = admit_one(client)
        assert payload["status"] == "admitted"
        assert isinstance(payload["session_id"], int)
        assert payload["application"] == APP
        path = payload["path"]
        assert path["services"], "composed path must name its services"
        assert len(path["instances"]) == len(path["services"])
        assert path["hops"] == len(path["services"])
        assert payload["peers"], "admitted sessions pin provisioning peers"

    def test_admitted_session_is_inspectable(self, client):
        sid = admit_one(client)["session_id"]
        listing = client.sessions()
        assert any(s["session_id"] == sid for s in listing["sessions"])
        view = client.session(sid)
        assert view["state"] == "active"
        assert view["application"] == APP
        assert view["remaining"] > 0

    def test_delete_releases_and_is_idempotent(self, client):
        sid = admit_one(client)["session_id"]
        gone = client.release(sid)
        assert gone["state"] == "completed"
        assert gone["reason"] == "client-release"
        assert all(
            s["session_id"] != sid for s in client.sessions()["sessions"]
        )
        # Second DELETE: 404, and nothing is released twice.
        with pytest.raises(ServeApiError) as err:
            client.release(sid)
        assert err.value.status == 404

    def test_released_session_keeps_a_resolved_view(self, client):
        sid = admit_one(client)["session_id"]
        client.release(sid)
        view = client.session(sid)
        assert view["state"] == "completed"
        assert view["reason"] == "client-release"

    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServeApiError) as err:
            client.session(10_000_000)
        assert err.value.status == 404
        with pytest.raises(ServeApiError) as err:
            client.release(10_000_000)
        assert err.value.status == 404


class TestMalformedRequests:
    @pytest.mark.parametrize("body,fragment", [
        (None, "body required"),
        ([1, 2], "JSON object"),
        ({}, "'application'"),
        ({"application": 7}, "'application'"),
        ({"application": "no-such-app"}, "unknown application"),
        ({"application": APP, "qos_level": "ultra"}, "qos_level"),
        ({"application": APP, "duration": -3}, "duration"),
        ({"application": APP, "duration": "long"}, "duration"),
        ({"application": APP, "duration": 1e9}, "duration"),
        ({"application": APP, "peer_id": "zero"}, "peer_id"),
        ({"application": APP, "shiny": 1}, "unknown compose fields"),
    ])
    def test_bad_compose_bodies_are_400(self, client, body, fragment):
        status, payload = client.request("POST", "/compose", body)
        assert status == 400
        assert fragment in payload["error"]

    def test_dead_peer_is_400(self, client):
        status, payload = client.request(
            "POST", "/compose", {"application": APP, "peer_id": 10_000_000}
        )
        assert status == 400
        assert "not alive" in payload["error"]

    def test_invalid_json_is_400(self, client):
        import http.client

        conn = http.client.HTTPConnection(client.host, client.port, timeout=10)
        conn.request("POST", "/compose", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert b"invalid JSON" in response.read()
        conn.close()

    def test_non_integer_session_id_is_400(self, client):
        status, payload = client.request("GET", "/sessions/latest")
        assert status == 400
        assert "integer" in payload["error"]

    def test_unknown_route_is_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, client):
        status, payload = client.request("PUT", "/compose")
        assert status == 405
        assert "POST" in payload["error"]


class TestStatusAndMetrics:
    def test_index_lists_endpoints(self, client):
        index = client.index()
        assert "POST /compose" in index["endpoints"]
        assert index["service"]["serve_api"] == SERVE_API_VERSION

    def test_status_reports_grid_and_counters(self, client):
        st = client.status()
        assert st["api"] == SERVE_API_VERSION
        assert st["mode"] == "sim"
        assert st["grid"]["n_peers"] == 120
        assert st["grid"]["n_instances"] > 0
        assert st["grid"]["generation"] >= 120
        # One peer-state representation: the store is always there to
        # report, and no backend name is.
        assert st["grid"]["peer_store_bytes"] > 0
        assert st["grid"]["peer_rows_recycled"] == 0  # no churn here
        assert "peer_state_backend" not in st["grid"]
        assert st["sessions"]["admitted"] >= 1
        assert st["requests"]["http"] >= 1
        assert st["requests"]["compose"] == (
            st["requests"]["admitted"] + st["requests"]["rejected"]
        )
        assert "discovery_routed" in st["caches"]

    def test_status_reports_the_plan_cache(self, client):
        """Every request that reached composition is one plan hit or
        miss (the counters it replaced read a constant 0)."""
        for _ in range(8):
            client.compose(APP, qos_level="average", duration=2.0)
        caches = client.status()["caches"]
        composed = client.metrics()["metrics"]["counters"]["qcs.compositions"]
        assert caches["qcs_plan_hits"] + caches["qcs_plan_misses"] == composed
        assert composed >= 8 and caches["qcs_plan_hits"] > 0

    def test_status_embeds_the_capability_descriptor(self, client):
        # Satellite contract: `repro info` and GET /status share one
        # build/capability descriptor.
        assert client.status()["service"] == build_descriptor()

    def test_sim_time_advances_per_request(self, client):
        t0 = client.status()["sim_time"]
        t1 = client.status()["sim_time"]
        assert t1 > t0

    def test_metrics_reflect_telemetry_bus(self, client):
        m = client.metrics()
        assert m["enabled"] is True
        assert m["events_emitted"] >= m["events_retained"] >= 0
        assert m["event_counts"].get("serve.request", 0) >= 1
        counters = m["metrics"]["counters"]
        assert counters.get("serve.requests", 0) >= 1
