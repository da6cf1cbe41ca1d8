"""Control API tests: HTTP layer, REST routing, endpoints, auth."""

import pytest

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.services.control_api.http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    error_response,
    json_response,
)
from repro.services.control_api.rest import RestRouter

from tests.conftest import join_device


class TestHttpRequest:
    def test_parse_simple_get(self):
        raw = b"GET /devices?state=pending HTTP/1.1\r\nHost: router\r\n\r\n"
        request = HttpRequest.parse(raw)
        assert request.method == "GET"
        assert request.path == "/devices"
        assert request.query == {"state": "pending"}
        assert request.header("host") == "router"

    def test_parse_post_with_body(self):
        body = b'{"key": "value"}'
        raw = (
            b"POST /policies HTTP/1.1\r\ncontent-length: "
            + str(len(body)).encode()
            + b"\r\n\r\n"
            + body
        )
        request = HttpRequest.parse(raw)
        assert request.json() == {"key": "value"}

    def test_serialize_parse_roundtrip(self):
        request = HttpRequest(
            "PUT", "/devices/02:aa/metadata", {"x-auth-token": "t"}, b'{"a":1}'
        )
        parsed = HttpRequest.parse(request.serialize())
        assert parsed.method == "PUT"
        assert parsed.header("x-auth-token") == "t"
        assert parsed.json() == {"a": 1}

    def test_malformed_request_line(self):
        with pytest.raises(HttpError):
            HttpRequest.parse(b"NONSENSE\r\n\r\n")

    def test_unsupported_method(self):
        with pytest.raises(HttpError) as err:
            HttpRequest.parse(b"BREW /coffee HTTP/1.1\r\n\r\n")
        assert err.value.status == 405

    def test_truncated_body(self):
        with pytest.raises(HttpError):
            HttpRequest.parse(b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nab")

    def test_bad_json_body(self):
        request = HttpRequest("POST", "/x", body=b"not-json")
        with pytest.raises(HttpError) as err:
            request.json()
        assert err.value.status == 400

    def test_json_body_must_be_object(self):
        request = HttpRequest("POST", "/x", body=b"[1,2]")
        with pytest.raises(HttpError):
            request.json()

    def test_empty_body_is_empty_object(self):
        assert HttpRequest("POST", "/x").json() == {}


class TestHttpResponse:
    def test_json_response(self):
        response = json_response({"ok": True})
        assert response.status == 200
        assert response.json() == {"ok": True}

    def test_serialize_parse_roundtrip(self):
        response = json_response({"n": 5}, status=201)
        parsed = HttpResponse.parse(response.serialize())
        assert parsed.status == 201
        assert parsed.json() == {"n": 5}

    def test_error_response(self):
        response = error_response(404, "nope")
        assert response.status == 404
        assert response.json()["error"] == "nope"

    def test_content_length_header(self):
        raw = json_response({"a": 1}).serialize()
        parsed = HttpResponse.parse(raw)
        assert int(parsed.headers["content-length"]) == len(parsed.body)


class TestRestRouter:
    def test_path_params(self):
        router = RestRouter()
        router.add(
            "GET",
            "/devices/{mac}",
            lambda request, mac: json_response({"mac": mac}),
        )
        response = router.dispatch(HttpRequest("GET", "/devices/02:aa:00:00:00:01"))
        assert response.json()["mac"] == "02:aa:00:00:00:01"

    def test_404(self):
        router = RestRouter()
        assert router.dispatch(HttpRequest("GET", "/missing")).status == 404

    def test_405(self):
        router = RestRouter()
        router.add("GET", "/thing", lambda request: json_response({}))
        assert router.dispatch(HttpRequest("POST", "/thing")).status == 405

    def test_handler_http_error_mapped(self):
        router = RestRouter()

        def handler(request):
            raise HttpError(409, "conflict!")

        router.add("GET", "/x", handler)
        response = router.dispatch(HttpRequest("GET", "/x"))
        assert response.status == 409

    def test_handler_crash_is_500(self):
        router = RestRouter()

        def handler(request):
            raise RuntimeError("bug")

        router.add("GET", "/x", handler)
        assert router.dispatch(HttpRequest("GET", "/x")).status == 500

    def test_trailing_slash_tolerated(self):
        router = RestRouter()
        router.add("GET", "/things", lambda request: json_response([]))
        assert router.dispatch(HttpRequest("GET", "/things/")).status == 200


@pytest.fixture
def api_env():
    sim = Simulator(seed=51)
    router = HomeworkRouter(sim)
    router.start()
    host = router.add_device("laptop", "02:aa:00:00:00:01")
    host.start_dhcp()
    sim.run_for(1.0)
    return sim, router, host


class TestControlApiEndpoints:
    def test_auth_required(self, api_env):
        _sim, router, _host = api_env
        request = HttpRequest("GET", "/status")  # no token
        response = router.control_api.handle_request(request)
        assert response.status == 401

    def test_bad_token_rejected(self, api_env):
        _sim, router, _host = api_env
        request = HttpRequest("GET", "/status", {"x-auth-token": "wrong"})
        assert router.control_api.handle_request(request).status == 401

    def test_status(self, api_env):
        _sim, router, _host = api_env
        response = router.control_api.request("GET", "/status")
        data = response.json()
        assert data["pending"] == 1
        assert data["devices"] == 1

    def test_devices_listing_and_filter(self, api_env):
        _sim, router, host = api_env
        devices = router.control_api.request("GET", "/devices").json()
        assert len(devices) == 1
        assert devices[0]["mac"] == str(host.mac)
        pending = router.control_api.request("GET", "/devices?state=pending").json()
        assert len(pending) == 1
        permitted = router.control_api.request("GET", "/devices?state=permitted").json()
        assert permitted == []

    def test_permit_flow(self, api_env):
        sim, router, host = api_env
        response = router.control_api.request("POST", f"/devices/{host.mac}/permit")
        assert response.json()["state"] == "permitted"
        sim.run_for(6.0)
        assert host.ip is not None

    def test_deny_revokes_lease(self, api_env):
        sim, router, host = api_env
        router.control_api.request("POST", f"/devices/{host.mac}/permit")
        sim.run_for(6.0)
        assert host.ip is not None
        events = []
        router.bus.subscribe("dhcp.lease.revoked", events.append)
        router.control_api.request("POST", f"/devices/{host.mac}/deny")
        assert len(events) == 1

    def test_metadata(self, api_env):
        _sim, router, host = api_env
        response = router.control_api.request(
            "PUT", f"/devices/{host.mac}/metadata", {"name": "Tom's laptop"}
        )
        assert response.json()["display_name"] == "Tom's laptop"

    def test_metadata_requires_body(self, api_env):
        _sim, router, host = api_env
        response = router.control_api.request("PUT", f"/devices/{host.mac}/metadata")
        assert response.status == 400

    def test_device_detail_includes_restrictions(self, api_env):
        _sim, router, host = api_env
        detail = router.control_api.request("GET", f"/devices/{host.mac}").json()
        assert "restrictions" in detail

    def test_unknown_device_404(self, api_env):
        _sim, router, _host = api_env
        response = router.control_api.request("GET", "/devices/02:ff:ff:ff:ff:ff")
        assert response.status == 404

    def test_leases_endpoint(self, api_env):
        sim, router, host = api_env
        router.control_api.request("POST", f"/devices/{host.mac}/permit")
        sim.run_for(6.0)
        leases = router.control_api.request("GET", "/leases").json()
        assert len(leases) == 1
        assert leases[0]["state"] == "bound"

    def test_policy_crud(self, api_env):
        _sim, router, host = api_env
        doc = {
            "name": "no-net",
            "targets": [str(host.mac)],
            "network": "deny",
        }
        created = router.control_api.request("POST", "/policies", doc)
        assert created.status == 201
        policy_id = created.json()["id"]
        listed = router.control_api.request("GET", "/policies").json()
        assert any(p["id"] == policy_id for p in listed)
        disabled = router.control_api.request("POST", f"/policies/{policy_id}/disable")
        assert disabled.json()["enabled"] is False
        deleted = router.control_api.request("DELETE", f"/policies/{policy_id}")
        assert deleted.status == 204
        assert router.control_api.request("GET", "/policies").json() == []

    def test_bad_policy_document(self, api_env):
        _sim, router, _host = api_env
        response = router.control_api.request("POST", "/policies", {"name": "x"})
        assert response.status == 400

    def test_usb_insert_remove(self, api_env):
        _sim, router, _host = api_env
        response = router.control_api.request("POST", "/usb/insert", {"key_id": "k1"})
        assert response.json() == {"inserted": "k1"}
        assert "k1" in router.policy_engine.inserted_keys
        router.control_api.request("POST", "/usb/remove", {"key_id": "k1"})
        assert "k1" not in router.policy_engine.inserted_keys

    def test_usb_insert_needs_key_id(self, api_env):
        _sim, router, _host = api_env
        assert router.control_api.request("POST", "/usb/insert", {}).status == 400

    def test_flows_and_bandwidth_endpoints(self):
        sim = Simulator(seed=52)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        a = join_device(router, "a", "02:aa:00:00:00:01")
        b = join_device(router, "b", "02:aa:00:00:00:02")
        got = []
        b.udp_bind(7000, lambda data, src, sport: got.append(data))
        a.udp_send(b.ip, 7000, b"payload" * 50)
        sim.run_for(5.0)
        flows = router.control_api.request("GET", "/flows?window=30").json()
        assert any(f["dst_port"] == 7000 for f in flows)
        bandwidth = router.control_api.request("GET", "/bandwidth?window=30").json()
        assert bandwidth and bandwidth[0]["bytes"] > 0

    @pytest.mark.parametrize("path", ["/flows", "/bandwidth"])
    @pytest.mark.parametrize("window", ["abc", "nan", "inf", "-5"])
    def test_bad_window_is_a_client_error(self, api_env, path, window):
        _sim, router, _host = api_env
        before = router.metrics.value("http.handler_error_total")
        response = router.control_api.request("GET", f"{path}?window={window}")
        assert response.status == 400
        assert "bad window" in response.json()["error"]
        assert router.metrics.value("http.handler_error_total") == before
        assert router.control_api.request("GET", f"{path}?window=30").status == 200

    @pytest.mark.parametrize("window", ["0", "-0", "1e3"])
    def test_zero_and_exponent_windows_are_served(self, api_env, window):
        _sim, router, _host = api_env
        for path in ("/flows", "/bandwidth"):
            assert router.control_api.request("GET", f"{path}?window={window}").status == 200

    def test_dns_rules_endpoint(self, api_env):
        _sim, router, host = api_env
        router.dns_proxy.filter.allow_only(host.mac, ["facebook.com"])
        rules = router.control_api.request("GET", "/dns/rules").json()
        assert rules[str(host.mac)]["mode"] == "deny"
        assert rules[str(host.mac)]["allowed"] == ["facebook.com"]

    def test_wire_level_bytes_path(self, api_env):
        """The full HTTP byte path: parse request bytes, emit response bytes."""
        _sim, router, _host = api_env
        raw = (
            b"GET /status HTTP/1.1\r\n"
            b"x-auth-token: homework\r\n\r\n"
        )
        response_bytes = router.control_api.handle_bytes(raw)
        response = HttpResponse.parse(response_bytes)
        assert response.status == 200
        assert "router_ip" in response.json()

    def test_wire_level_bad_request(self, api_env):
        _sim, router, _host = api_env
        response = HttpResponse.parse(router.control_api.handle_bytes(b"garbage\r\n\r\n"))
        assert response.status == 400
