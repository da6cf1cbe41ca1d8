"""The control API NOX module.

"The control API NOX module provides a simple RESTful web interface to
the router, invoked to exercise control over connected devices: by the
Linux udev subsystem when a suitably formatted USB storage device is
inserted; and directly by the various graphical control interfaces.  The
control API configures the behaviour of our DHCP server and DNS proxy
NOX modules."

Resources::

    GET    /status
    GET    /devices                 list all devices with policy state
    GET    /devices/{mac}
    POST   /devices/{mac}/permit    drag to the permitted category
    POST   /devices/{mac}/deny      drag to the denied category
    PUT    /devices/{mac}/metadata  attach user-supplied metadata
    GET    /leases
    GET    /flows?window=N          recent flows from hwdb
    GET    /bandwidth?window=N      per-device byte totals from hwdb
    GET    /policies
    POST   /policies                install a policy (JSON document)
    DELETE /policies/{id}
    POST   /policies/{id}/enable
    POST   /policies/{id}/disable
    POST   /usb/insert              {"key_id": ...} — udev hook
    POST   /usb/remove              {"key_id": ...}
    GET    /dns/rules               current per-device site rules

Requests carry the shared token in ``X-Auth-Token``.
"""

from __future__ import annotations

import logging
import math
from typing import Optional, TYPE_CHECKING

from ...core.config import RouterConfig
from ...core.errors import PolicyError
from ...core.events import EventBus
from ...nox.component import Component
from .http import HttpError, HttpRequest, HttpResponse, error_response, json_response
from .rest import RestRouter, add_metrics_route

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...hwdb.database import HomeworkDatabase
    from ...policy.engine import PolicyEngine
    from ..dhcp.server import DhcpServer
    from ..dnsproxy.proxy import DnsProxy
    from ..routing import RouterCore

logger = logging.getLogger(__name__)


def _window_seconds(request: HttpRequest) -> float:
    """The ``window`` query parameter (default 10 s) as a CQL RANGE.

    A value that is not a number, not finite, or negative is the
    client's fault: 400, not a query that fails to parse.
    """
    raw = request.query.get("window", "10")
    try:
        window = float(raw)
    except ValueError:
        raise HttpError(400, f"bad window {raw!r}: not a number") from None
    if not math.isfinite(window) or window < 0:
        raise HttpError(400, f"bad window {raw!r}: need a finite number >= 0")
    # + 0.0 turns -0.0 into 0.0: the CQL text cannot carry a sign.
    return window + 0.0


class ControlApi(Component):
    """REST control surface wired to the DHCP server, DNS proxy and policies."""

    name = "control_api"

    def __init__(
        self,
        controller,
        config: RouterConfig,
        bus: EventBus,
        dhcp: "DhcpServer",
        dns_proxy: Optional["DnsProxy"] = None,
        policy_engine: Optional["PolicyEngine"] = None,
        router_core: Optional["RouterCore"] = None,
        hwdb: Optional["HomeworkDatabase"] = None,
    ):
        super().__init__(controller)
        self.config = config
        self.bus = bus
        self.dhcp = dhcp
        self.dns_proxy = dns_proxy
        self.policy_engine = policy_engine
        self.router_core = router_core
        self.hwdb = hwdb
        self.registry = controller.registry
        self.router = RestRouter(registry=self.registry)
        self._m_requests = self.registry.counter("http.request_total")
        self._register_routes()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve one request object (the in-process UI path)."""
        self._m_requests.inc()
        if request.header("x-auth-token") != self.config.control_api_token:
            return error_response(401, "missing or bad X-Auth-Token")
        return self.router.dispatch(request)

    def handle_bytes(self, raw: bytes) -> bytes:
        """Serve raw HTTP bytes (the on-the-wire path)."""
        try:
            request = HttpRequest.parse(raw)
        except HttpError as exc:
            return error_response(exc.status, str(exc)).serialize()
        return self.handle_request(request).serialize()

    def request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> HttpResponse:
        """Convenience client used by the UIs and the udev monitor."""
        import json as _json

        raw = _json.dumps(body).encode("utf-8") if body is not None else b""
        request = HttpRequest(
            method,
            path,
            headers={"x-auth-token": self.config.control_api_token},
            body=raw,
        )
        return self.handle_request(request)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------

    def _register_routes(self) -> None:
        r = self.router
        r.add("GET", "/status", self._status)
        r.add("GET", "/devices", self._devices)
        r.add("GET", "/devices/{mac}", self._device)
        r.add("POST", "/devices/{mac}/permit", self._permit)
        r.add("POST", "/devices/{mac}/deny", self._deny)
        r.add("PUT", "/devices/{mac}/metadata", self._metadata)
        r.add("GET", "/leases", self._leases)
        r.add("GET", "/flows", self._flows)
        r.add("GET", "/bandwidth", self._bandwidth)
        r.add("GET", "/policies", self._policies)
        r.add("POST", "/policies", self._install_policy)
        r.add("DELETE", "/policies/{pid}", self._remove_policy)
        r.add("POST", "/policies/{pid}/enable", self._enable_policy)
        r.add("POST", "/policies/{pid}/disable", self._disable_policy)
        r.add("POST", "/usb/insert", self._usb_insert)
        r.add("POST", "/usb/remove", self._usb_remove)
        r.add("GET", "/dns/rules", self._dns_rules)
        add_metrics_route(r, self.registry)

    # -- status / devices -------------------------------------------------

    def _status(self, request: HttpRequest) -> HttpResponse:
        leases = self.dhcp.leases
        data = {
            "router_ip": str(self.config.router_ip),
            "subnet": str(self.config.subnet),
            "devices": len(self.dhcp.policy),
            "active_leases": len(leases.active(self.now)),
            "pending": len(self.dhcp.policy.devices("pending")),
            "permitted": len(self.dhcp.policy.devices("permitted")),
            "denied": len(self.dhcp.policy.devices("denied")),
            "policies": len(self.policy_engine.policies()) if self.policy_engine else 0,
            "time": self.now,
        }
        return json_response(data)

    def _devices(self, request: HttpRequest) -> HttpResponse:
        state = request.query.get("state")
        records = self.dhcp.policy.devices(state)
        out = []
        for record in records:
            entry = record.to_dict()
            lease = self.dhcp.leases.by_mac(record.mac)
            entry["ip"] = str(lease.ip) if lease is not None else None
            entry["lease_state"] = lease.state if lease is not None else None
            out.append(entry)
        return json_response(out)

    def _device(self, request: HttpRequest, mac: str) -> HttpResponse:
        record = self.dhcp.policy.get(mac)
        if record is None:
            raise HttpError(404, f"unknown device {mac}")
        entry = record.to_dict()
        lease = self.dhcp.leases.by_mac(mac)
        entry["ip"] = str(lease.ip) if lease is not None else None
        entry["lease_state"] = lease.state if lease is not None else None
        if self.policy_engine is not None:
            entry["restrictions"] = self.policy_engine.restrictions_for(
                mac, self.now
            ).to_dict()
        return json_response(entry)

    def _permit(self, request: HttpRequest, mac: str) -> HttpResponse:
        record = self.dhcp.policy.permit(mac, self.now)
        # Policies outrank the control UI: if an installed document denies
        # this device, re-enforcement reasserts the denial right away
        # instead of leaving a permit window until the next sweep.
        if self.policy_engine is not None:
            self.policy_engine.enforce(self.now)
            record = self.dhcp.policy.get(mac) or record
        self.bus.emit("control.device.permitted", timestamp=self.now, mac=str(record.mac))
        return json_response(record.to_dict())

    def _deny(self, request: HttpRequest, mac: str) -> HttpResponse:
        record = self.dhcp.policy.deny(mac, self.now)
        # Denial is immediate: revoke the lease and evict live flows.
        self.dhcp.revoke_device(mac)
        if self.router_core is not None:
            self.router_core.evict_device(mac)
        self.bus.emit("control.device.denied", timestamp=self.now, mac=str(record.mac))
        return json_response(record.to_dict())

    def _metadata(self, request: HttpRequest, mac: str) -> HttpResponse:
        body = request.json()
        if not body:
            raise HttpError(400, "metadata body required")
        record = self.dhcp.policy.set_metadata(mac, **body)
        return json_response(record.to_dict())

    # -- leases / measurement ----------------------------------------------

    def _leases(self, request: HttpRequest) -> HttpResponse:
        out = []
        for lease in self.dhcp.leases.all():
            out.append(
                {
                    "mac": str(lease.mac),
                    "ip": str(lease.ip),
                    "gateway": str(lease.gateway),
                    "hostname": lease.hostname,
                    "state": lease.state,
                    "expires_at": lease.expires_at,
                    "renew_count": lease.renew_count,
                }
            )
        return json_response(out)

    def _flows(self, request: HttpRequest) -> HttpResponse:
        if self.hwdb is None:
            raise HttpError(404, "hwdb not attached")
        window = _window_seconds(request)
        result = self.hwdb.query(
            f"SELECT src_ip, dst_ip, proto, src_port, dst_port, bytes "
            f"FROM flows [RANGE {window} SECONDS]"
        )
        return json_response(result.to_dicts())

    def _bandwidth(self, request: HttpRequest) -> HttpResponse:
        if self.hwdb is None:
            raise HttpError(404, "hwdb not attached")
        window = _window_seconds(request)
        result = self.hwdb.query(
            f"SELECT src_mac, sum(bytes) AS bytes, sum(packets) AS packets "
            f"FROM flows [RANGE {window} SECONDS] GROUP BY src_mac "
            f"ORDER BY bytes DESC"
        )
        return json_response(result.to_dicts())

    # -- policies -----------------------------------------------------------

    def _need_engine(self) -> "PolicyEngine":
        if self.policy_engine is None:
            raise HttpError(404, "policy engine not attached")
        return self.policy_engine

    def _policies(self, request: HttpRequest) -> HttpResponse:
        engine = self._need_engine()
        out = []
        for policy in engine.policies():
            entry = policy.to_dict()
            entry["active_now"] = policy.active(self.now, engine.inserted_keys)
            out.append(entry)
        return json_response(out)

    def _install_policy(self, request: HttpRequest) -> HttpResponse:
        engine = self._need_engine()
        body = request.json()
        try:
            policy = engine.install_document(body, self.now)
        except PolicyError as exc:
            raise HttpError(400, f"bad policy document: {exc}") from exc
        return json_response(policy.to_dict(), status=201)

    def _remove_policy(self, request: HttpRequest, pid: str) -> HttpResponse:
        engine = self._need_engine()
        try:
            engine.remove(int(pid), self.now)
        except ValueError as exc:
            raise HttpError(400, f"bad policy id {pid!r}") from exc
        return HttpResponse(204)

    def _enable_policy(self, request: HttpRequest, pid: str) -> HttpResponse:
        self._need_engine().set_enabled(int(pid), True, self.now)
        return json_response({"id": int(pid), "enabled": True})

    def _disable_policy(self, request: HttpRequest, pid: str) -> HttpResponse:
        self._need_engine().set_enabled(int(pid), False, self.now)
        return json_response({"id": int(pid), "enabled": False})

    # -- USB mediation --------------------------------------------------------

    def _usb_insert(self, request: HttpRequest) -> HttpResponse:
        engine = self._need_engine()
        key_id = str(request.json().get("key_id", ""))
        if not key_id:
            raise HttpError(400, "key_id required")
        engine.key_inserted(key_id, self.now)
        return json_response({"inserted": key_id})

    def _usb_remove(self, request: HttpRequest) -> HttpResponse:
        engine = self._need_engine()
        key_id = str(request.json().get("key_id", ""))
        if not key_id:
            raise HttpError(400, "key_id required")
        engine.key_removed(key_id, self.now)
        return json_response({"removed": key_id})

    # -- DNS ---------------------------------------------------------------------

    def _dns_rules(self, request: HttpRequest) -> HttpResponse:
        if self.dns_proxy is None:
            raise HttpError(404, "dns proxy not attached")
        return json_response(self.dns_proxy.filter.rules())
