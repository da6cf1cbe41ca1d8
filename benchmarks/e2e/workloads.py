"""The four end-to-end workloads: scenario builders, load loops, outcome checks.

Every workload is one simulated household behind one Homework router,
driven from a single process.  Traffic generators, UI queries and
control requests are open-loop in *simulated* time: each fires on its
own sim timer whether or not earlier work has finished.  The simulator
runs as fast as it can, so throughput is work per wall second and a
latency is the wall time of one synchronous call.

Every workload keeps the paper's interfaces in use: a UI polls hwdb over
RPC (the Figure 1/2 queries) with two Figure 1 subscriptions open, and a
control client talks to the REST control API (Figures 3/4), each 16
times per sim-s.  ``ui`` raises the queries to 100 per sim-s, and in
``churn`` the control requests change devices and policies.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import RpcError
from repro.household import build_household
from repro.hwdb.snapshot import database_digests
from repro.services.control_api.http import HttpRequest, HttpResponse
from repro.sim.host import Host, TCPConnection
from repro.sim.topology import STANDARD_HOUSEHOLD, DeviceSpec, Household
from repro.sim.traffic import (
    IoTTelemetry,
    MailSync,
    SSHSession,
    TrafficGenerator,
    VideoStreaming,
)

#: Five Figure 1/2 queries the UI rotates through: per-device bytes,
#: flow five-tuples, link health, the lease device map, total bytes.
UI_QUERIES: Tuple[str, ...] = (
    "SELECT src_mac, sum(bytes) AS bytes, sum(packets) AS packets "
    "FROM flows [RANGE 30 SECONDS] GROUP BY src_mac",
    "SELECT src_ip, dst_ip, proto, src_port, dst_port, bytes FROM flows [RANGE 10 SECONDS]",
    "SELECT mac, last(rssi) AS rssi, sum(retries) AS retries FROM links "
    "[RANGE 5 SECONDS] GROUP BY mac",
    "SELECT ip, last(mac) AS mac, last(hostname) AS hostname FROM leases "
    "WHERE action = 'granted' OR action = 'renewed' GROUP BY ip",
    "SELECT sum(bytes) FROM flows [RANGE 60 SECONDS]",
)

#: What a Figure 1 screen keeps subscribed, refreshed every second: the
#: per-device bars and the household total.
UI_SUBSCRIPTIONS: Tuple[str, ...] = (UI_QUERIES[0], UI_QUERIES[4])

#: Read-only control traffic: a control UI refreshing its screens.
#: Latency percentiles of a cycle of equally frequent requests sit on a
#: boundary between two request kinds when the kinds are even in number,
#: and then jump between them from run to run; so every cycle has an odd
#: number of kinds.
READ_CONTROL: Tuple[Tuple[str, str, Optional[dict]], ...] = (
    ("GET", "/status", None),
    ("GET", "/devices", None),
    ("GET", "/bandwidth?window=30", None),
    ("GET", "/leases", None),
    ("GET", "/policies", None),
)

#: The ``churn`` write cycle.  The deny/permit target is an IoT sensor:
#: a deny releases the device's lease, so a TCP client would lose its
#: return traffic for good, while fire-and-forget telemetry does not
#: fail.  ``{policy}`` is the id the last policy POST returned.
_IOT0 = "02:bb:00:00:02:00"
_IOT1 = "02:bb:00:00:02:01"
WRITE_CONTROL: Tuple[Tuple[str, str, Optional[dict]], ...] = (
    ("POST", f"/devices/{_IOT1}/deny", None),
    ("POST", f"/devices/{_IOT1}/permit", None),
    (
        "POST",
        "/policies",
        {
            "name": "sensor-no-social",
            "targets": [_IOT0],
            "dns_mode": "block",
            "sites": ["facebook.com"],
            "usb_gated": True,
            "unlock_key_id": "parent-key",
        },
    ),
    ("GET", "/policies", None),
    ("POST", "/usb/insert", {"key_id": "parent-key"}),
    ("POST", "/usb/remove", {"key_id": "parent-key"}),
    ("DELETE", "/policies/{policy}", None),
)

PING_TARGET = "93.184.216.34"
DRAIN_S = 10.0
#: The UI and control clients connect this many sim-s before the timed
#: phase (or when the warm-up starts, if it is shorter): long enough to
#: warm their caches, short enough to keep set-up cheap.
CLIENT_LEAD_S = 10.0
#: Control requests per sim-s, in every workload.
CONTROL_RATE = 16.0
#: The timed phase covers at least enough sim time for this many UI
#: queries and control requests, so each p95 has ten samples beyond it.
MIN_QUERY_SAMPLES = 400
MIN_CONTROL_SAMPLES = 200


class Scenario:
    """A built household plus its load loops and the counters the checks read."""

    def __init__(
        self,
        household: Household,
        control_requests: Sequence[Tuple[str, str, Optional[dict]]],
        ui_rate: float = 16.0,
    ):
        self.sim = household.sim
        self.router = household.router
        self.hosts: Dict[str, Host] = household.hosts
        self.generators = household.generators
        self.ui_rate = ui_rate
        self.control_requests = tuple(control_requests)
        #: Latencies are kept only while recording (the timed phase).
        self.recording = False
        self.query_ms: List[float] = []
        self.control_ms: List[float] = []
        self.client_conns: List[TCPConnection] = []
        self.server_conns: List[TCPConnection] = []
        self.router.cloud.on_serve = self.server_conns.append
        for host in self.hosts.values():
            self._track_connects(host)
        self.client = self.router.hwdb_client()
        self.pings_sent = 0
        self.pings_answered = 0
        self.rpc_sent = 0
        self.rpc_errors = 0
        self.pushes = 0
        self.control_sent = 0
        self.control_errors = 0
        self.policy_id: Optional[int] = None
        self._ui_next = 0
        self._control_next = 0
        self._timers: list = []
        self._subscriptions: List[int] = []

    # -- load loops -------------------------------------------------------

    def _track_connects(self, host: Host) -> None:
        connect = host.tcp_connect

        def tracked(remote_ip, remote_port):
            conn = connect(remote_ip, remote_port)
            self.client_conns.append(conn)
            return conn

        host.tcp_connect = tracked

    def add_pings(self, interval: float) -> None:
        """Every device pings the upstream target every ``interval`` s."""
        for index, host in enumerate(self.hosts.values()):
            self._timers.append(
                self.sim.schedule_periodic(
                    interval, self._pinger(host), first_delay=0.001 * (index + 1)
                )
            )

    def _pinger(self, host: Host) -> Callable[[], None]:
        def on_reply(ok: bool, _rtt: float) -> None:
            if ok:
                self.pings_answered += 1

        def fire() -> None:
            self.pings_sent += 1
            host.ping(PING_TARGET, on_reply)

        return fire

    def start_ui_and_control(self) -> None:
        for text in UI_SUBSCRIPTIONS:
            self.rpc_sent += 1
            try:
                self._subscriptions.append(self.client.subscribe(text, 1.0, self._on_push))
            except RpcError:
                self.rpc_errors += 1
        self._timers.append(self.sim.schedule_periodic(1.0 / self.ui_rate, self._ui_tick))
        self._timers.append(
            self.sim.schedule_periodic(1.0 / CONTROL_RATE, self._control_tick)
        )

    def _on_push(self, _result) -> None:
        self.pushes += 1

    def _ui_tick(self) -> None:
        text = UI_QUERIES[self._ui_next % len(UI_QUERIES)]
        self._ui_next += 1
        self.rpc_sent += 1
        started = time.perf_counter()
        try:
            self.client.query(text)
        except RpcError:
            self.rpc_errors += 1
        elapsed = time.perf_counter() - started
        if self.recording:
            self.query_ms.append(elapsed * 1e3)

    def _control_tick(self) -> None:
        method, path, body = self.control_requests[
            self._control_next % len(self.control_requests)
        ]
        self._control_next += 1
        raw = HttpRequest(
            method,
            path.format(policy=self.policy_id),
            headers={"x-auth-token": self.router.config.control_api_token},
            body=json.dumps(body).encode() if body is not None else b"",
        ).serialize()
        self.control_sent += 1
        started = time.perf_counter()
        reply = self.router.control_api.handle_bytes(raw)
        elapsed = time.perf_counter() - started
        if self.recording:
            self.control_ms.append(elapsed * 1e3)
        response = HttpResponse.parse(reply)
        if response.status >= 400:
            self.control_errors += 1
        elif method == "POST" and path == "/policies":
            self.policy_id = response.json()["id"]

    def stop_loads(self) -> None:
        for generator in self.generators:
            generator.stop()
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        for sub_id in self._subscriptions:
            self.client.unsubscribe(sub_id)
        self._subscriptions.clear()

    # -- determinism and outcome checks -----------------------------------

    def digest(self) -> str:
        """SHA-256 over packets processed, events executed and every hwdb
        table except the wall-clock ``metrics`` table."""
        payload = {
            "packets": self.router.datapath.packets_processed,
            "events": self.sim.events_executed,
            "tables": database_digests(self.router.db),
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()

    def finish(self) -> dict:
        """Stop the load, drain, and check every outcome.

        ``TrafficGenerator.sessions_completed`` is not used: it draws the
        response size twice, so it over-counts.  Bytes are paired instead:
        what every client received must equal what the cloud sent.
        """
        self.stop_loads()
        self.sim.run_for(DRAIN_S)
        db = self.router.db
        rpc_mismatches = []
        for text in UI_QUERIES:
            self.rpc_sent += 1
            try:
                via_rpc = self.client.query(text)
            except RpcError:
                self.rpc_errors += 1
                continue
            direct = db.query(text)
            if (via_rpc.columns, via_rpc.rows) != (direct.columns, direct.rows):
                rpc_mismatches.append(text)
        conns = self.client_conns
        servers = self.server_conns
        sessions = sum(g.sessions_started for g in self.generators)
        failed = {
            "sessions": sum(g.sessions_failed for g in self.generators),
            "silent_connections": sum(1 for c in conns if c.bytes_received == 0),
            "pings_unanswered": self.pings_sent - self.pings_answered,
            "rpc_errors": self.rpc_errors,
            "control_errors": self.control_errors,
        }
        checks = {
            "bytes_down": sum(c.bytes_received for c in conns)
            == sum(c.bytes_sent for c in servers),
            "bytes_up": sum(c.bytes_sent for c in conns)
            == sum(c.bytes_received for c in servers),
            "rpc_results": not rpc_mismatches,
            "subscriptions_pushed": self.pushes > 0,
            "no_failures": not any(failed.values()),
        }
        return {
            "attempted": sessions + self.pings_sent + self.rpc_sent + self.control_sent,
            "failed": sum(failed.values()),
            "failures": failed,
            "checks": checks,
            "tcp_connections": len(conns),
            "tcp_left_open": sum(1 for c in conns if c.state != "CLOSED"),
            "rpc_pushes": self.pushes,
        }


# -- the four households --------------------------------------------------


def _household(seed: int) -> Scenario:
    household = build_household(STANDARD_HOUSEHOLD, seed=seed)
    return Scenario(household, READ_CONTROL)


def _small_frames(seed: int) -> Scenario:
    specs = [DeviceSpec(f"pc{i}", f"02:cc:00:00:00:{i + 1:02x}") for i in range(8)]
    household = build_household(specs, seed=seed, start_traffic=False)
    scenario = Scenario(household, READ_CONTROL)
    scenario.add_pings(interval=0.008)
    return scenario


def _start_traffic(
    household: Household, plan: Sequence[Tuple[str, Callable[[Host], TrafficGenerator]]]
) -> None:
    """Start one generator per (device, generator factory), staggered."""
    for index, (name, make) in enumerate(plan):
        generator = make(household.hosts[name])
        generator.start(0.2 + 0.05 * index)
        household.generators.append(generator)


def _churn(seed: int) -> Scenario:
    workstations = [
        DeviceSpec(f"ws{i}", f"02:bb:00:00:01:{i:02x}", "workstation") for i in range(8)
    ]
    sensors = [
        DeviceSpec(
            f"iot{i}",
            f"02:bb:00:00:02:{i:02x}",
            "iot",
            wireless=True,
            position=(1 + i % 4, 1 + i // 4),
        )
        for i in range(8)
    ]
    household = build_household(workstations + sensors, seed=seed, start_traffic=False)
    _start_traffic(
        household,
        [(spec.name, SSHSession) for spec in workstations]
        + [(spec.name, IoTTelemetry) for spec in sensors],
    )
    return Scenario(household, WRITE_CONTROL)


def _ui(seed: int) -> Scenario:
    # The standard household with the TV off and nobody browsing: random
    # page sizes made the packet count differ by 10% from seed to seed.
    # A radio stream on the laptop keeps a light, steady datapath load.
    specs = [spec for spec in STANDARD_HOUSEHOLD if spec.device_class != "tv"]
    household = build_household(specs, seed=seed, start_traffic=False)
    _start_traffic(
        household,
        [
            ("toms-air", lambda host: VideoStreaming(host, bitrate_bps=128_000.0)),
            ("toms-air", MailSync),
            ("workstation", SSHSession),
            ("door-sensor", IoTTelemetry),
        ],
    )
    return Scenario(household, READ_CONTROL, ui_rate=100.0)


class Workload:
    """How to build one workload and how long each phase runs (sim-s)."""

    def __init__(
        self,
        name: str,
        why: str,
        build: Callable[[int], Scenario],
        warmup_s: float,
        chunk_s: float,
        period_s: Optional[float] = None,
    ):
        self.name = name
        self.why = why
        self._build = build
        self.warmup_s = warmup_s
        self.chunk_s = chunk_s
        #: Timed phases cover whole periods of the workload's steadiest
        #: traffic, so a window never holds one burst more than another.
        self.period_chunks = round((period_s or chunk_s) / chunk_s)

    def setup(self, seed: int, warmup_s: float) -> Scenario:
        """Build, join, start every load and warm up; returns the scenario
        ready for its timed phase."""
        scenario = self._build(seed)
        lead = min(warmup_s, CLIENT_LEAD_S)
        scenario.sim.run_for(warmup_s - lead)
        scenario.start_ui_and_control()
        scenario.sim.run_for(lead)
        return scenario

    def whole_periods(self, chunks: int) -> int:
        return -(-chunks // self.period_chunks) * self.period_chunks

    def min_chunks(self, scenario: Scenario) -> int:
        """Chunks every timed phase runs; the digest is taken after them."""
        sim_s = max(MIN_QUERY_SAMPLES / scenario.ui_rate, MIN_CONTROL_SAMPLES / CONTROL_RATE)
        return self.whole_periods(math.ceil(sim_s / self.chunk_s - 1e-9))


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "household",
            "the standard four-device household: 1400-byte segments on the "
            "microflow cache, so per-byte work in net dominates",
            _household,
            warmup_s=5.0,
            chunk_s=0.5,
            period_s=2.0,  # one TV video chunk
        ),
        Workload(
            "small_frames",
            "8 devices pinging upstream with 50-byte frames: per-packet fixed "
            "cost in net and sim, 16 flows, no punts",
            _small_frames,
            warmup_s=2.0,
            chunk_s=0.25,
        ),
        Workload(
            "churn",
            "8 ssh workstations, 8 sensors and 16 control requests per sim-s: "
            "the openflow/nox/services/policy write path",
            _churn,
            warmup_s=60.0,
            chunk_s=0.5,
        ),
        Workload(
            "ui",
            "a quiet household with 100 RPC queries per sim-s: the hwdb read "
            "path (CQL parse, query engine, RPC codec)",
            _ui,
            warmup_s=30.0,
            chunk_s=2.0,  # one radio chunk
        ),
    )
}
