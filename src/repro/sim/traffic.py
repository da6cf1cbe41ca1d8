"""Application traffic generators.

Paper Figure 1 shows "per-device per-protocol bandwidth consumption ...
how their devices and their applications, to the extent permitted by the
imperfect application-protocol mapping, are using the network".  These
generators produce that household mix: web browsing, video streaming,
mail sync, ssh sessions, bulk downloads and IoT telemetry — each with the
port signature the measurement plane's protocol mapping recognises.
"""

from __future__ import annotations

import logging
from typing import Optional

from ..net.addresses import IPv4Address
from ..net.tcp import (
    PORT_HTTP,
    PORT_HTTPS,
    PORT_IMAPS,
    PORT_SSH,
)
from .host import Host, TCPConnection

logger = logging.getLogger(__name__)


class TrafficGenerator:
    """Base class: a recurring application behaviour on one host."""

    #: TCP destination port this application signature uses.
    port = PORT_HTTP
    #: Site name resolved before each session.
    site = "www.example.org"

    def __init__(self, host: Host, site: Optional[str] = None):
        self.host = host
        self.sim = host.sim
        if site is not None:
            self.site = site
        self.sessions_started = 0
        self.sessions_completed = 0
        self.sessions_failed = 0
        self.bytes_downloaded = 0
        self.bytes_uploaded = 0
        self._running = False
        self._timer = None

    # -- knobs subclasses override --------------------------------------

    def session_interval(self) -> float:
        """Seconds between session starts (jittered by subclasses)."""
        return 10.0

    def request_size(self) -> int:
        return 400

    def response_size(self) -> int:
        return 64_000

    # -- lifecycle -------------------------------------------------------

    def start(self, initial_delay: float = 0.0) -> None:
        self._running = True
        self._timer = self.sim.schedule(initial_delay, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.run_session()
        self._timer = self.sim.schedule(self.session_interval(), self._tick)

    # -- one application session ------------------------------------------

    def run_session(self) -> None:
        """Resolve the site and run one request/response exchange."""
        self.sessions_started += 1

        def resolved(address: Optional[IPv4Address], _rcode: int) -> None:
            if address is None:
                self.sessions_failed += 1
                return
            self._open(address)

        try:
            self.host.resolve(self.site, resolved)
        except ConnectionError:
            self.sessions_failed += 1

    def _open(self, address: IPv4Address) -> None:
        try:
            conn = self.host.tcp_connect(address, self.port)
        except ConnectionError:
            self.sessions_failed += 1
            return
        request = f"GET {self.response_size()} /{self.site}".encode()
        pad = self.request_size() - len(request)
        if pad > 0:
            request += b" " * pad

        def connected(c: TCPConnection = conn) -> None:
            c.send(request)
            self.bytes_uploaded += len(request)

        expected = self.response_size()
        received = {"n": 0}

        def on_data(data: bytes, c: TCPConnection = conn) -> None:
            received["n"] += len(data)
            self.bytes_downloaded += len(data)
            if received["n"] >= expected:
                self.sessions_completed += 1
                c.close()

        conn.on_connect = connected
        conn.on_data = on_data


class WebBrowsing(TrafficGenerator):
    """Interactive browsing: frequent medium-size page loads over HTTPS."""

    port = PORT_HTTPS
    site = "www.bbc.co.uk"

    def session_interval(self) -> float:
        return self.sim.random.uniform(4.0, 12.0)

    def response_size(self) -> int:
        return self.sim.random.randrange(30_000, 300_000)


class VideoStreaming(TrafficGenerator):
    """Streaming video: steady large chunk fetches (DASH-style)."""

    port = PORT_HTTPS
    site = "www.youtube.com"

    def __init__(self, host: Host, site: Optional[str] = None, bitrate_bps: float = 4_000_000.0):
        super().__init__(host, site)
        self.bitrate_bps = bitrate_bps
        self.chunk_seconds = 2.0

    def session_interval(self) -> float:
        return self.chunk_seconds

    def response_size(self) -> int:
        return int(self.bitrate_bps * self.chunk_seconds / 8)

    def request_size(self) -> int:
        return 200


class MailSync(TrafficGenerator):
    """Periodic IMAP sync: small exchanges on 993."""

    port = PORT_IMAPS
    site = "mail.example.org"

    def session_interval(self) -> float:
        return self.sim.random.uniform(20.0, 40.0)

    def response_size(self) -> int:
        return self.sim.random.randrange(2_000, 20_000)


class SSHSession(TrafficGenerator):
    """Interactive ssh: tiny frequent exchanges on 22."""

    port = PORT_SSH
    site = "homework.example.net"

    def session_interval(self) -> float:
        return self.sim.random.uniform(0.5, 2.0)

    def request_size(self) -> int:
        return 64

    def response_size(self) -> int:
        return self.sim.random.randrange(80, 800)


class BulkDownload(TrafficGenerator):
    """A software update: rare, very large transfer over HTTP."""

    port = PORT_HTTP
    site = "updates.example.io"

    def session_interval(self) -> float:
        return self.sim.random.uniform(120.0, 300.0)

    def response_size(self) -> int:
        return self.sim.random.randrange(5_000_000, 20_000_000)


class IoTTelemetry(TrafficGenerator):
    """An IoT gadget posting tiny UDP datagrams to its cloud."""

    site = "iot.example.io"
    udp_port = 8883

    def run_session(self) -> None:
        self.sessions_started += 1

        def resolved(address: Optional[IPv4Address], _rcode: int) -> None:
            if address is None:
                self.sessions_failed += 1
                return
            payload = b'{"temp": 21.5, "ok": true}'
            try:
                self.host.udp_send(address, self.udp_port, payload)
                self.bytes_uploaded += len(payload)
                self.sessions_completed += 1
            except ConnectionError:
                self.sessions_failed += 1

        try:
            self.host.resolve(self.site, resolved)
        except ConnectionError:
            self.sessions_failed += 1

    def session_interval(self) -> float:
        return self.sim.random.uniform(5.0, 15.0)


#: Mapping used by topology helpers to give each device class a workload.
DEFAULT_WORKLOADS = {
    "laptop": (WebBrowsing, MailSync),
    "phone": (WebBrowsing,),
    "tv": (VideoStreaming,),
    "console": (BulkDownload,),
    "iot": (IoTTelemetry,),
    "workstation": (SSHSession, WebBrowsing),
}
