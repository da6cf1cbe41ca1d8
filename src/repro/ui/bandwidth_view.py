"""Figure 1: the iPhone/iTouch per-device bandwidth display.

"The first ... runs on an iPhone/iTouch device and simply displays the
per-device per-protocol bandwidth consumption.  This allows users to
focus on how their devices and their applications ... are using the
network."

The view polls the measurement plane (:meth:`refresh`, on a timer in
live mode) and renders two screens:
the device list (bandwidth per machine) and, after
:meth:`select_device`, the per-protocol breakdown for one machine —
exactly the two panes of the paper's Figure 5 screenshot ("Bandwidth
consumption per machine (left-hand side) and usage per protocol for
'Tom's Mac Air' (right-hand side)").
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING, Union

from ..measurement.aggregator import BandwidthAggregator, DeviceUsage
from ..net.addresses import MACAddress

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.simulator import Simulator

_SCREEN_WIDTH = 36  # characters: a 2011 iPhone-ish text screen
_BAR_WIDTH = 12


def _human_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024:
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n:.1f}TB"


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


class BandwidthView:
    """The handheld bandwidth-consumption display."""

    def __init__(
        self,
        aggregator: BandwidthAggregator,
        sim: Optional["Simulator"] = None,
        window: float = 10.0,
        refresh_interval: float = 2.0,
    ):
        self.aggregator = aggregator
        self.sim = sim
        self.window = window
        self.refresh_interval = refresh_interval
        self.devices: List[DeviceUsage] = []
        self.selected: Optional[str] = None  # MAC of the drilled-into device
        self.refreshes = 0
        self._timer = None

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def refresh(self) -> List[DeviceUsage]:
        """Pull the latest per-device usage from the measurement plane."""
        self.devices = self.aggregator.per_device(self.window)
        self.refreshes += 1
        return self.devices

    def start(self) -> None:
        """Begin periodic refresh (the live display loop)."""
        if self.sim is None:
            raise RuntimeError("BandwidthView needs a simulator for live mode")
        self._timer = self.sim.schedule_periodic(self.refresh_interval, self.refresh)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # Interaction
    # ------------------------------------------------------------------

    def select_device(self, device: Union[str, MACAddress]) -> None:
        """Tap a device row: drill into its per-protocol view."""
        self.selected = str(MACAddress(device))

    def back(self) -> None:
        """Return to the device list."""
        self.selected = None

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        """The current screen as text."""
        if self.selected is None:
            return self._render_device_list()
        return self._render_device_detail(self.selected)

    def _header(self, title: str) -> List[str]:
        return [
            "+" + "-" * _SCREEN_WIDTH + "+",
            "|" + title.center(_SCREEN_WIDTH) + "|",
            "+" + "-" * _SCREEN_WIDTH + "+",
        ]

    def _render_device_list(self) -> str:
        lines = self._header(f"Network usage (last {self.window:.0f}s)")
        if not self.devices:
            lines.append("|" + "no activity".center(_SCREEN_WIDTH) + "|")
        else:
            top = max(usage.bytes for usage in self.devices) or 1
            for usage in self.devices:
                name = usage.display_name[:16].ljust(16)
                bar = _bar(usage.bytes / top)
                amount = _human_bytes(usage.bytes).rjust(7)
                row = f" {name}{bar}{amount}"[: _SCREEN_WIDTH].ljust(_SCREEN_WIDTH)
                lines.append("|" + row + "|")
        lines.append("+" + "-" * _SCREEN_WIDTH + "+")
        return "\n".join(lines)

    def _render_device_detail(self, mac: str) -> str:
        usage = next((u for u in self.devices if u.mac == mac), None)
        title = usage.display_name if usage is not None else mac
        lines = self._header(f"{title[:26]} by protocol")
        protocols = self.aggregator.per_protocol(mac, self.window)
        if not protocols:
            lines.append("|" + "no activity".center(_SCREEN_WIDTH) + "|")
        else:
            top = protocols[0][1] or 1
            for protocol, nbytes in protocols:
                name = protocol[:12].ljust(12)
                bar = _bar(nbytes / top)
                amount = _human_bytes(nbytes).rjust(8)
                row = f" {name}{bar}{amount}"[: _SCREEN_WIDTH].ljust(_SCREEN_WIDTH)
                lines.append("|" + row + "|")
        lines.append("|" + "[back]".center(_SCREEN_WIDTH) + "|")
        lines.append("+" + "-" * _SCREEN_WIDTH + "+")
        return "\n".join(lines)
