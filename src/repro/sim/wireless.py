"""Radio environment: positions, path loss and RSSI.

Paper Figure 2 / Mode 1: "Wireless signal strength from the artifact to
the hub is mapped to the number of lit LEDs, allowing the user to carry
the artifact around to expose areas of high or low signal strength in the
home."  That requires a spatial model: devices have (x, y) positions in
the house, and RSSI follows a log-distance path-loss model with
wall attenuation.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .link import WirelessLink

Position = Tuple[float, float]


class PathLossModel:
    """Log-distance path loss: ``PL(d) = PL0 + 10·n·log10(d/d0)``.

    Defaults approximate 2.4 GHz indoors: PL0 = 40 dB at 1 m, exponent
    n = 3.0, plus a per-wall penalty.
    """

    def __init__(
        self,
        tx_power_dbm: float = 20.0,
        pl0_db: float = 40.0,
        exponent: float = 3.0,
        wall_loss_db: float = 5.0,
        reference_m: float = 1.0,
    ):
        self.tx_power_dbm = tx_power_dbm
        self.pl0_db = pl0_db
        self.exponent = exponent
        self.wall_loss_db = wall_loss_db
        self.reference_m = reference_m

    def rssi(self, distance_m: float, walls: int = 0) -> float:
        """Received signal strength in dBm at ``distance_m`` through ``walls``."""
        d = max(distance_m, self.reference_m)
        path_loss = self.pl0_db + 10.0 * self.exponent * math.log10(d / self.reference_m)
        return self.tx_power_dbm - path_loss - walls * self.wall_loss_db


class Wall:
    """A line segment wall between two points, attenuating signals crossing it."""

    def __init__(self, p1: Position, p2: Position):
        self.p1 = p1
        self.p2 = p2

    def crossed_by(self, a: Position, b: Position) -> bool:
        """True when segment a-b intersects this wall segment."""

        def orient(p: Position, q: Position, r: Position) -> float:
            return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

        o1 = orient(a, b, self.p1)
        o2 = orient(a, b, self.p2)
        o3 = orient(self.p1, self.p2, a)
        o4 = orient(self.p1, self.p2, b)
        return (o1 * o2 < 0) and (o3 * o4 < 0)


class RadioEnvironment:
    """Tracks node positions and keeps wireless links' RSSI up to date.

    The access point (the Homework router's ``wlan0``) sits at a fixed
    position; stations move via :meth:`move`, and each registered
    :class:`WirelessLink` gets its RSSI recomputed from the geometry.
    """

    def __init__(
        self,
        ap_position: Position = (0.0, 0.0),
        model: Optional[PathLossModel] = None,
        walls: Optional[List[Wall]] = None,
    ):
        self.ap_position = ap_position
        self.model = model or PathLossModel()
        self.walls: List[Wall] = list(walls or [])
        self._positions: Dict[str, Position] = {}
        self._links: Dict[str, WirelessLink] = {}

    def add_wall(self, p1: Position, p2: Position) -> None:
        self.walls.append(Wall(p1, p2))

    def register(self, name: str, link: WirelessLink, position: Position) -> None:
        """Bind a station's wireless link to a position in the house."""
        self._positions[name] = position
        self._links[name] = link
        self._update(name)

    def walls_between(self, a: Position, b: Position) -> int:
        return sum(1 for wall in self.walls if wall.crossed_by(a, b))

    def rssi_at(self, position: Position) -> float:
        """RSSI from the AP at an arbitrary position (artifact Mode 1)."""
        dx = position[0] - self.ap_position[0]
        dy = position[1] - self.ap_position[1]
        distance = math.hypot(dx, dy)
        walls = self.walls_between(self.ap_position, position)
        return self.model.rssi(distance, walls)

    def move(self, name: str, position: Position) -> float:
        """Move a station; returns its new RSSI."""
        if name not in self._positions:
            raise KeyError(f"unknown station {name!r}")
        self._positions[name] = position
        return self._update(name)

    def _update(self, name: str) -> float:
        rssi = self.rssi_at(self._positions[name])
        self._links[name].set_rssi(rssi)
        return rssi

    def station_rssi(self, name: str) -> float:
        return self._links[name].rssi_dbm

    def stations(self) -> List[str]:
        return sorted(self._positions)
