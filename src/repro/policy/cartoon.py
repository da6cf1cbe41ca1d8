"""The cartoon policy language (Figure 4).

"By selecting appropriate options for each panel in the cartoon,
non-expert users can implement simple policies such as 'the kids can only
use Facebook on weekdays after they've finished their homework.'"

The cartoon has four panels; each exposes a small set of options, and the
filled-in strip compiles to a :class:`~repro.policy.model.Policy`:

1. **WHO**   — which devices ("the kids' devices", by MAC/group)
2. **WHAT**  — which services (only these sites / everything except / none)
3. **WHEN**  — weekdays / weekend / every day, with a time window
4. **UNLESS** — physical mediation (lifted by a named USB key, or none)
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from ..core.errors import PolicyError
from ..net.addresses import MACAddress
from .model import DNS_ALL, DNS_BLOCK, DNS_ONLY, NET_ALLOW, NET_DENY, Policy
from .schedule import Schedule, TimeWindow, WEEKDAYS, WEEKEND

# Panel 2 options.
WHAT_ONLY_SITES = "only_these_sites"
WHAT_BLOCK_SITES = "everything_except"
WHAT_NO_NETWORK = "no_network"
WHAT_EVERYTHING = "everything"

# Panel 3 options.
WHEN_ALWAYS = "always"
WHEN_WEEKDAYS = "weekdays"
WHEN_WEEKEND = "weekend"

# Panel 4 options.
UNLESS_NOTHING = "nothing"
UNLESS_USB_KEY = "usb_key"


class DeviceGroup:
    """A named group of devices ("the kids", "guests")."""

    def __init__(self, name: str, members: Iterable[Union[str, MACAddress]] = ()):
        self.name = name
        self.members: List[MACAddress] = [MACAddress(m) for m in members]

    def add(self, mac: Union[str, MACAddress]) -> None:
        mac = MACAddress(mac)
        if mac not in self.members:
            self.members.append(mac)

    def remove(self, mac: Union[str, MACAddress]) -> None:
        mac = MACAddress(mac)
        if mac in self.members:
            self.members.remove(mac)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"DeviceGroup({self.name!r}, {len(self.members)} devices)"


class CartoonStrip:
    """A filled-in cartoon: the four panels plus a title."""

    def __init__(self, title: str = "house rule"):
        self.title = title
        self.who: List[MACAddress] = []
        self.what: str = WHAT_EVERYTHING
        self.sites: List[str] = []
        self.when: str = WHEN_ALWAYS
        self.window: Optional[TimeWindow] = None
        self.unless: str = UNLESS_NOTHING
        self.key_id: str = ""

    # Panel setters return self so strips read like the UI interaction.

    def panel_who(self, *devices: Union[str, MACAddress, DeviceGroup]) -> "CartoonStrip":
        for device in devices:
            if isinstance(device, DeviceGroup):
                self.who.extend(device.members)
            else:
                self.who.append(MACAddress(device))
        return self

    def panel_what(self, option: str, sites: Iterable[str] = ()) -> "CartoonStrip":
        if option not in (WHAT_ONLY_SITES, WHAT_BLOCK_SITES, WHAT_NO_NETWORK, WHAT_EVERYTHING):
            raise PolicyError(f"bad WHAT option {option!r}")
        self.what = option
        self.sites = [s.rstrip(".").lower() for s in sites]
        if option in (WHAT_ONLY_SITES, WHAT_BLOCK_SITES) and not self.sites:
            raise PolicyError(f"WHAT option {option!r} needs sites")
        return self

    def panel_when(
        self, option: str, start: Optional[str] = None, end: Optional[str] = None
    ) -> "CartoonStrip":
        if option not in (WHEN_ALWAYS, WHEN_WEEKDAYS, WHEN_WEEKEND):
            raise PolicyError(f"bad WHEN option {option!r}")
        self.when = option
        if start is not None and end is not None:
            self.window = TimeWindow.parse(start, end)
        return self

    def panel_unless(self, option: str, key_id: str = "") -> "CartoonStrip":
        if option not in (UNLESS_NOTHING, UNLESS_USB_KEY):
            raise PolicyError(f"bad UNLESS option {option!r}")
        if option == UNLESS_USB_KEY and not key_id:
            raise PolicyError("UNLESS usb_key needs a key id")
        self.unless = option
        self.key_id = key_id
        return self

    # ------------------------------------------------------------------

    def compile(self) -> Policy:
        """Produce the Policy this strip means."""
        if not self.who:
            raise PolicyError("the WHO panel is empty")
        if self.what == WHAT_NO_NETWORK:
            network, dns_mode, sites = NET_DENY, DNS_ALL, []
        elif self.what == WHAT_ONLY_SITES:
            network, dns_mode, sites = NET_ALLOW, DNS_ONLY, self.sites
        elif self.what == WHAT_BLOCK_SITES:
            network, dns_mode, sites = NET_ALLOW, DNS_BLOCK, self.sites
        else:
            network, dns_mode, sites = NET_ALLOW, DNS_ALL, []

        windows = [self.window] if self.window is not None else []
        if self.when == WHEN_WEEKDAYS:
            schedule = Schedule(days=WEEKDAYS, windows=windows)
        elif self.when == WHEN_WEEKEND:
            schedule = Schedule(days=WEEKEND, windows=windows)
        else:
            schedule = Schedule(days=None, windows=windows)

        return Policy(
            name=self.title,
            targets=self.who,
            network=network,
            dns_mode=dns_mode,
            sites=sites,
            schedule=schedule,
            usb_gated=(self.unless == UNLESS_USB_KEY),
            unlock_key_id=self.key_id,
        )

    def describe(self) -> str:
        """The strip read back as a sentence (shown in the policy UI)."""
        who = f"{len(self.who)} device(s)"
        what = {
            WHAT_ONLY_SITES: f"may only use {', '.join(self.sites)}",
            WHAT_BLOCK_SITES: f"may use everything except {', '.join(self.sites)}",
            WHAT_NO_NETWORK: "may not use the network",
            WHAT_EVERYTHING: "may use everything",
        }[self.what]
        when = {
            WHEN_ALWAYS: "at any time",
            WHEN_WEEKDAYS: "on weekdays",
            WHEN_WEEKEND: "at the weekend",
        }[self.when]
        if self.window is not None:
            when += f" during {self.window!r}"
        unless = (
            f", unless USB key {self.key_id!r} is inserted"
            if self.unless == UNLESS_USB_KEY
            else ""
        )
        return f"{who} {what} {when}{unless}."

    @classmethod
    def kids_facebook_weekdays(
        cls,
        kids: Iterable[Union[str, MACAddress]],
        key_id: str = "parent-key",
        homework_done_after: str = "17:00",
    ) -> "CartoonStrip":
        """The paper's worked example, ready to compile."""
        strip = cls("kids: Facebook on weekdays after homework")
        strip.panel_who(*kids)
        strip.panel_what(WHAT_ONLY_SITES, ["facebook.com"])
        strip.panel_when(WHEN_WEEKDAYS, homework_done_after, "22:00")
        strip.panel_unless(UNLESS_USB_KEY, key_id)
        return strip
