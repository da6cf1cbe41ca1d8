"""The udev USB monitor.

Paper Figure 5 shows the "udev usb monitor" invoking the control API when
a storage device appears.  This simulation of that subsystem accepts
insert/remove events for :class:`~repro.services.udev.usbkey.UsbKey`
objects, validates the Homework layout, and drives the control API:
permit/deny lists are applied, a carried policy document is installed,
and the key's identity is reported so USB-gated policies unlock.
"""

from __future__ import annotations

import logging
from typing import Dict, List, TYPE_CHECKING

from ...core.errors import ServiceError
from ...core.events import EventBus
from .usbkey import UsbKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..control_api.api import ControlApi

logger = logging.getLogger(__name__)


class UdevMonitor:
    """Watches for (simulated) USB hotplug and invokes the control API."""

    def __init__(self, control_api: "ControlApi", bus: EventBus):
        self.control_api = control_api
        self.bus = bus
        self._inserted: Dict[str, UsbKey] = {}
        # key label -> policy ids installed from that key (removed with it)
        self._installed_policies: Dict[str, List[int]] = {}
        registry = control_api.registry
        self._m_inserts = registry.counter("udev.insert_total")
        self._m_removals = registry.counter("udev.removal_total")
        self._m_rejected = registry.counter("udev.rejected_total")

    @property
    def now(self) -> float:
        return self.control_api.now

    def inserted_keys(self) -> List[str]:
        return sorted(self._inserted)

    def insert(self, key: UsbKey) -> None:
        """Hotplug-add: validate the key and apply its contents."""
        self._m_inserts.inc()
        if not key.is_homework_key:
            self._m_rejected.inc()
            self.bus.emit(
                "udev.key.rejected", timestamp=self.now, label=key.label
            )
            return
        if key.label in self._inserted:
            raise ServiceError(f"key {key.label!r} already inserted")
        # Validate the whole layout up front so a malformed key applies
        # nothing at all (no partial permit/unlock state).
        try:
            key_id = key.key_id
            document = key.policy_document()
            permit_list = key.permit_list()
            deny_list = key.deny_list()
        except ServiceError:
            self._m_rejected.inc()
            self.bus.emit(
                "udev.key.rejected", timestamp=self.now, label=key.label
            )
            return
        self._inserted[key.label] = key
        self.bus.emit(
            "udev.key.inserted", timestamp=self.now, label=key.label, key_id=key_id
        )

        # 1. Unlock USB-gated policies naming this key.
        self.control_api.request("POST", "/usb/insert", {"key_id": key_id})

        # 2. Apply permit/deny lists.
        for mac in permit_list:
            self.control_api.request("POST", f"/devices/{mac}/permit")
        for mac in deny_list:
            self.control_api.request("POST", f"/devices/{mac}/deny")

        # 3. Install a carried policy document.
        if document is not None:
            response = self.control_api.request("POST", "/policies", document)
            if response.status == 201:
                policy_id = int(response.json()["id"])
                self._installed_policies.setdefault(key.label, []).append(policy_id)
            else:
                logger.warning(
                    "policy from key %s rejected: %s", key.label, response.json()
                )

    def remove(self, label: str) -> None:
        """Hotplug-remove: re-arm gated policies, retract carried ones."""
        key = self._inserted.pop(label, None)
        if key is None:
            raise ServiceError(f"no inserted key {label!r}")
        self._m_removals.inc()
        self.bus.emit(
            "udev.key.removed", timestamp=self.now, label=label, key_id=key.key_id
        )
        self.control_api.request("POST", "/usb/remove", {"key_id": key.key_id})
        for policy_id in self._installed_policies.pop(label, []):
            self.control_api.request("DELETE", f"/policies/{policy_id}")
