"""NOX component model.

NOX structures controller logic as *components* that register handlers
for controller events (packet-in, flow-removed).  The paper's DHCP
server, DNS proxy and control API are all NOX components; they
subclass :class:`Component` here.

Handlers return :data:`CONTINUE` to pass the event to lower-priority
handlers or :data:`STOP` to consume it — NOX's event chain semantics,
which the Homework modules rely on (e.g. the DHCP component consumes
DHCP packet-ins so the switching component never sees them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .controller import Controller

# Handler chain verdicts.
CONTINUE = 0
STOP = 1


class Component:
    """Base class for controller applications.

    Lifecycle: construct with the owning controller, then
    :meth:`install` registers event handlers; :meth:`uninstall` removes
    them.  Subclasses override :meth:`install` and call
    ``self.register_handler(...)``.
    """

    #: Short name used in logs and the component registry.
    name = "component"

    def __init__(self, controller: "Controller"):
        self.controller = controller
        self._registrations = []
        self.installed = False

    def install(self) -> None:
        """Register handlers; called once when the component loads."""

    def uninstall(self) -> None:
        """Remove this component's handlers."""
        for registration in self._registrations:
            registration.cancel()
        self._registrations = []
        self.installed = False

    def register_handler(self, event_name: str, handler, priority: int = 100) -> None:
        """Register ``handler`` for ``event_name`` at ``priority``.

        Lower numbers run first (NOX convention); the paper's service
        components run before the switching component.
        """
        registration = self.controller.register_handler(
            event_name, handler, priority, owner=self.name
        )
        self._registrations.append(registration)

    # Convenience accessors.

    @property
    def sim(self):
        return self.controller.sim

    @property
    def now(self) -> float:
        return self.controller.sim.now

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
