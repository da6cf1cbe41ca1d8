"""Exception hierarchy for the Homework router reproduction."""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError):
    """Invalid router or component configuration."""


class SimulationError(ReproError):
    """Raised by the discrete-event simulator on misuse."""


class DatapathError(ReproError):
    """Raised by the OpenFlow datapath (bad ports, malformed mods...)."""


class ControllerError(ReproError):
    """Raised by the NOX controller core."""


class HwdbError(ReproError):
    """Raised by the Homework database."""


class QueryError(HwdbError):
    """Raised on malformed or unexecutable CQL queries."""


class RpcError(HwdbError):
    """Raised by the hwdb UDP RPC layer."""


class ServiceError(ReproError):
    """Raised by router services (DHCP, DNS proxy, control API)."""


class StoreError(ReproError):
    """Raised by the durable storage tier (WAL, segments, recovery)."""


class PolicyError(ReproError):
    """Raised by the policy model/compiler."""
