"""Fixture: well-formed metric names."""


def register(registry):
    registry.counter("dhcp.leases_total")
    registry.gauge("hosts.active")
    registry.histogram("hwdb.insert_seconds")
