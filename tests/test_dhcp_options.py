"""DHCP option-55 (parameter request list) handling."""

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.net.dhcp_msg import (
    DHCPMessage,
    OPT_DNS_SERVER,
    OPT_LEASE_TIME,
    OPT_PARAM_REQUEST,
    OPT_ROUTER,
    OPT_SUBNET_MASK,
)


def _join_with_params(params):
    """Run a DHCP handshake where the client requests only ``params``."""
    sim = Simulator(seed=801)
    router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
    router.start()
    host = router.add_device("picky", "02:aa:00:00:00:01")

    replies = []
    original = host._handle_dhcp

    def spy(msg):
        replies.append(msg)
        original(msg)

    host._handle_dhcp = spy
    # Patch the client to attach a parameter request list.
    original_discover = DHCPMessage.discover

    def discover_with_params(chaddr, xid, hostname=""):
        msg = original_discover(chaddr, xid, hostname)
        if params is not None:
            msg.options[OPT_PARAM_REQUEST] = bytes(params)
        return msg

    DHCPMessage.discover = staticmethod(discover_with_params)
    try:
        host.start_dhcp(retry_interval=0)
        sim.run_for(2.0)
    finally:
        DHCPMessage.discover = original_discover
    return host, replies


def test_no_param_list_gets_everything():
    host, replies = _join_with_params(None)
    offer = replies[0]
    for code in (OPT_SUBNET_MASK, OPT_ROUTER, OPT_DNS_SERVER, OPT_LEASE_TIME):
        assert code in offer.options


def test_subset_request_honoured():
    host, replies = _join_with_params([OPT_SUBNET_MASK, OPT_ROUTER])
    offer = replies[0]
    assert OPT_SUBNET_MASK in offer.options
    assert OPT_ROUTER in offer.options
    assert OPT_DNS_SERVER not in offer.options
    # Lease time is mandatory regardless of the request list.
    assert OPT_LEASE_TIME in offer.options


def test_dns_only_request():
    host, replies = _join_with_params([OPT_DNS_SERVER])
    offer = replies[0]
    assert OPT_DNS_SERVER in offer.options
    assert OPT_ROUTER not in offer.options
