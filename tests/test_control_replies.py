"""Every frame the control plane builds, pinned byte for byte.

The DHCP server, the DNS proxy and the routing component answer
packet-ins with frames of their own: DHCP OFFER, ACK and NAK; a DNS
answer, NXDOMAIN and REFUSED; the proxy-ARP reply; and the echo reply
from a gateway address.  Each test drives one of them through a running
router, from a joined device, and compares the frame handed to
``Controller.send_packet`` with the one the frozen reference builders of
``tests/test_host_frames.py`` build from the same fields.
"""

import pytest

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.net import (
    DHCPACK,
    DHCPMessage,
    DHCPNAK,
    DHCPOFFER,
    DNSMessage,
    DNSRecord,
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    PROTO_ICMP,
    PROTO_UDP,
    RCODE_NXDOMAIN,
    RCODE_REFUSED,
    TYPE_PTR,
)

from tests.helpers import join_device
from tests.reference_codecs import ARP
from tests.test_host_frames import ref_frame, ref_icmp_echo, ref_ipv4, ref_udp

pytestmark = pytest.mark.tier1

BROADCAST = "255.255.255.255"
#: Ethernet, IPv4 and UDP headers: where a reply's DHCP or DNS message starts.
UDP_BODY = 14 + 20 + 8


def permissive_router():
    sim = Simulator(seed=17)
    router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
    router.start()
    return sim, router


def capture_sends(router, monkeypatch):
    """Every frame the controller sends from now on."""
    sent = []
    send_packet = router.controller.send_packet

    def capture(data, actions, *args, **kwargs):
        sent.append(bytes(data))
        return send_packet(data, actions, *args, **kwargs)

    monkeypatch.setattr(router.controller, "send_packet", capture)
    return sent


@pytest.fixture
def net(monkeypatch):
    """A permissive router, one joined device that knows the router's
    MAC, and every frame the controller sends from then on."""
    sim, router = permissive_router()
    host = join_device(router, "tv", "02:aa:00:00:00:07")
    host._arp_table[int(host.gateway)] = router.config.router_mac.packed
    return sim, router, host, capture_sends(router, monkeypatch)


def dhcp_reply(router, host, message: bytes) -> bytes:
    """A DHCP reply: link-layer unicast to the client, IP broadcast."""
    server = router.config.router_ip
    datagram = ref_udp(server, BROADCAST, 67, 68, message)
    return ref_frame(host.mac, router.config.router_mac, ETH_TYPE_IPV4,
                     ref_ipv4(server, BROADCAST, PROTO_UDP, datagram))


def dhcp_replies(sent):
    """``(message type, frame)`` of each DHCP reply in ``sent``."""
    replies = []
    for frame in sent:
        if frame[12:14] == b"\x08\x00" and frame[34:36] == (67).to_bytes(2, "big"):
            replies.append((DHCPMessage.unpack(frame[UDP_BODY:]).message_type, frame))
    return replies


class TestDhcpReplies:
    def test_offer_and_ack(self, monkeypatch):
        sim, router = permissive_router()
        host = router.add_device("tv", "02:aa:00:00:00:07")
        sim.run_for(0.1)
        sent = capture_sends(router, monkeypatch)
        host.start_dhcp()
        sim.run_for(0.5)
        assert host.ip is not None
        replies = dhcp_replies(sent)
        assert [mtype for mtype, _ in replies] == [DHCPOFFER, DHCPACK]
        for _mtype, frame in replies:
            message = DHCPMessage.unpack(frame[UDP_BODY:])
            assert (message.xid, message.chaddr, message.yiaddr) == (
                host._dhcp_xid, host.mac, host.ip)
            assert frame == dhcp_reply(router, host, frame[UDP_BODY:])

    def test_nak_for_an_address_not_leased(self, net):
        sim, router, host, sent = net
        xid = host._dhcp_xid
        request = DHCPMessage.request(host.mac, xid, requested_ip="10.9.9.9",
                                      server_id=router.config.router_ip)
        host._broadcast_dhcp(request)
        sim.run_for(0.1)
        # The NAK sends the device back to DISCOVER, so an OFFER and an
        # ACK follow it.
        replies = dhcp_replies(sent)
        assert [mtype for mtype, _ in replies] == [DHCPNAK, DHCPOFFER, DHCPACK]
        frame = replies[0][1]
        assert DHCPMessage.unpack(frame[UDP_BODY:]).xid == xid
        assert frame == dhcp_reply(router, host, frame[UDP_BODY:])


def dns_reply(router, host, answer: DNSMessage, sport: int) -> bytes:
    """A DNS answer from the address the device asked, to its port."""
    server = host.dns_server
    datagram = ref_udp(server, host.ip, 53, sport, answer.pack())
    return ref_frame(host.mac, router.config.router_mac, ETH_TYPE_IPV4,
                     ref_ipv4(server, host.ip, PROTO_UDP, datagram))


class TestDnsReplies:
    def ask(self, net, query, sport=5353):
        sim, _router, host, sent = net
        host.udp_send(host.dns_server, 53, query.pack(), sport=sport)
        sim.run_for(1.0)
        return sent

    def test_a_answer(self, net):
        _sim, router, host, _sent = net
        query = DNSMessage.query("youtube.com", ident=0x1234)
        sent = self.ask(net, query)
        address = router.cloud.lookup("youtube.com")
        answer = query.respond([DNSRecord.a("youtube.com", address)])
        assert sent == [dns_reply(router, host, answer, 5353)]

    def test_nxdomain_for_a_filtered_name(self, net):
        _sim, router, host, _sent = net
        router.dns_proxy.filter.block_site(host.mac, "youtube.com")
        query = DNSMessage.query("youtube.com", ident=77)
        sent = self.ask(net, query, sport=40001)
        answer = query.respond(rcode=RCODE_NXDOMAIN)
        assert sent == [dns_reply(router, host, answer, 40001)]

    def test_refused_for_a_query_that_is_not_for_an_address(self, net):
        _sim, router, host, _sent = net
        query = DNSMessage.query("youtube.com", qtype=TYPE_PTR, ident=9)
        sent = self.ask(net, query)
        answer = query.respond(rcode=RCODE_REFUSED)
        assert sent == [dns_reply(router, host, answer, 5353)]


class TestRoutingReplies:
    def test_proxy_arp_reply(self, net):
        sim, router, host, sent = net
        target = "10.2.0.99"
        request = ARP.request(host.mac, host.ip, target).pack()
        host.send_frame(ref_frame("ff:ff:ff:ff:ff:ff", host.mac, ETH_TYPE_ARP, request))
        sim.run_for(0.1)
        router_mac = router.config.router_mac
        reply = ARP.reply(router_mac, target, host.mac, host.ip).pack()
        assert sent == [ref_frame(host.mac, router_mac, ETH_TYPE_ARP, reply)]

    def test_echo_reply_from_the_gateway(self, net):
        sim, router, host, sent = net
        answered = []
        host.ping(host.gateway, lambda ok, rtt: answered.append(ok))
        sim.run_for(0.1)
        assert answered == [True]
        echo = ref_icmp_echo(0, host._ping_ident, host._ping_seq, b"homework")
        reply = ref_ipv4(host.gateway, host.ip, PROTO_ICMP, echo)
        assert sent == [ref_frame(host.mac, router.config.router_mac, ETH_TYPE_IPV4, reply)]
