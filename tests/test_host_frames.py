"""Differential tests: host frames built and read as bytes.

Hosts build every IPv4 frame from ``struct``-packed headers (the
builders beside each codec: ``ethernet_frame``, ``ipv4_packet``,
``tcp_segment``, ``udp_datagram``, ``icmp_echo``) and read every
received frame at fixed offsets (:func:`repro.net.rewrite.read_frame`).

* **Send side.**  The reference codecs' ``pack`` methods
  (``tests/reference_codecs.py``) call the same builders, so comparing
  against them would prove nothing.  The reference is a frozen copy of
  the codecs' pack code as it stood before the builders, :func:`ref_frame`
  and its helpers below.
* **Receive side.**  The reference is ``Ethernet.unpack(raw).find(...)``,
  from the reference codecs: on codec-built frames, and on frames cut at
  every offset, with every version and IHL nibble, a total length short
  of the frame or past it, a bad TCP data offset, a bad UDP length and
  Ethernet padding.  A host fed any of them never raises.
* **Wire-form state.**  A host keeps its addresses as ints and its ARP
  cache as int -> 6-byte MAC.  Its next hop is the one the mask's bit
  count chose before, for every prefix mask, and a steady transfer
  through the router builds no address object on the frame path.
"""

import sys
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import HomeworkRouter, RouterConfig
from repro.net import (
    DHCPMessage,
    DNSMessage,
    DNSRecord,
    ETH_TYPE_ARP,
    ETH_TYPE_IPV4,
    IPv4Address,
    MACAddress,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
    PacketError,
    internet_checksum,
)
from repro.net.ethernet import ethernet_frame
from repro.net.icmp import TYPE_ECHO_REPLY, TYPE_ECHO_REQUEST, icmp_echo
from repro.net.ipv4 import ipv4_packet
from repro.net.rewrite import read_frame
from repro.net.tcp import ACK, FIN, RST, SYN, tcp_segment
from repro.net.udp import MAX_PAYLOAD, udp_datagram
from repro.sim.host import Host, TCPConnection
from repro.sim.simulator import Simulator
from repro.sim.upstream import InternetCloud

from tests.helpers import join_device
from tests.reference_codecs import ARP, Ethernet, ICMP, IPv4, TCP, UDP

pytestmark = pytest.mark.tier1

# ----------------------------------------------------------------------
# The frozen reference: the codecs' pack code before the builders
# ----------------------------------------------------------------------


def ref_pseudo_header(src, dst, proto, length):
    addresses = IPv4Address(src).packed + IPv4Address(dst).packed
    return addresses + bytes([0, proto]) + length.to_bytes(2, "big")


def ref_tcp(src, dst, sport, dport, seq, ack, flags, payload=b"", window=65535, urgent=0):
    """``TCP(...).pack_with_pseudo(src, dst)``: the constructor masked
    seq and ack, and the checksum went in after a zero-checksum pack."""
    seq &= 0xFFFFFFFF
    ack &= 0xFFFFFFFF
    offset_flags = (5 << 12) | (flags & 0x3F)
    raw = bytearray(
        sport.to_bytes(2, "big")
        + dport.to_bytes(2, "big")
        + seq.to_bytes(4, "big")
        + ack.to_bytes(4, "big")
        + offset_flags.to_bytes(2, "big")
        + window.to_bytes(2, "big")
        + b"\x00\x00"
        + urgent.to_bytes(2, "big")
        + payload
    )
    pseudo = ref_pseudo_header(src, dst, PROTO_TCP, len(raw))
    raw[16:18] = internet_checksum(pseudo + bytes(raw)).to_bytes(2, "big")
    return bytes(raw)


def ref_udp(src, dst, sport, dport, payload):
    """``UDP(...).pack_with_pseudo(src, dst)``."""
    raw = bytearray(
        sport.to_bytes(2, "big")
        + dport.to_bytes(2, "big")
        + (8 + len(payload)).to_bytes(2, "big")
        + b"\x00\x00"
        + payload
    )
    csum = internet_checksum(ref_pseudo_header(src, dst, PROTO_UDP, len(raw)) + bytes(raw))
    if csum == 0:  # RFC 768: transmitted as all ones
        csum = 0xFFFF
    raw[6:8] = csum.to_bytes(2, "big")
    return bytes(raw)


def ref_icmp_echo(icmp_type, ident, seq, data):
    """``ICMP.echo_request``/``echo_reply`` packed."""
    rest = ((ident & 0xFFFF) << 16) | (seq & 0xFFFF)
    msg = bytearray(bytes([icmp_type, 0]) + b"\x00\x00" + rest.to_bytes(4, "big") + data)
    msg[2:4] = internet_checksum(bytes(msg)).to_bytes(2, "big")
    return bytes(msg)


def ref_ipv4(src, dst, proto, body, ttl=64, tos=0, ident=0, flags=0, frag_offset=0):
    """``IPv4.pack`` on an already packed transport segment."""
    flags_frag = ((flags & 0x7) << 13) | (frag_offset & 0x1FFF)
    header = bytearray(
        bytes([0x45, tos])
        + (20 + len(body)).to_bytes(2, "big")
        + ident.to_bytes(2, "big")
        + flags_frag.to_bytes(2, "big")
        + bytes([ttl, proto])
        + b"\x00\x00"
        + IPv4Address(src).packed
        + IPv4Address(dst).packed
    )
    header[10:12] = internet_checksum(bytes(header)).to_bytes(2, "big")
    return bytes(header) + body


def ref_frame(dst_mac, src_mac, ethertype, payload):
    """``Ethernet.pack``."""
    macs = MACAddress(dst_mac).packed + MACAddress(src_mac).packed
    return macs + ethertype.to_bytes(2, "big") + payload


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

ports = st.integers(min_value=0, max_value=0xFFFF)
addrs = st.integers(min_value=0, max_value=(1 << 32) - 1)
macs = st.integers(min_value=0, max_value=(1 << 48) - 1)
#: Sequence numbers around the 2**32 wrap, plus the rest of the range;
#: a connection's counters are not masked, so they can pass the wrap.
seqs = st.one_of(
    st.integers(min_value=(1 << 32) - 3000, max_value=(1 << 32) + 3000),
    st.integers(min_value=0, max_value=(1 << 33)),
)
#: Lengths up to a full segment, odd ones included.
segment_payloads = st.integers(min_value=0, max_value=1460).map(
    lambda n: (bytes(range(256)) * 6)[:n]
)


@st.composite
def dns_payloads(draw):
    name = draw(st.sampled_from(["example.com", "www.youtube.com", "a.b.c.home"]))
    query = DNSMessage.query(name, ident=draw(ports))
    if draw(st.booleans()):
        return query.pack()
    return query.respond(rcode=3).pack()


@st.composite
def dhcp_payloads(draw):
    xid = draw(st.integers(min_value=1, max_value=(1 << 32) - 1))
    return DHCPMessage.discover(MACAddress(draw(macs)), xid, hostname="tv").pack()


udp_payloads = st.one_of(st.binary(max_size=64), dns_payloads(), dhcp_payloads())
even_binary = st.binary(max_size=16).map(lambda b: b + b"\0" * (len(b) % 2))


# ----------------------------------------------------------------------
# Send side
# ----------------------------------------------------------------------


class TestBuildersMatchFrozenCodecs:
    @settings(max_examples=300, deadline=None)
    @given(addrs, addrs, ports, ports, seqs, seqs, st.integers(0, 0xFF), segment_payloads)
    def test_tcp(self, src, dst, sport, dport, seq, ack, flags, payload):
        assert tcp_segment(src, dst, sport, dport, seq, ack, flags, payload) == ref_tcp(
            src, dst, sport, dport, seq, ack, flags, payload
        )

    def test_tcp_every_flag_subset(self):
        for flags in range(0x40):
            args = (0x0A020006, 0x1F0D4824, 49152, 443, 7, 9, flags, b"x")
            assert tcp_segment(*args) == ref_tcp(*args)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([TYPE_ECHO_REQUEST, TYPE_ECHO_REPLY]), st.integers(0, 1 << 17),
           st.integers(0, 1 << 17), st.binary(max_size=64))
    def test_icmp_echo(self, icmp_type, ident, seq, data):
        assert icmp_echo(icmp_type, ident, seq, data) == ref_icmp_echo(icmp_type, ident, seq, data)

    @settings(max_examples=200, deadline=None)
    @given(addrs, addrs, ports, ports, udp_payloads)
    def test_udp(self, src, dst, sport, dport, payload):
        sent = udp_datagram(src, dst, sport, dport, payload)
        assert sent == ref_udp(src, dst, sport, dport, payload)

    @settings(max_examples=100, deadline=None)
    @given(addrs, addrs, ports, ports, even_binary)
    def test_udp_checksum_that_folds_to_zero_is_sent_as_ffff(
        self, src, dst, sport, dport, head
    ):
        # Ending the payload with the checksum of the datagram as it reads
        # with that last word zero brings the sum to 0xFFFF: checksum 0.
        length = 8 + len(head) + 2
        zeroed = (sport.to_bytes(2, "big") + dport.to_bytes(2, "big")
                  + length.to_bytes(2, "big") + b"\0\0" + head + b"\0\0")
        word = internet_checksum(ref_pseudo_header(src, dst, PROTO_UDP, length) + zeroed)
        payload = head + word.to_bytes(2, "big")
        sent = udp_datagram(src, dst, sport, dport, payload)
        assert sent == ref_udp(src, dst, sport, dport, payload)
        assert sent[6:8] == b"\xff\xff"

    @settings(max_examples=100, deadline=None)
    @given(addrs, addrs, st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP]),
           st.binary(max_size=64), ports)
    def test_ipv4(self, src, dst, proto, body, ident):
        assert ipv4_packet(src, dst, proto, body, ident=ident) == ref_ipv4(
            src, dst, proto, body, ident=ident
        )

    @given(macs, macs, st.sampled_from([ETH_TYPE_IPV4, ETH_TYPE_ARP]), st.binary(max_size=64))
    def test_ethernet(self, dst, src, ethertype, payload):
        frame = ethernet_frame(MACAddress(dst).packed, MACAddress(src).packed, ethertype, payload)
        assert frame == ref_frame(dst, src, ethertype, payload)

    def test_udp_refuses_a_payload_larger_than_one_packet(self):
        assert len(udp_datagram(1, 2, 3, 4, b"x" * MAX_PAYLOAD)) == 8 + 65_507
        with pytest.raises(PacketError, match="too large"):
            udp_datagram(1, 2, 3, 4, b"x" * (MAX_PAYLOAD + 1))
        with pytest.raises(PacketError, match="too large"):
            UDP(3, 4, b"x" * (MAX_PAYLOAD + 1)).pack()

    def test_ipv4_refuses_a_packet_past_its_length_field(self):
        with pytest.raises(PacketError, match="too long"):
            ipv4_packet(1, 2, PROTO_TCP, b"x" * (0xFFFF - 19))

    def test_ipv4_codec_packs_its_payload_once(self, monkeypatch):
        calls = []
        pack = TCP.pack
        monkeypatch.setattr(TCP, "pack", lambda self: calls.append(1) or pack(self))
        IPv4("10.0.0.1", "10.0.0.2", PROTO_TCP, payload=TCP(1, 2, payload=b"data")).pack()
        assert calls == []  # pack_with_pseudo builds the segment itself


# The sending host: a /30 lease with the router as gateway, its MAC
# already resolved; every frame it sends is captured.
HOST_MAC = "02:aa:00:00:00:05"
HOST_IP = "10.2.0.6"
GATEWAY_IP = "10.2.0.5"
ROUTER_MAC = "02:00:00:00:00:01"
REMOTE_IP = "93.184.216.34"
#: The router's address on the cloud's upstream /30.
CLOUD_GATEWAY = "82.10.0.2"


def sending_host(resolved=True):
    host = Host(Simulator(seed=3), "laptop", HOST_MAC)
    host.configure_static(HOST_IP, "255.255.255.252", gateway=GATEWAY_IP)
    if resolved:
        host._arp_table[int(IPv4Address(GATEWAY_IP))] = MACAddress(ROUTER_MAC).packed
    sent = []
    host.port = SimpleNamespace(send=sent.append)
    return host, sent


def ref_routed(proto, segment, src=HOST_IP, dst=REMOTE_IP):
    return ref_frame(ROUTER_MAC, HOST_MAC, ETH_TYPE_IPV4, ref_ipv4(src, dst, proto, segment))


class TestHostFramesMatchFrozenCodecs:
    @settings(max_examples=100, deadline=None)
    @given(ports, ports, seqs, seqs, st.sampled_from([SYN, ACK, SYN | ACK, FIN | ACK, ACK | 0x08]),
           segment_payloads)
    def test_tcp_segment(self, lport, rport, seq, ack, flags, data):
        host, sent = sending_host()
        conn = TCPConnection(host, lport, int(IPv4Address(REMOTE_IP)), rport)
        conn.seq, conn.ack = seq, ack
        conn._send_segment(flags, data)
        segment = ref_tcp(HOST_IP, REMOTE_IP, lport, rport, seq, ack, flags, data)
        assert sent == [ref_routed(PROTO_TCP, segment)]

    def test_ping_and_echo_reply(self):
        host, sent = sending_host()
        for _ in range(3):
            host.ping(REMOTE_IP, lambda ok, rtt: None)
        expected = [
            ref_routed(PROTO_ICMP, ref_icmp_echo(8, host._ping_ident, seq, b"homework"))
            for seq in (1, 2, 3)
        ]
        assert sent == expected
        sent.clear()
        request = Ethernet(HOST_MAC, ROUTER_MAC, ETH_TYPE_IPV4, IPv4(
            REMOTE_IP, HOST_IP, PROTO_ICMP, payload=ICMP.echo_request(0xBEEF, 0x1234, b"probe")))
        host._on_frame(request.pack(), None)
        assert sent == [ref_routed(PROTO_ICMP, ref_icmp_echo(0, 0xBEEF, 0x1234, b"probe"))]

    @settings(max_examples=100, deadline=None)
    @given(ports, udp_payloads)
    def test_udp_send(self, dport, data):
        host, sent = sending_host()
        sport = host.udp_send(REMOTE_IP, dport, data)
        assert sent == [ref_routed(PROTO_UDP, ref_udp(HOST_IP, REMOTE_IP, sport, dport, data))]

    def test_dhcp_broadcast_from_no_address(self):
        host = Host(Simulator(seed=3), "tv", HOST_MAC)
        sent = []
        host.port = SimpleNamespace(send=sent.append)
        host.start_dhcp(retry_interval=0)
        discover = DHCPMessage.discover(host.mac, host._dhcp_xid, hostname="tv").pack()
        datagram = ref_udp("0.0.0.0", "255.255.255.255", 68, 67, discover)
        assert sent == [ref_frame("ff:ff:ff:ff:ff:ff", HOST_MAC, ETH_TYPE_IPV4,
                                  ref_ipv4("0.0.0.0", "255.255.255.255", PROTO_UDP, datagram))]

    def test_rst_for_a_port_nobody_listens_on(self):
        host, sent = sending_host()
        syn = Ethernet(HOST_MAC, ROUTER_MAC, ETH_TYPE_IPV4, IPv4(
            REMOTE_IP, HOST_IP, PROTO_TCP,
            payload=TCP(443, 8080, seq=0xFFFFFFFF, ack=77, flags=SYN)))
        host._on_frame(syn.pack(), None)
        rst = ref_tcp(HOST_IP, REMOTE_IP, 8080, 443, 77, 0x100000000, RST | ACK)
        assert sent == [ref_routed(PROTO_TCP, rst)]

    def test_arp_learns_every_sender_and_answers_only_its_own_address(self):
        host, sent = sending_host(resolved=False)
        asker_mac, asker_ip = "02:aa:00:00:00:09", "10.2.0.5"
        for target in ("10.2.0.7", HOST_IP):
            request = Ethernet("ff:ff:ff:ff:ff:ff", asker_mac, ETH_TYPE_ARP,
                               ARP.request(asker_mac, asker_ip, target))
            host._on_frame(request.pack(), None)
        reply = ARP.reply(HOST_MAC, HOST_IP, asker_mac, asker_ip).pack()
        assert sent == [ref_frame(asker_mac, HOST_MAC, ETH_TYPE_ARP, reply)]
        assert host._arp_table == {int(IPv4Address(asker_ip)): MACAddress(asker_mac).packed}
        # A reply sent to another MAC stops at the dl_dst filter.
        elsewhere = Ethernet("02:aa:00:00:00:99", ROUTER_MAC, ETH_TYPE_ARP,
                             ARP.reply(ROUTER_MAC, "10.2.0.1", "02:aa:00:00:00:99", "10.2.0.9"))
        host._on_frame(elsewhere.pack(), None)
        assert int(IPv4Address("10.2.0.1")) not in host._arp_table

    def test_unaddressed_host_asks_from_zero(self):
        host = Host(Simulator(seed=3), "tv", HOST_MAC)
        sent = []
        host.port = SimpleNamespace(send=sent.append)
        host._resolve_and_send(int(IPv4Address(GATEWAY_IP)), b"queued")
        request = ARP.request(HOST_MAC, "0.0.0.0", GATEWAY_IP).pack()
        assert sent == [ref_frame("ff:ff:ff:ff:ff:ff", HOST_MAC, ETH_TYPE_ARP, request)]

    def test_packets_queued_behind_arp_go_out_once_resolved(self):
        host, sent = sending_host(resolved=False)
        sport = host.udp_send(REMOTE_IP, 53, b"first")
        host.udp_send(REMOTE_IP, 53, b"second", sport=sport)
        request = ARP.request(HOST_MAC, HOST_IP, GATEWAY_IP).pack()
        assert sent == [ref_frame("ff:ff:ff:ff:ff:ff", HOST_MAC, ETH_TYPE_ARP, request)]
        reply = Ethernet(HOST_MAC, ROUTER_MAC, ETH_TYPE_ARP,
                         ARP.reply(ROUTER_MAC, GATEWAY_IP, HOST_MAC, HOST_IP))
        host._on_frame(reply.pack(), None)
        assert sent[1:] == [
            ref_routed(PROTO_UDP, ref_udp(HOST_IP, REMOTE_IP, sport, 53, data))
            for data in (b"first", b"second")
        ]


class TestCloudAnswersAsTheAddressDialled:
    """The cloud takes any destination and answers from it, ARP included;
    a DNS answer's ARP request carries the cloud's own address."""

    def cloud(self):
        cloud = InternetCloud(Simulator(seed=3))
        cloud.configure_static(cloud.ip, "255.255.255.252", gateway=CLOUD_GATEWAY)
        sent = []
        cloud.port = SimpleNamespace(send=sent.append)
        return cloud, sent

    def deliver(self, cloud, segment, proto):
        frame = Ethernet(cloud.mac, ROUTER_MAC, ETH_TYPE_IPV4,
                         IPv4(HOST_IP, REMOTE_IP, proto, payload=segment))
        cloud._on_frame(frame.pack(), None)

    def test_syn_ack_and_its_arp_request(self):
        cloud, sent = self.cloud()
        self.deliver(cloud, TCP(49152, 443, seq=10, flags=SYN), PROTO_TCP)
        request = ARP.request(cloud.mac, REMOTE_IP, CLOUD_GATEWAY).pack()
        assert sent == [ref_frame("ff:ff:ff:ff:ff:ff", cloud.mac, ETH_TYPE_ARP, request)]
        cloud._arp_table[int(IPv4Address(CLOUD_GATEWAY))] = MACAddress(ROUTER_MAC).packed
        (conn,) = cloud._tcp_conns.values()
        assert conn.local_ip == int(IPv4Address(REMOTE_IP)) and cloud.ip == IPv4Address("82.10.0.1")
        assert cloud._arp_pending[int(IPv4Address(CLOUD_GATEWAY))] == [
            ref_ipv4(REMOTE_IP, HOST_IP, PROTO_TCP,
                     ref_tcp(REMOTE_IP, HOST_IP, 443, 49152, conn.seq - 1, 11, SYN | ACK))
        ]

    def test_echo_reply_from_the_address_pinged(self):
        cloud, sent = self.cloud()
        cloud._arp_table[int(IPv4Address(CLOUD_GATEWAY))] = MACAddress(ROUTER_MAC).packed
        self.deliver(cloud, ICMP.echo_request(5, 6, b"homework"), PROTO_ICMP)
        reply = ref_ipv4(REMOTE_IP, HOST_IP, PROTO_ICMP, ref_icmp_echo(0, 5, 6, b"homework"))
        assert sent == [ref_frame(ROUTER_MAC, cloud.mac, ETH_TYPE_IPV4, reply)]

    def test_dns_answer_and_its_arp_request(self):
        cloud, sent = self.cloud()
        query = DNSMessage.query("youtube.com", ident=99)
        self.deliver(cloud, UDP(5353, 53, query), PROTO_UDP)
        request = ARP.request(cloud.mac, "82.10.0.1", CLOUD_GATEWAY).pack()
        assert sent == [ref_frame("ff:ff:ff:ff:ff:ff", cloud.mac, ETH_TYPE_ARP, request)]
        answer = query.respond([DNSRecord.a("youtube.com", cloud.lookup("youtube.com"))]).pack()
        (queued,) = cloud._arp_pending[int(IPv4Address(CLOUD_GATEWAY))]
        assert queued == ref_ipv4(REMOTE_IP, HOST_IP, PROTO_UDP,
                                  ref_udp(REMOTE_IP, HOST_IP, 53, 5353, answer))


# ----------------------------------------------------------------------
# Wire-form state: the next hop, and no address objects per packet
# ----------------------------------------------------------------------


def ref_next_hop(ip, netmask, dst, gateway):
    """The next hop as the host chose it before: ``dst`` when its top
    ``prefix`` bits, the mask's bit count, are the host's, else the
    gateway."""
    prefix = bin(int(IPv4Address(netmask))).count("1")
    if not (int(IPv4Address(dst)) ^ int(IPv4Address(ip))) >> (32 - prefix):
        return IPv4Address(dst)
    return IPv4Address(gateway)


def next_hop_asked(ip, netmask, dst, gateway=GATEWAY_IP):
    """The address a host configured with ``ip``/``netmask`` ARPs for
    when it first sends to ``dst``."""
    host = Host(Simulator(seed=3), "laptop", HOST_MAC)
    host.configure_static(ip, netmask, gateway=gateway)
    sent = []
    host.port = SimpleNamespace(send=sent.append)
    host.udp_send(dst, 9, b"x")
    (request,) = sent
    return Ethernet.unpack(request).find(ARP).target_ip


def prefix_mask(prefix):
    return IPv4Address((0xFFFFFFFF << (32 - prefix)) & 0xFFFFFFFF)


class TestNextHop:
    @pytest.mark.parametrize("netmask", ["255.255.255.252", "255.255.255.0", "255.255.0.0",
                                         "0.0.0.0"])
    @pytest.mark.parametrize("dst", ["10.2.0.5", "10.2.0.7", "10.2.0.8", "10.2.0.200",
                                     "10.2.77.1", "10.3.0.6", REMOTE_IP])
    def test_the_masks_hosts_are_given(self, netmask, dst):
        asked = next_hop_asked(HOST_IP, netmask, dst)
        assert asked == ref_next_hop(HOST_IP, netmask, dst, GATEWAY_IP)

    def test_on_link_and_off_link_examples(self):
        assert next_hop_asked(HOST_IP, "255.255.255.252", "10.2.0.7") == IPv4Address("10.2.0.7")
        assert next_hop_asked(HOST_IP, "255.255.255.252", "10.2.0.9") == IPv4Address(GATEWAY_IP)
        assert next_hop_asked(HOST_IP, "0.0.0.0", REMOTE_IP) == IPv4Address(REMOTE_IP)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 32), addrs, addrs)
    def test_every_prefix_mask(self, prefix, ip, dst):
        netmask = prefix_mask(prefix)
        asked = next_hop_asked(IPv4Address(ip), netmask, IPv4Address(dst))
        assert asked == ref_next_hop(ip, netmask, dst, GATEWAY_IP)

    def test_off_link_without_a_gateway_raises(self):
        host = Host(Simulator(seed=3), "laptop", HOST_MAC)
        host.configure_static(HOST_IP, "255.255.255.252")
        host.port = SimpleNamespace(send=lambda raw: None)
        with pytest.raises(ConnectionError):
            host.udp_send(REMOTE_IP, 9, b"x")
        host.udp_send("10.2.0.5", 9, b"on-link needs no gateway")


#: The modules every frame crosses: hosts and links, the wire formats,
#: and the datapath's forwarding.
FRAME_PATH_MODULES = ("repro.sim", "repro.net", "repro.openflow.datapath")


def count_address_objects(monkeypatch):
    """From now on, count each ``IPv4Address`` and ``MACAddress`` built,
    by class and by the module that called the constructor."""
    built = Counter()
    for cls in (IPv4Address, MACAddress):
        def counting(self, value, _init=cls.__init__, _cls=cls.__name__):
            built[_cls, sys._getframe(1).f_globals.get("__name__", "")] += 1
            _init(self, value)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def on_frame_path(module):
    return any(module == m or module.startswith(m + ".") for m in FRAME_PATH_MODULES)


class TestNoAddressObjectsPerPacket:
    def test_steady_tcp_transfer(self, monkeypatch):
        sim = Simulator(seed=5)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        host = join_device(router, "laptop", "02:aa:00:00:00:05")
        conn = host.tcp_connect(router.cloud.lookup("www.youtube.com"), 80)
        sim.run_for(0.5)
        assert conn.state == "ESTABLISHED"
        conn.send(b"GET 4000000\r\n")
        sim.run_for(0.05)  # the first segments set the flows up
        received = conn.bytes_received
        built = count_address_objects(monkeypatch)
        sim.run_for(0.2)
        # Hundreds of segments one way and their ACKs the other.
        assert conn.bytes_received - received > 200 * 1400
        assert {key: n for key, n in built.items() if on_frame_path(key[1])} == {}


# ----------------------------------------------------------------------
# Receive side
# ----------------------------------------------------------------------


def assert_reads_like_the_codecs(raw):
    """``read_frame(raw)`` against ``Ethernet.unpack(raw).find(...)``."""
    fields = read_frame(raw)
    try:
        frame = Ethernet.unpack(raw)
    except PacketError:
        assert fields is None
        return
    dl_dst, dl_type, nw_src, nw_dst, nw_proto, transport, payload = fields
    assert (dl_dst, dl_type) == (int(frame.dst), frame.ethertype)
    ip = frame.find(IPv4)
    if ip is None:
        assert (nw_src, nw_dst, nw_proto, transport) == (None, None, None, None)
        assert payload == raw[14:]
        if dl_type == ETH_TYPE_ARP:
            arp = frame.find(ARP)
            try:
                assert ARP.unpack(payload) == arp
            except PacketError:
                assert arp is None
        return
    assert (nw_src, nw_dst, nw_proto) == (int(ip.src), int(ip.dst), ip.proto)
    layer = ip.payload
    if isinstance(layer, TCP):
        assert transport == (layer.sport, layer.dport, layer.seq, layer.ack, layer.flags)
    elif isinstance(layer, UDP):
        assert transport == (layer.sport, layer.dport)
        layer_payload = layer.payload
        if isinstance(layer_payload, Packet):
            # A DNS or DHCP message the codec parsed: the host parses the
            # same message out of the bytes it is handed.
            assert type(layer_payload).unpack(payload) == layer_payload
            return
    elif isinstance(layer, ICMP):
        assert transport == (layer.icmp_type, layer.code, layer.ident, layer.seq)
    else:
        assert transport is None
        assert payload == layer
        return
    assert payload == layer.payload


def _ipv4_frame(draw, proto, segment):
    packet = IPv4(IPv4Address(draw(addrs)), IPv4Address(draw(addrs)), proto=proto,
                  ident=draw(ports), payload=segment)
    return Ethernet(MACAddress(draw(macs)), MACAddress(draw(macs)), ETH_TYPE_IPV4, packet).pack()


@st.composite
def tcp_frames(draw):
    segment = TCP(draw(ports), draw(ports), seq=draw(seqs), ack=draw(seqs),
                  flags=draw(st.integers(0, 0x3F)), payload=draw(st.binary(max_size=48)))
    return _ipv4_frame(draw, PROTO_TCP, segment)


@st.composite
def udp_frames(draw):
    kind = draw(st.sampled_from(["raw", "dns", "dhcp"]))
    if kind == "dns":
        sport, dport = draw(st.sampled_from([(5353, 53), (53, 5353)]))
        segment = UDP(sport, dport, draw(dns_payloads()))
    elif kind == "dhcp":
        sport, dport = draw(st.sampled_from([(68, 67), (67, 68)]))
        segment = UDP(sport, dport, draw(dhcp_payloads()))
    else:
        segment = UDP(draw(ports), draw(ports), draw(st.binary(max_size=48)))
    return _ipv4_frame(draw, PROTO_UDP, segment)


@st.composite
def icmp_frames(draw):
    echo = draw(st.sampled_from([ICMP.echo_request, ICMP.echo_reply]))
    message = echo(draw(ports), draw(ports), draw(st.binary(max_size=32)))
    return _ipv4_frame(draw, PROTO_ICMP, message)


@st.composite
def other_frames(draw):
    if draw(st.booleans()):
        sender, target = IPv4Address(draw(addrs)), IPv4Address(draw(addrs))
        arp = ARP.request(MACAddress(draw(macs)), sender, target)
        return Ethernet(MACAddress(draw(macs)), MACAddress(draw(macs)), ETH_TYPE_ARP, arp).pack()
    return _ipv4_frame(draw, draw(st.sampled_from([2, 47, 89])), draw(st.binary(max_size=32)))


ip_frames = st.one_of(tcp_frames(), udp_frames(), icmp_frames())
frames = st.one_of(tcp_frames(), udp_frames(), icmp_frames(), other_frames())


def _patched(raw, at, value):
    buf = bytearray(raw)
    buf[at : at + len(value)] = value
    return bytes(buf)


def bare_host():
    host = Host(Simulator(seed=3), "probe", "02:aa:00:00:00:09")
    host.port = SimpleNamespace(send=lambda raw: None)
    return host


def _addressed(raw, host):
    """``raw`` sent to ``host``'s MAC and, for IPv4, to its address."""
    raw = _patched(raw, 0, host.mac.packed)
    if len(raw) >= 34 and raw[12:14] == b"\x08\x00":
        raw = _patched(raw, 30, host.ip.packed)
    return raw


def assert_host_takes(raw):
    """A configured host (with the frame sent to its MAC and address), a
    bare one and the cloud all take ``raw`` without raising."""
    configured = bare_host()
    configured.configure_static("10.2.0.6", "255.255.255.252", gateway="10.2.0.5")
    configured._arp_table[int(IPv4Address("10.2.0.5"))] = MACAddress(ROUTER_MAC).packed
    configured.tcp_listen(80, lambda conn: None)
    configured.udp_bind(53, lambda data, src, sport: None)
    configured._on_frame(_addressed(raw, configured), None)
    bare_host()._on_frame(raw, None)
    cloud = InternetCloud(Simulator(seed=3))
    cloud.port = SimpleNamespace(send=lambda raw: None)
    cloud._on_frame(_patched(raw, 0, cloud.mac.packed), None)


class TestReaderMatchesCodecs:
    @settings(max_examples=300, deadline=None)
    @given(frames)
    def test_codec_built_frames(self, raw):
        assert_reads_like_the_codecs(raw)
        assert_host_takes(raw)

    @settings(max_examples=40, deadline=None)
    @given(frames)
    def test_truncated_at_every_offset(self, raw):
        for cut in range(len(raw) + 1):
            assert_reads_like_the_codecs(raw[:cut])
            assert_host_takes(raw[:cut])

    @settings(max_examples=20, deadline=None)
    @given(ip_frames)
    def test_every_version_and_ihl_nibble(self, raw):
        for ver_ihl in range(256):
            broken = _patched(raw, 14, bytes([ver_ihl]))
            assert_reads_like_the_codecs(broken)
            assert_host_takes(broken)

    @settings(max_examples=30, deadline=None)
    @given(ip_frames)
    def test_total_length_short_of_the_frame_or_past_it(self, raw):
        for total_len in range(len(raw) + 20):
            broken = _patched(raw, 16, total_len.to_bytes(2, "big"))
            assert_reads_like_the_codecs(broken)
            assert_host_takes(broken)

    @settings(max_examples=100, deadline=None)
    @given(tcp_frames(), st.integers(0, 15))
    def test_bad_tcp_data_offset(self, raw, offset):
        broken = _patched(raw, 46, bytes([(offset << 4) | (raw[46] & 0x0F)]))
        assert_reads_like_the_codecs(broken)
        assert_host_takes(broken)

    @settings(max_examples=100, deadline=None)
    @given(udp_frames(), st.data())
    def test_bad_udp_length(self, raw, data):
        length = data.draw(st.integers(0, len(raw) + 20))
        broken = _patched(raw, 38, length.to_bytes(2, "big"))
        assert_reads_like_the_codecs(broken)
        assert_host_takes(broken)

    @settings(max_examples=100, deadline=None)
    @given(frames, st.integers(1, 46))
    def test_ethernet_padding(self, raw, pad):
        padded = raw + b"\0" * pad
        assert_reads_like_the_codecs(padded)
        assert_host_takes(padded)

    def test_padding_is_not_payload(self):
        """A 60-byte minimum frame: the bytes past the IPv4 total length
        are not handed up."""
        segment = TCP(443, 49152, flags=ACK, payload=b"hi")
        raw = Ethernet(HOST_MAC, ROUTER_MAC, ETH_TYPE_IPV4,
                       IPv4(REMOTE_IP, HOST_IP, PROTO_TCP, payload=segment)).pack()
        fields = read_frame(raw + b"\0" * (60 - len(raw)))
        assert fields[5] == (443, 49152, 0, 0, ACK) and fields[6] == b"hi"

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=80))
    def test_random_bytes(self, raw):
        assert_reads_like_the_codecs(raw)
        assert_host_takes(raw)
