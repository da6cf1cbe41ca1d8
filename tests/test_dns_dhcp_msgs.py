"""DNS and DHCP wire-format tests."""

import pytest
from hypothesis import given, strategies as st

from repro.net import IPv4Address, MACAddress, PacketError
from repro.net.dhcp_msg import (
    BOOTREPLY,
    BOOTREQUEST,
    DHCPDISCOVER,
    DHCPMessage,
    DHCPOFFER,
    DHCPRELEASE,
    DHCPREQUEST,
    OPT_DNS_SERVER,
    OPT_HOSTNAME,
    OPT_LEASE_TIME,
    OPT_ROUTER,
    OPT_SUBNET_MASK,
)
from repro.net.dns_msg import (
    DNSMessage,
    DNSQuestion,
    DNSRecord,
    RCODE_NXDOMAIN,
    TYPE_A,
    TYPE_CNAME,
    TYPE_PTR,
    decode_name,
    encode_name,
    reverse_pointer_name,
)

_label = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=10
)
_hostname = st.lists(_label, min_size=1, max_size=4).map(".".join)


class TestDnsNames:
    def test_encode_simple(self):
        assert encode_name("a.bc") == b"\x01a\x02bc\x00"

    def test_encode_root(self):
        assert encode_name("") == b"\x00"

    def test_decode_roundtrip(self):
        raw = encode_name("www.facebook.com")
        name, offset = decode_name(raw, 0)
        assert name == "www.facebook.com"
        assert offset == len(raw)

    def test_decode_compression_pointer(self):
        # "com" at offset 0, then a name using a pointer to it.
        raw = encode_name("com") + b"\x03www" + b"\xc0\x00"
        name, offset = decode_name(raw, 5)
        assert name == "www.com"
        assert offset == len(raw)

    def test_compression_loop_detected(self):
        raw = b"\xc0\x00"
        with pytest.raises(PacketError):
            decode_name(raw, 0)

    def test_label_too_long(self):
        with pytest.raises(PacketError):
            encode_name("a" * 64 + ".com")

    def test_name_too_long(self):
        with pytest.raises(PacketError):
            encode_name(".".join(["abcdefgh"] * 40))

    def test_reverse_pointer(self):
        assert reverse_pointer_name("10.2.0.6") == "6.0.2.10.in-addr.arpa"

    @given(_hostname)
    def test_roundtrip_property(self, name):
        decoded, _ = decode_name(encode_name(name), 0)
        assert decoded == name


class TestDnsMessage:
    def test_query_roundtrip(self):
        query = DNSMessage.query("www.example.org", ident=99)
        parsed = DNSMessage.unpack(query.pack())
        assert parsed.ident == 99
        assert not parsed.is_response
        assert parsed.qname == "www.example.org"
        assert parsed.questions[0].qtype == TYPE_A
        assert parsed.recursion_desired

    def test_response_roundtrip(self):
        query = DNSMessage.query("facebook.com", ident=5)
        response = query.respond([DNSRecord.a("facebook.com", "31.13.72.36", ttl=60)])
        parsed = DNSMessage.unpack(response.pack())
        assert parsed.is_response
        assert parsed.ident == 5
        records = parsed.a_records()
        assert len(records) == 1
        assert records[0].address == IPv4Address("31.13.72.36")
        assert records[0].ttl == 60

    def test_nxdomain_roundtrip(self):
        query = DNSMessage.query("blocked.example", ident=1)
        parsed = DNSMessage.unpack(query.respond(rcode=RCODE_NXDOMAIN).pack())
        assert parsed.rcode == RCODE_NXDOMAIN
        assert parsed.a_records() == []

    def test_cname_roundtrip(self):
        response = DNSMessage(
            ident=2,
            is_response=True,
            questions=[DNSQuestion("www.x.com")],
            answers=[
                DNSRecord.cname("www.x.com", "x.com"),
                DNSRecord.a("x.com", "1.2.3.4"),
            ],
        )
        parsed = DNSMessage.unpack(response.pack())
        assert parsed.answers[0].rtype == TYPE_CNAME
        assert parsed.answers[0].rdata == "x.com"

    def test_ptr_record(self):
        record = DNSRecord.ptr("10.2.0.6", "toms-air.home")
        assert record.name == "6.0.2.10.in-addr.arpa"
        assert record.rtype == TYPE_PTR

    def test_qname_case_folded(self):
        assert DNSQuestion("WWW.Example.ORG").qname == "www.example.org"

    def test_truncated(self):
        with pytest.raises(PacketError):
            DNSMessage.unpack(b"\x00" * 11)

    def test_question_equality(self):
        assert DNSQuestion("a.com") == DNSQuestion("a.com.")
        assert hash(DNSQuestion("a.com")) == hash(DNSQuestion("A.com"))

    @given(_hostname, st.integers(min_value=0, max_value=0xFFFF))
    def test_query_roundtrip_property(self, name, ident):
        parsed = DNSMessage.unpack(DNSMessage.query(name, ident=ident).pack())
        assert parsed.qname == name
        assert parsed.ident == ident


class TestDhcpMessage:
    MAC = "02:aa:00:00:00:01"

    def test_discover_roundtrip(self):
        msg = DHCPMessage.discover(self.MAC, xid=0xDEADBEEF, hostname="laptop")
        parsed = DHCPMessage.unpack(msg.pack())
        assert parsed.op == BOOTREQUEST
        assert parsed.xid == 0xDEADBEEF
        assert parsed.chaddr == MACAddress(self.MAC)
        assert parsed.message_type == DHCPDISCOVER
        assert parsed.hostname == "laptop"
        assert parsed.flags == 0x8000  # broadcast flag

    def test_request_roundtrip(self):
        msg = DHCPMessage.request(
            self.MAC, xid=1, requested_ip="10.2.0.6", server_id="10.2.0.1"
        )
        parsed = DHCPMessage.unpack(msg.pack())
        assert parsed.message_type == DHCPREQUEST
        assert parsed.requested_ip == IPv4Address("10.2.0.6")
        assert parsed.server_id == IPv4Address("10.2.0.1")

    def test_release_roundtrip(self):
        msg = DHCPMessage.release(self.MAC, xid=2, ciaddr="10.2.0.6", server_id="10.2.0.1")
        parsed = DHCPMessage.unpack(msg.pack())
        assert parsed.message_type == DHCPRELEASE
        assert parsed.ciaddr == IPv4Address("10.2.0.6")

    def test_server_reply_builder(self):
        request = DHCPMessage.discover(self.MAC, xid=7)
        offer = request.reply(DHCPOFFER, yiaddr="10.2.0.6", server_id="10.2.0.1")
        offer.options[OPT_SUBNET_MASK] = IPv4Address("255.255.255.252").packed
        offer.set_option_ip(OPT_ROUTER, "10.2.0.5")
        offer.set_option_ip(OPT_DNS_SERVER, "10.2.0.5")
        offer.set_option_u32(OPT_LEASE_TIME, 3600)
        parsed = DHCPMessage.unpack(offer.pack())
        assert parsed.op == BOOTREPLY
        assert parsed.xid == 7
        assert parsed.yiaddr == IPv4Address("10.2.0.6")
        assert parsed.message_type == DHCPOFFER
        assert parsed.lease_time == 3600
        assert parsed.options[OPT_ROUTER] == IPv4Address("10.2.0.5").packed

    def test_message_type_name(self):
        assert DHCPMessage.discover(self.MAC, 1).message_type_name == "DISCOVER"

    def test_bad_op(self):
        with pytest.raises(PacketError):
            DHCPMessage(3, 1, self.MAC)

    def test_missing_cookie(self):
        raw = bytearray(DHCPMessage.discover(self.MAC, 1).pack())
        raw[236:240] = b"\x00\x00\x00\x00"
        with pytest.raises(PacketError):
            DHCPMessage.unpack(bytes(raw))

    def test_truncated(self):
        with pytest.raises(PacketError):
            DHCPMessage.unpack(b"\x01\x01\x06\x00" + b"\x00" * 100)

    def test_option_too_long(self):
        msg = DHCPMessage.discover(self.MAC, 1)
        msg.options[OPT_HOSTNAME] = b"x" * 300
        with pytest.raises(PacketError):
            msg.pack()

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_xid_roundtrip(self, xid):
        parsed = DHCPMessage.unpack(DHCPMessage.discover(self.MAC, xid).pack())
        assert parsed.xid == xid
