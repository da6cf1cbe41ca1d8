"""Cross-cutting property-based tests on core invariants."""

import io

from hypothesis import given, settings, strategies as st

from repro.hwdb.cql import parse, unparse
from repro.net import ETH_TYPE_IPV4, IPv4Address, MACAddress
from repro.net.dhcp_msg import BOOTREPLY, BOOTREQUEST, DHCPMessage
from repro.net.dns_msg import (
    DNSMessage,
    DNSQuestion,
    DNSRecord,
    TYPE_A,
    TYPE_CNAME,
    TYPE_PTR,
    TYPE_TXT,
)
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP
from repro.net.pcap import PcapWriter, read_all
from repro.net.rewrite import flow_key
from repro.openflow.actions import output
from repro.openflow.flow_table import FlowEntry, FlowTable, _covers, matching_keys
from repro.openflow.match import Match
from repro.policy.engine import PolicyEngine
from repro.policy.model import DNS_BLOCK, DNS_ONLY, NET_DENY, Policy
from repro.core.events import EventBus
from repro.services.nat import NatTable
from repro.sim.simulator import Simulator

from tests.reference_codecs import Ethernet, IPv4, TCP, UDP

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

ports = st.integers(min_value=0, max_value=65535)
ips = st.integers(min_value=1, max_value=(1 << 32) - 2).map(IPv4Address)
macs = st.integers(min_value=1, max_value=(1 << 48) - 2).map(MACAddress)
protos = st.sampled_from([PROTO_TCP, PROTO_UDP])


@st.composite
def flow_keys(draw):
    proto = draw(protos)
    payload = (
        TCP(draw(ports), draw(ports))
        if proto == PROTO_TCP
        else UDP(draw(ports), draw(ports))
    )
    frame = Ethernet(
        draw(macs),
        draw(macs),
        ETH_TYPE_IPV4,
        IPv4(draw(ips), draw(ips), proto=proto, payload=payload),
    )
    return flow_key(frame.pack(), draw(st.integers(min_value=1, max_value=8)))


@st.composite
def wildcard_matches(draw, key):
    """A match derived from the key tuple ``key`` with a random subset of
    fields kept."""
    in_port, dl_src, dl_dst, dl_type, nw_src, _nw_dst, nw_proto, tp_src, tp_dst = key
    kwargs = {}
    if draw(st.booleans()):
        kwargs["in_port"] = in_port
    if draw(st.booleans()):
        kwargs["dl_src"] = dl_src
    if draw(st.booleans()):
        kwargs["dl_dst"] = dl_dst
    if draw(st.booleans()):
        kwargs["dl_type"] = dl_type
    if draw(st.booleans()):
        kwargs["nw_proto"] = nw_proto
    if draw(st.booleans()):
        kwargs["tp_src"] = tp_src
    if draw(st.booleans()):
        kwargs["tp_dst"] = tp_dst
    if draw(st.booleans()):
        prefix = draw(st.integers(min_value=0, max_value=32))
        kwargs["nw_src"] = nw_src
        kwargs["nw_src_prefix"] = prefix
    return Match(**kwargs)


# ----------------------------------------------------------------------
# OpenFlow matching invariants
# ----------------------------------------------------------------------

class TestMatchProperties:
    @settings(max_examples=100)
    @given(st.data())
    def test_derived_wildcard_always_matches_its_key(self, data):
        key = data.draw(flow_keys())
        match = data.draw(wildcard_matches(key))
        assert match.matches(key)

    @settings(max_examples=100)
    @given(flow_keys())
    def test_exact_match_is_exact(self, key):
        match = Match.from_key(key)
        assert match.is_exact
        assert match.matches(key)

    @settings(max_examples=100)
    @given(st.data())
    def test_covers_is_consistent_with_matches(self, data):
        """If wide covers narrow, anything narrow matches, wide matches:
        ``_covers`` agrees with ``Match.matches`` on the key tuple."""
        key = data.draw(flow_keys())
        wide = data.draw(wildcard_matches(key))
        narrow = Match.from_key(key)
        assert _covers(wide, narrow) == wide.matches(key)

    @settings(max_examples=100)
    @given(st.data())
    def test_matching_keys_agrees_with_matches(self, data):
        """Cache invalidation's masked comparison picks exactly the keys
        ``Match.matches`` accepts, for wildcard and exact patterns."""
        keys = [data.draw(flow_keys()) for _ in range(data.draw(st.integers(1, 6)))]
        pattern = data.draw(
            st.one_of(wildcard_matches(keys[0]), st.just(Match.from_key(keys[0])))
        )
        cached = dict.fromkeys(keys)
        expected = {key for key in cached if pattern.matches(key)}
        assert set(matching_keys(pattern, cached)) == expected

    @settings(max_examples=100)
    @given(st.data())
    def test_lookup_returns_highest_priority_match(self, data):
        key = data.draw(flow_keys())
        table = FlowTable()
        entries = []
        for index in range(data.draw(st.integers(min_value=1, max_value=5))):
            match = data.draw(wildcard_matches(key))
            priority = data.draw(st.integers(min_value=0, max_value=1000))
            entry = FlowEntry(match, output(1), priority=priority)
            entries.append(entry)
            table.add(entry)
        hit = table.resolve(key)
        assert hit is not None  # every entry matches by construction
        assert hit.priority == max(e.priority for e in entries)


# ----------------------------------------------------------------------
# NAT invariants
# ----------------------------------------------------------------------

class TestNatProperties:
    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(protos, ips, ports),
            min_size=1,
            max_size=50,
            unique=True,
        )
    )
    def test_bindings_bijective(self, flows):
        table = NatTable(IPv4Address("82.10.0.2"))
        bindings = [
            table.bind(proto, ip, port, 0.0) for proto, ip, port in flows
        ]
        # Forward and reverse lookups agree for every binding.
        for binding in bindings:
            assert (
                table.lookup_external(binding.proto, binding.external_port)
                is binding
            )
            assert (
                table.lookup_private(
                    binding.proto, binding.device_ip, binding.device_port
                )
                is binding
            )
        # No two distinct flows share (proto, external port).
        keys = {(b.proto, b.external_port) for b in bindings}
        assert len(keys) == len({(f[0], str(f[1]), f[2]) for f in flows})


# ----------------------------------------------------------------------
# Policy engine invariants
# ----------------------------------------------------------------------

sites = st.lists(
    st.sampled_from(["a.com", "b.com", "c.com", "d.com"]), min_size=1, max_size=3
)


_names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=6,
)


@st.composite
def policies(draw, target):
    kind = draw(st.sampled_from(["deny_net", "only", "block"]))
    if kind == "deny_net":
        return Policy(draw(_names), [target], network=NET_DENY)
    if kind == "only":
        return Policy(
            draw(_names), [target], dns_mode=DNS_ONLY, sites=draw(sites)
        )
    return Policy(draw(_names), [target], dns_mode=DNS_BLOCK, sites=draw(sites))


class TestPolicyEngineProperties:
    MAC = "02:aa:00:00:00:01"

    @settings(max_examples=60)
    @given(st.lists(policies(target="02:aa:00:00:00:01"), max_size=5))
    def test_adding_policies_never_loosens(self, policy_list):
        """Monotonicity: each added policy can only restrict further."""
        engine = PolicyEngine(EventBus())
        previous = engine.restrictions_for(self.MAC, 0.0)
        for policy in policy_list:
            engine._policies[policy.id] = policy  # no enforcement plumbing
            engine._managed.update(policy.targets)
            current = engine.restrictions_for(self.MAC, 0.0)
            # Network can only go allow -> deny, never back.
            assert current.network_allowed <= previous.network_allowed
            # A whitelist can only shrink once present.
            if previous.dns_mode == DNS_ONLY:
                assert current.dns_mode == DNS_ONLY
                assert set(current.sites) <= set(previous.sites)
            previous = current

    @settings(max_examples=60)
    @given(st.lists(policies(target="02:aa:00:00:00:01"), min_size=1, max_size=5))
    def test_whitelist_never_contains_blocked(self, policy_list):
        engine = PolicyEngine(EventBus())
        blocked = set()
        for policy in policy_list:
            engine._policies[policy.id] = policy
            engine._managed.update(policy.targets)
            if policy.dns_mode == DNS_BLOCK:
                blocked.update(policy.sites)
        restrictions = engine.restrictions_for(self.MAC, 0.0)
        if restrictions.dns_mode == DNS_ONLY:
            assert not (set(restrictions.sites) & blocked)


# ----------------------------------------------------------------------
# Simulator invariants
# ----------------------------------------------------------------------

class TestSimulatorProperties:
    @settings(max_examples=50)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), max_size=30))
    def test_execution_respects_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append((sim.now, d)))
        sim.run_until(101.0)
        times = [t for t, _d in fired]
        assert times == sorted(times)
        assert len(fired) == len(delays)
        for fired_at, delay in fired:
            assert fired_at == delay


# ----------------------------------------------------------------------
# Round-trips: parse/unparse, write/read, encode/decode
# ----------------------------------------------------------------------

from repro.hwdb.cql import AGGREGATE_FUNCTIONS, SCALAR_FUNCTIONS
from repro.hwdb.cql.lexer import KEYWORDS

_CQL_RESERVED = KEYWORDS | AGGREGATE_FUNCTIONS | SCALAR_FUNCTIONS

_idents = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1,
    max_size=8,
).filter(lambda s: s not in _CQL_RESERVED)
_literal_texts = st.one_of(
    # Non-negative: the grammar has no unary minus in expressions.
    st.integers(min_value=0, max_value=1000).map(str),
    # Fixed-point only: the lexer has no scientific notation.
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(
        lambda f: format(f, ".6f")
    ),
    st.sampled_from(["'tv'", "'a''b'", "NULL", "TRUE", "FALSE"]),
)


@st.composite
def cql_queries(draw):
    """Random-but-valid CQL SELECT text, assembled from grammar pieces."""
    table = draw(_idents)
    window = draw(
        st.sampled_from(["", " [NOW]", " [ROWS 5]", " [RANGE 2.5 SECONDS]"])
    )
    if draw(st.booleans()):
        projection = "*"
    else:
        parts = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            expr = draw(
                st.one_of(
                    _idents,
                    _idents.map(lambda c: f"count({c})"),
                    _idents.map(lambda c: f"sum({c})"),
                    _literal_texts,
                )
            )
            if draw(st.booleans()):
                expr += f" AS {draw(_idents)}"
            parts.append(expr)
        projection = ", ".join(parts)
    text = f"SELECT {projection} FROM {table}{window}"
    if draw(st.booleans()):
        column, literal = draw(_idents), draw(_literal_texts)
        op = draw(st.sampled_from(["=", "!=", "<", ">", "<=", ">="]))
        text += f" WHERE {column} {op} {literal}"
        if draw(st.booleans()):
            text += f" AND {draw(_idents)} IN ({draw(_literal_texts)})"
    if draw(st.booleans()):
        text += f" GROUP BY {draw(_idents)}"
    if draw(st.booleans()):
        direction = draw(st.sampled_from(["ASC", "DESC"]))
        text += f" ORDER BY {draw(_idents)} {direction}"
    if draw(st.booleans()):
        text += f" LIMIT {draw(st.integers(min_value=1, max_value=99))}"
    return text


class TestRoundTrips:
    @settings(max_examples=100)
    @given(cql_queries())
    def test_cql_parse_unparse_fixpoint(self, query):
        """unparse(parse(q)) is a fixpoint: one more round-trip is identity."""
        normalised = unparse(parse(query))
        assert unparse(parse(normalised)) == normalised

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.binary(min_size=1, max_size=200),
            ),
            max_size=20,
        )
    )
    def test_pcap_write_read_equality(self, records):
        stream = io.BytesIO()
        writer = PcapWriter(stream)
        for timestamp, frame in records:
            writer.write(timestamp, frame)
        stream.seek(0)
        restored = read_all(stream)
        assert [frame for _t, frame in restored] == [f for _t, f in records]
        for (wrote_t, _), (read_t, _) in zip(records, restored):
            assert abs(read_t - wrote_t) < 1e-5  # microsecond wire precision

    @settings(max_examples=100)
    @given(
        op=st.sampled_from([BOOTREQUEST, BOOTREPLY]),
        xid=st.integers(min_value=0, max_value=0xFFFFFFFF),
        mac=st.integers(min_value=1, max_value=(1 << 48) - 2).map(MACAddress),
        addrs=st.tuples(*[st.integers(min_value=0, max_value=(1 << 32) - 1)] * 4),
        secs=st.integers(min_value=0, max_value=0xFFFF),
        flags=st.sampled_from([0, 0x8000]),
        options=st.dictionaries(
            st.integers(min_value=1, max_value=254),
            st.binary(max_size=32),
            max_size=5,
        ),
    )
    def test_dhcp_encode_decode_identity(
        self, op, xid, mac, addrs, secs, flags, options
    ):
        ciaddr, yiaddr, siaddr, giaddr = (IPv4Address(a) for a in addrs)
        message = DHCPMessage(
            op, xid, mac, ciaddr, yiaddr, siaddr, giaddr, secs, flags, options
        )
        decoded = DHCPMessage.unpack(message.pack())
        assert decoded.op == op and decoded.xid == xid and decoded.chaddr == mac
        assert (decoded.ciaddr, decoded.yiaddr) == (ciaddr, yiaddr)
        assert (decoded.siaddr, decoded.giaddr) == (siaddr, giaddr)
        assert (decoded.secs, decoded.flags) == (secs, flags)
        assert decoded.options == options

    @settings(max_examples=100)
    @given(
        ident=st.integers(min_value=0, max_value=0xFFFF),
        is_response=st.booleans(),
        rcode=st.integers(min_value=0, max_value=15),
        names=st.lists(
            st.from_regex(r"[a-z]{1,10}(\.[a-z]{1,10}){0,3}", fullmatch=True),
            min_size=1,
            max_size=3,
        ),
        answer_kinds=st.lists(
            st.sampled_from([TYPE_A, TYPE_CNAME, TYPE_PTR, TYPE_TXT]), max_size=4
        ),
        addr=st.integers(min_value=1, max_value=(1 << 32) - 2).map(IPv4Address),
        ttl=st.integers(min_value=0, max_value=86400),
    )
    def test_dns_encode_decode_identity(
        self, ident, is_response, rcode, names, answer_kinds, addr, ttl
    ):
        questions = [DNSQuestion(name) for name in names]
        answers = []
        for kind in answer_kinds:
            if kind == TYPE_A:
                answers.append(DNSRecord.a(names[0], addr, ttl))
            elif kind == TYPE_CNAME:
                answers.append(DNSRecord.cname(names[0], names[-1], ttl))
            elif kind == TYPE_PTR:
                answers.append(DNSRecord.ptr(addr, names[0], ttl))
            else:
                answers.append(DNSRecord(names[0], TYPE_TXT, b"v=1", ttl))
        message = DNSMessage(
            ident=ident,
            is_response=is_response,
            rcode=rcode,
            questions=questions,
            answers=answers,
        )
        decoded = DNSMessage.unpack(message.pack())
        assert decoded.ident == ident
        assert decoded.is_response == is_response
        assert decoded.rcode == rcode
        assert decoded.questions == questions
        assert len(decoded.answers) == len(answers)
        for got, sent in zip(decoded.answers, answers):
            assert got.name == sent.name
            assert got.rtype == sent.rtype
            assert got.ttl == sent.ttl
            assert got.rdata == sent.rdata
