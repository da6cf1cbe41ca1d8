"""RPC wire-format edge cases.

The hwdb RPC rides a line-oriented text protocol: rows are
newline-separated, values tab-separated, with ``\\t``/``\\n``/``\\r``/
``\\\\`` escapes and a bare ``\\N`` token for SQL null.  These tests pin
the corners: delimiter characters inside values, a *literal* backslash-N
string (which must not collapse into null), and the same payloads
surviving the PUSH path through the UDP gateway.
"""

import enum
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro import HomeworkRouter, RouterConfig, Simulator
from repro.core.clock import SimulatedClock
from repro.core.errors import RpcError
from repro.hwdb.cql.executor import ResultSet
from repro.hwdb.database import HomeworkDatabase
from repro.hwdb.rpc import (
    HwdbClient,
    LocalTransport,
    RpcServer,
    _decode_value,
    _encode_value,
    _escape,
    _unescape,
    pack_resultset,
    unpack_resultset,
)
from repro.hwdb.udp_gateway import RemoteHwdbClient

from tests.conftest import join_device

NASTY_STRINGS = [
    "plain",
    "tab\there",
    "line\nbreak",
    "carriage\rreturn",
    "back\\slash",
    "\\N",  # literal backslash-N, NOT the null marker
    "trailing\\",
    "\t\n\r\\",
    "",
]


class TestEscaping:
    @pytest.mark.parametrize("text", NASTY_STRINGS)
    def test_escape_round_trip(self, text):
        assert _unescape(_escape(text)) == text

    def test_escaped_text_has_no_raw_delimiters(self):
        for text in NASTY_STRINGS:
            escaped = _escape(text)
            assert "\t" not in escaped
            assert "\n" not in escaped

    def test_literal_backslash_n_is_not_null(self):
        # The string "\N" escapes its backslash, so the decoder sees
        # "s:\\N" — distinct from the untagged null token "\N".
        assert _escape("\\N") == "\\\\N"


class TestResultSetRoundTrip:
    def test_all_value_types(self):
        original = ResultSet(
            ["n", "f", "flag", "text", "nothing"],
            [
                (7, 2.5, True, "tab\there", None),
                (-3, -0.125, False, "\\N", None),
                (0, 1e9, True, "", "present"),
            ],
        )
        decoded = unpack_resultset(pack_resultset(original))
        assert decoded.columns == original.columns
        assert decoded.rows == original.rows

    @pytest.mark.parametrize("text", NASTY_STRINGS)
    def test_nasty_string_values(self, text):
        original = ResultSet(["v"], [(text,)])
        decoded = unpack_resultset(pack_resultset(original))
        assert decoded.rows == [(text,)]

    def test_column_names_with_delimiters(self):
        original = ResultSet(["a\tb", "c\nd"], [("x", "y")])
        decoded = unpack_resultset(pack_resultset(original))
        assert decoded.columns == ["a\tb", "c\nd"]

    def test_empty_resultset(self):
        decoded = unpack_resultset(pack_resultset(ResultSet([], [])))
        assert decoded.columns == []
        assert decoded.rows == []

    def test_malformed_token_rejected(self):
        with pytest.raises(RpcError):
            unpack_resultset("v\nnot-a-tagged-token")

    def test_unknown_tag_rejected(self):
        with pytest.raises(RpcError):
            unpack_resultset("v\nz:wat")


# -- The codec as it was before its fast paths: the reference ----------

_REF_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"}
_REF_UNESCAPES = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r"}


def ref_escape(text: str) -> str:
    for raw, escaped in _REF_ESCAPES.items():
        text = text.replace(raw, escaped)
    return text


def ref_unescape(text: str) -> str:
    out = []
    i = 0
    while i < len(text):
        if text[i] == "\\" and i + 1 < len(text):
            pair = text[i : i + 2]
            if pair in _REF_UNESCAPES:
                out.append(_REF_UNESCAPES[pair])
                i += 2
                continue
        out.append(text[i])
        i += 1
    return "".join(out)


def ref_encode_value(value) -> str:
    if value is None:
        return "\\N"
    if isinstance(value, bool):
        return "b:1" if value else "b:0"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    return "s:" + ref_escape(str(value))


def ref_decode_value(token: str):
    if token == "\\N":
        return None
    if len(token) < 2 or token[1] != ":":
        raise RpcError(f"malformed value token {token!r}")
    tag, body = token[0], token[2:]
    if tag == "i":
        return int(body)
    if tag == "f":
        return float(body)
    if tag == "b":
        return body == "1"
    if tag == "s":
        return ref_unescape(body)
    raise RpcError(f"unknown value tag {tag!r}")


def ref_pack_resultset(result: ResultSet) -> str:
    lines = [f"@{result.executed_at!r}"]
    lines.append("\t".join(ref_escape(c) for c in result.columns))
    for row in result.rows:
        lines.append("\t".join(ref_encode_value(v) for v in row))
    return "\n".join(lines)


def ref_unpack_resultset(text: str) -> ResultSet:
    lines = text.split("\n")
    executed_at = 0.0
    if lines and lines[0].startswith("@"):
        stamp = lines.pop(0)[1:]
        try:
            executed_at = float(stamp)
        except ValueError:
            raise RpcError(f"malformed execution timestamp {stamp!r}") from None
    if not lines or not lines[0]:
        return ResultSet([], [], executed_at=executed_at)
    columns = [ref_unescape(c) for c in lines[0].split("\t")]
    rows: List[Tuple] = []
    for line in lines[1:]:
        if not line:
            continue
        rows.append(tuple(ref_decode_value(tok) for tok in line.split("\t")))
    return ResultSet(columns, rows, executed_at=executed_at)


class _Level(enum.IntEnum):
    HIGH = 2


class _Label(str):
    pass


#: The four escaped characters, the N of the null token, and a tag.
_WIRE_ALPHABET = "\\\t\n\rNs:x"
_wire_text = st.text(alphabet=_WIRE_ALPHABET, max_size=10)
_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(
        [-0.0, float("nan"), float("inf"), float("-inf"), 1e-300, _Level.HIGH]
    ),
    _wire_text,
    _wire_text.map(_Label),
)


@st.composite
def _resultsets(draw):
    width = draw(st.integers(min_value=0, max_value=4))
    columns = draw(st.lists(_wire_text, min_size=width, max_size=width))
    rows = draw(
        st.lists(st.tuples(*[_values] * width), max_size=5) if width else st.just([])
    )
    return ResultSet(columns, rows, executed_at=draw(st.floats()))


def _canonical(result: ResultSet):
    """Exact, NaN-safe form: types plus reprs (so -0.0 != 0.0, 1 != True)."""
    return (
        result.columns,
        [[(type(v), repr(v)) for v in row] for row in result.rows],
        repr(result.executed_at),
    )


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return ("raise", type(exc), str(exc))
    return ("value", type(value), repr(value))


class TestCodecMatchesReference:
    """The codec's fast paths leave the wire bytes, and what they decode
    to, exactly as they were."""

    @settings(max_examples=300, deadline=None)
    @given(_resultsets())
    def test_pack_and_unpack_match_reference(self, result):
        wire = pack_resultset(result)
        assert wire == ref_pack_resultset(result)
        assert _canonical(unpack_resultset(wire)) == _canonical(
            ref_unpack_resultset(wire)
        )

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_encode_value_matches_reference(self, value):
        assert _encode_value(value) == ref_encode_value(value)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=_WIRE_ALPHABET + "ifb01.e-", max_size=8))
    def test_any_token_decodes_or_raises_like_reference(self, token):
        assert _outcome(_decode_value, token) == _outcome(ref_decode_value, token)

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=_WIRE_ALPHABET, max_size=12))
    def test_escape_and_unescape_match_reference(self, text):
        assert _escape(text) == ref_escape(text)
        assert _unescape(text) == ref_unescape(text)


def _notes_db():
    db = HomeworkDatabase(SimulatedClock())
    db.create_table("notes", [("note", "varchar")], 64)
    return db


class TestQueryPath:
    def test_nasty_values_survive_query_rpc(self):
        db = _notes_db()
        for text in NASTY_STRINGS:
            if text:  # empty string vs missing row is a separate case
                db.insert("notes", [text])
        client = HwdbClient(LocalTransport(RpcServer(db)))
        result = client.query("SELECT note FROM notes")
        assert [row[0] for row in result.rows] == [t for t in NASTY_STRINGS if t]

    def test_null_aggregate_survives_query_rpc(self):
        db = HomeworkDatabase(SimulatedClock())
        db.create_table("flows", [("bytes", "integer")], 64)
        client = HwdbClient(LocalTransport(RpcServer(db)))
        result = client.query("SELECT min(bytes) FROM flows")
        assert result.rows[0][0] is None


class TestPushPath:
    def test_nasty_values_survive_local_push(self):
        sim = Simulator(seed=5)
        db = HomeworkDatabase(sim.clock)
        db.attach_scheduler(sim)
        db.create_table("notes", [("note", "varchar")], 64)
        client = HwdbClient(LocalTransport(RpcServer(db)))
        pushed = []
        client.subscribe(
            "SELECT note FROM notes [RANGE 1 SECONDS]", 1.0, pushed.append
        )
        for text in NASTY_STRINGS:
            if text:
                db.insert("notes", [text])
        sim.run_for(1.5)
        assert pushed, "subscription never fired"
        values = [row[0] for result in pushed for row in result.rows]
        assert set(values) >= {t for t in NASTY_STRINGS if t}

    def test_nasty_values_survive_udp_gateway_push(self):
        """The genuine wire: PUSH datagrams routed through the datapath."""
        sim = Simulator(seed=6)
        router = HomeworkRouter(sim, config=RouterConfig(default_permit=True))
        router.start()
        gateway_ip = router.enable_rpc_gateway()
        router.db.create_table("notes", [("note", "varchar")], 64)
        station = join_device(router, "station", "02:aa:00:00:00:07")
        client = RemoteHwdbClient(station, gateway_ip)

        pushed = []
        client.subscribe(
            "SELECT note FROM notes [RANGE 2 SECONDS]", 1.0, pushed.append
        )
        sim.run_for(0.5)  # let SUBSCRIBED come back
        for text in NASTY_STRINGS:
            if text:
                router.db.insert("notes", [text])
        sim.run_for(2.0)
        assert pushed, "no PUSH datagrams arrived"
        values = [row[0] for result in pushed for row in result.rows]
        assert set(values) >= {t for t in NASTY_STRINGS if t}
