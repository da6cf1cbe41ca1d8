"""pcap trace writer/reader tests."""

import io

import pytest
from hypothesis import given, strategies as st

from repro.net.pcap import LINKTYPE_ETHERNET, PcapError, PcapReader, PcapWriter, read_all

from tests.reference_codecs import Ethernet


def test_roundtrip_single_frame():
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    frame = Ethernet("02:00:00:00:00:02", "02:00:00:00:00:01", 0x0800, b"hello")
    writer.write(1.5, frame)
    buffer.seek(0)
    records = read_all(buffer)
    assert len(records) == 1
    timestamp, raw = records[0]
    assert timestamp == pytest.approx(1.5, abs=1e-6)
    assert Ethernet.unpack(raw).pack_payload() == b"hello"


def test_roundtrip_many_frames():
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    for i in range(10):
        writer.write(float(i), b"\x00" * 20 + bytes([i]))
    buffer.seek(0)
    records = read_all(buffer)
    assert [int(t) for t, _ in records] == list(range(10))
    assert all(raw[-1] == i for i, (_, raw) in enumerate(records))


def test_reader_checks_linktype():
    buffer = io.BytesIO()
    PcapWriter(buffer)
    buffer.seek(0)
    reader = PcapReader(buffer)
    assert reader.linktype == LINKTYPE_ETHERNET
    assert reader.snaplen == 65535


def test_snaplen_truncates():
    buffer = io.BytesIO()
    writer = PcapWriter(buffer, snaplen=16)
    writer.write(0.0, b"\xab" * 100)
    buffer.seek(0)
    (_, raw), = read_all(buffer)
    assert len(raw) == 16


def test_bad_magic_rejected():
    with pytest.raises(PcapError):
        PcapReader(io.BytesIO(b"\x00" * 24))


def test_truncated_header_rejected():
    with pytest.raises(PcapError):
        PcapReader(io.BytesIO(b"\x00" * 4))


def test_truncated_record_rejected():
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    writer.write(0.0, b"\x00" * 20)
    data = buffer.getvalue()[:-5]
    with pytest.raises(PcapError):
        read_all(io.BytesIO(data))


def test_microsecond_rollover():
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    writer.write(1.9999996, b"\x00" * 14)  # rounds to 2.0 exactly
    buffer.seek(0)
    (timestamp, _), = read_all(buffer)
    assert timestamp == pytest.approx(2.0, abs=1e-6)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6), st.binary(min_size=14, max_size=60)), max_size=20))
def test_roundtrip_property(records):
    buffer = io.BytesIO()
    writer = PcapWriter(buffer)
    for timestamp, raw in records:
        writer.write(timestamp, raw)
    buffer.seek(0)
    out = read_all(buffer)
    assert len(out) == len(records)
    for (t_in, raw_in), (t_out, raw_out) in zip(records, out):
        assert raw_out == raw_in
        assert t_out == pytest.approx(t_in, abs=1e-5)
