"""Same-priority overlap: the predicate, and the fuzzer's invariant.

OpenFlow 1.0 leaves the winner between two same-priority rules that
match one packet undefined.  The datapath installs such rules (the
router never sets OFPFF_CHECK_OVERLAP), and the scenario fuzzer's
``flow-no-overlap`` invariant flags a table that holds them.
"""

from types import SimpleNamespace

from repro.check.invariants import CheckContext, check_flow_no_overlap
from repro.openflow.actions import output
from repro.openflow.flow_table import FlowEntry, FlowTable, _overlaps
from repro.openflow.match import Match


def overlap_verdict(table):
    """What the ``flow-no-overlap`` invariant says of ``table``."""
    router = SimpleNamespace(datapath=SimpleNamespace(table=table))
    return check_flow_no_overlap(router, CheckContext())


class TestOverlapPredicate:
    def test_identical_overlap(self):
        assert _overlaps(Match(tp_dst=80), Match(tp_dst=80))

    def test_disjoint_field(self):
        assert not _overlaps(Match(tp_dst=80), Match(tp_dst=443))

    def test_wildcard_overlaps_specific(self):
        assert _overlaps(Match(), Match(tp_dst=80))

    def test_orthogonal_fields_overlap(self):
        # One constrains tp_dst, the other nw_proto: a packet can match both.
        assert _overlaps(Match(tp_dst=80), Match(nw_proto=6))

    def test_cidr_overlap(self):
        a = Match(nw_src="10.0.0.0", nw_src_prefix=8)
        b = Match(nw_src="10.1.2.3", nw_src_prefix=32)
        assert _overlaps(a, b)

    def test_cidr_disjoint(self):
        a = Match(nw_src="10.0.0.0", nw_src_prefix=8)
        b = Match(nw_src="11.0.0.0", nw_src_prefix=8)
        assert not _overlaps(a, b)


class TestTableOverlapCheck:
    def test_same_priority_overlap_rejected(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=50))
        table.add(FlowEntry(Match(nw_proto=6), output(2), priority=50))
        assert overlap_verdict(table) == (
            "ambiguous overlap at priority 50: Match(tp_dst=80) vs Match(nw_proto=6)"
        )

    def test_different_priority_allowed(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=50))
        table.add(FlowEntry(Match(nw_proto=6), output(2), priority=60))
        assert len(table) == 2
        assert overlap_verdict(table) is None

    def test_disjoint_same_priority_allowed(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=50))
        table.add(FlowEntry(Match(tp_dst=443), output(2), priority=50))
        assert len(table) == 2
        assert overlap_verdict(table) is None

    def test_without_flag_overlap_permitted(self):
        table = FlowTable()
        table.add(FlowEntry(Match(tp_dst=80), output(1), priority=50))
        table.add(FlowEntry(Match(nw_proto=6), output(2), priority=50))
        assert len(table) == 2
