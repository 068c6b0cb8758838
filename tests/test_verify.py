"""Verification harness: theorem scans, value tables, probes, reports."""
from fractions import Fraction

import pytest

from toughlab.canon import canonical_code, enumerate_graphs
from toughlab.families import Family, FamilySpec, make_named, parse_family_spec
from toughlab.graph6 import parse_graph6, write_graph6
from toughlab.graphs import MAX_VERTICES, Graph
from toughlab.verify import (
    KRIESELL_CLASS_FILTERS,
    TABLE1_L_MAX,
    THEOREM_IDS,
    WHEELS_L_MAX,
    CoDiamExclusionReport,
    KriesellReport,
    PerNCounts,
    ProbeHit,
    ProbeReport,
    TheoremReport,
    ValueReport,
    ValueRow,
    identify_family,
    kriesell_scan,
    probe_conjecture_cochordal_diam2,
    verify_codiam_exclusions,
    verify_table1,
    verify_theorem,
    verify_wheels,
)

from oracles import ref_are_isomorphic


def test_theorem_ids_frozen():
    assert THEOREM_IDS == (
        "P4FREE",
        "MULTIPARTITE",
        "COCHORDAL_GE3",
        "NETFREE_COCHORDAL",
        "COFOREST",
        "UNIVERSAL_LE_3_2",
    )


# (n, class size, minimally tough members, predicted family count) up to n = 6;
# the n = 7 and n = 8 sweeps run in the acceptance suite
_PER_N_6 = {
    "P4FREE": [(1, 1, 0, 0), (2, 2, 0, 0), (3, 4, 1, 1), (4, 10, 2, 2), (5, 24, 3, 3), (6, 66, 2, 2)],
    "MULTIPARTITE": [(1, 1, 0, 0), (2, 2, 0, 0), (3, 3, 1, 1), (4, 5, 2, 2), (5, 7, 3, 3), (6, 11, 2, 2)],
    "COCHORDAL_GE3": [(1, 0, 0, 0), (2, 1, 0, 0), (3, 2, 1, 1), (4, 6, 3, 3), (5, 17, 4, 4), (6, 66, 4, 4)],
    "NETFREE_COCHORDAL": [(1, 1, 0, 0), (2, 2, 0, 0), (3, 4, 1, 1), (4, 10, 3, 3), (5, 27, 4, 4), (6, 93, 4, 4)],
    "COFOREST": [(1, 1, 0, 0), (2, 2, 0, 0), (3, 3, 1, 1), (4, 6, 2, 2), (5, 10, 1, 1), (6, 20, 1, 1)],
    "UNIVERSAL_LE_3_2": [(1, 1, 0, 0), (2, 1, 0, 0), (3, 2, 1, 1), (4, 4, 1, 1), (5, 11, 2, 2), (6, 34, 2, 2)],
}


@pytest.mark.parametrize("tid", THEOREM_IDS)
def test_verify_theorem_to_6(tid):
    report = verify_theorem(tid, 6)
    assert report.verified
    assert report.theorem == tid and report.n_max == 6
    assert [(p.n, p.class_size, p.mintough_found, p.family_predicted) for p in report.per_n] == _PER_N_6[tid]
    assert report.discrepancies == ()
    assert report.condition_discrepancies == ()


def test_theorem_id_normalization():
    assert verify_theorem("p4free", 3).theorem == "P4FREE"
    assert verify_theorem(" cochordal-ge3 ", 3).theorem == "COCHORDAL_GE3"
    with pytest.raises(ValueError):
        verify_theorem("NOSUCH", 3)
    with pytest.raises(ValueError):
        verify_theorem("P4FREE", 0)


def test_theorem_report_logic():
    clean = TheoremReport("X", 2, (PerNCounts(1, 1, 0, 0),), ())
    assert clean.verified
    bad = TheoremReport("X", 2, (), ("Bw",))
    assert not bad.verified
    routes = TheoremReport("X", 2, (), (), ("Bw",))
    assert not routes.verified
    blob = bad.to_json()
    assert blob["verified"] is False and blob["discrepancies"] == ["Bw"]
    assert "DISCREPANCIES" in bad.render() and "Bw" in bad.render()
    assert "VERIFIED" in clean.render()
    assert clean.to_json()["per_n"] == [
        {"n": 1, "class_size": 1, "mintough_found": 0, "family_predicted": 0}
    ]


# -- value tables -----------------------------------------------------------------


def test_verify_table1():
    report = verify_table1(3)
    assert report.verified and len(report.rows) == 13
    assert report.rows[0] == ValueRow("path:4", Fraction(1, 2), Fraction(1, 2))
    assert report.rows[1].label == "multipartite:2,3"
    assert report.rows[1].expected == Fraction(2, 3)
    by_label = {row.label: row for row in report.rows}
    assert by_label["star:3"].computed == Fraction(1, 3)
    assert by_label["doublestar:2,3"].computed == Fraction(1, 4)
    assert by_label["turan:6,3"].computed == Fraction(2)
    assert by_label["turan:5,3"].computed == Fraction(3, 2)
    assert "VERIFIED" in report.render()
    with pytest.raises(ValueError):
        verify_table1(1)
    # doublestar:l,l has 2l + 2 vertices, so l = 15 is the largest that fits
    assert make_named(FamilySpec(Family.DOUBLE_STAR, (15, 15))).n == MAX_VERTICES
    with pytest.raises(ValueError, match=r"l_max must be in 2\.\.15"):
        verify_table1(TABLE1_L_MAX + 1)


def test_verify_wheels():
    report = verify_wheels(7)
    assert report.verified
    assert [(r.label, r.expected, r.computed, r.minimally_tough) for r in report.rows] == [
        ("wheel:5", Fraction(3, 2), Fraction(3, 2), True),
        ("wheel:6", Fraction(4, 3), Fraction(4, 3), True),
        ("wheel:7", Fraction(4, 3), Fraction(4, 3), True),
    ]
    assert "mintough" in report.render()
    with pytest.raises(ValueError):
        verify_wheels(4)
    # wheel:l has l + 1 vertices, so l = 31 is the largest that fits
    assert make_named(FamilySpec(Family.WHEEL, (31,))).n == MAX_VERTICES
    with pytest.raises(ValueError, match=r"l_max must be in 5\.\.31"):
        verify_wheels(WHEELS_L_MAX + 1)


def test_census_record_is_the_enumerated_graph():
    import toughlab.verify as verify

    for n in range(7):
        graphs = list(enumerate_graphs(n))
        codes = verify._members("all", n)
        assert len(codes) == len(graphs)
        for code, g in zip(codes, graphs):
            assert write_graph6(g).encode() == code
            assert verify._graph_of(code) is g


def test_value_row_ok_logic():
    assert ValueRow("x", Fraction(1), Fraction(1)).ok
    assert not ValueRow("x", Fraction(1), Fraction(2)).ok
    assert not ValueRow("x", Fraction(1), Fraction(1), minimally_tough=False).ok
    assert ValueRow("x", Fraction(1), Fraction(1), minimally_tough=True).ok
    report = ValueReport("t", (ValueRow("x", Fraction(1), Fraction(2)),))
    assert not report.verified
    assert report.to_json()["rows"][0]["ok"] is False
    assert "FAIL" in report.render()


# -- family identification -----------------------------------------------------------


_ALL_SPECS_TO_9 = (
    [f"path:{n}" for n in range(1, 10)]
    + [f"cycle:{n}" for n in range(3, 10)]
    + [f"complete:{n}" for n in range(0, 10)]
    + [f"star:{l}" for l in range(1, 9)]
    + [f"doublestar:{k},{l}" for k in range(1, 8) for l in range(k, 8) if k + l + 2 <= 9]
    + [
        f"triplestar:{a},{b},{c}"
        for a in range(1, 7)
        for b in range(a, 7)
        for c in range(b, 7)
        if a + b + c + 3 <= 9
    ]
    + [f"turan:{n},{k}" for n in range(1, 10) for k in range(1, n + 1)]
    + ["net", "conet"]
    + [f"wheel:{l}" for l in range(4, 9)]
)


def _partitions(total, smallest=1):
    if total == 0:
        yield ()
        return
    for first in range(smallest, total + 1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


@pytest.mark.parametrize("text", _ALL_SPECS_TO_9)
def test_identify_family_round_trip(text):
    g = make_named(parse_family_spec(text))
    if g.n == 0:
        return  # identification starts at one vertex
    spec = identify_family(g)
    assert spec is not None
    assert canonical_code(make_named(spec)) == canonical_code(g)


def test_identify_family_multipartite_round_trip():
    for total in range(1, 10):
        for parts in _partitions(total):
            spec = FamilySpec(Family.COMPLETE_MULTIPARTITE, parts)
            g = make_named(spec)
            found = identify_family(g)
            assert found is not None
            assert canonical_code(make_named(found)) == canonical_code(g)


def test_identify_family_precedence_pins():
    def ident(text):
        return identify_family(make_named(parse_family_spec(text)))

    assert ident("path:3") == FamilySpec(Family.STAR, (2,))
    assert ident("turan:3,2") == FamilySpec(Family.STAR, (2,))
    assert ident("cycle:4") == FamilySpec(Family.TURAN, (4, 2))
    assert ident("complete:3") == FamilySpec(Family.TURAN, (3, 3))
    assert ident("complete:1") == FamilySpec(Family.TURAN, (1, 1))
    assert ident("net") == FamilySpec(Family.TRIPLE_STAR, (1, 1, 1))
    assert ident("doublestar:1,1") == FamilySpec(Family.PATH, (4,))
    assert ident("wheel:4") == FamilySpec(Family.TURAN, (5, 3))
    assert ident("wheel:5") == FamilySpec(Family.WHEEL, (5,))
    assert ident("conet") == FamilySpec(Family.CO_NET)


def test_identify_family_none_for_unnamed_graphs():
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert identify_family(paw) is None
    bull = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
    assert identify_family(bull) is None


# -- degree-ceiling scans ---------------------------------------------------------------


def test_kriesell_filters_frozen():
    assert KRIESELL_CLASS_FILTERS == (
        "p4-free",
        "complete-multipartite",
        "cochordal-ge3",
        "netfree-cochordal",
        "co-forest",
        "all",
    )


def test_kriesell_scan_p4_free():
    report = kriesell_scan("p4-free", 6)
    assert report.assertive and report.verified
    assert report.scanned_per_n == ((1, 0), (2, 0), (3, 1), (4, 2), (5, 3), (6, 2))
    assert report.counterexamples == ()
    assert "asserted" in report.render()


def test_kriesell_scan_all():
    report = kriesell_scan("all", 6)
    assert not report.assertive and report.verified
    assert report.scanned_per_n == ((1, 0), (2, 0), (3, 1), (4, 3), (5, 6), (6, 13))
    assert "report only" in report.render()
    blob = report.to_json()
    assert blob["assertive"] is False
    assert blob["scanned_per_n"][5] == {"n": 6, "mintough": 13}


def test_kriesell_scan_rejects():
    with pytest.raises(ValueError):
        kriesell_scan("nosuch", 5)
    with pytest.raises(ValueError):
        kriesell_scan("all", 0)


def test_kriesell_report_logic():
    bad = KriesellReport("all", 5, False, ((5, 1),), ("D?{",))
    assert not bad.verified
    assert "COUNTEREXAMPLES" in bad.render()
    assert bad.to_json()["verified"] is False


# -- conjecture probe ---------------------------------------------------------------------


def test_probe_empty_to_5():
    report = probe_conjecture_cochordal_diam2(5)
    assert report.scanned_per_n == ((1, 0), (2, 0), (3, 1), (4, 3), (5, 9))
    assert report.hits == ()
    assert report.all_triple_star  # vacuously
    assert report.max_toughness is None
    assert report.to_json()["max_toughness"] is None


def test_probe_first_hit_is_the_net():
    report = probe_conjecture_cochordal_diam2(6)
    assert report.scanned_per_n[-1] == (6, 27)
    assert len(report.hits) == 1
    hit = report.hits[0]
    assert hit.toughness == Fraction(1, 2)
    assert hit.triple_star_size == 1
    g = parse_graph6(hit.graph6)
    net = make_named(parse_family_spec("net"))
    assert ref_are_isomorphic(g.n, g.edges(), net.n, net.edges())
    assert report.all_triple_star
    assert report.max_toughness == Fraction(1, 2)
    assert "triplestar:1,1,1" in report.render()


def test_probe_rejects():
    with pytest.raises(ValueError):
        probe_conjecture_cochordal_diam2(0)
    with pytest.raises(ValueError):
        probe_conjecture_cochordal_diam2(10)


def test_probe_report_logic():
    odd = ProbeReport(6, ((6, 1),), (ProbeHit("E@UW", Fraction(1, 2), None),))
    assert not odd.all_triple_star
    assert "NOT a balanced triple star" in odd.render()
    assert odd.to_json()["all_triple_star"] is False


# -- co-diameter exclusions --------------------------------------------------------------


def test_codiam_exclusions_to_6():
    report = verify_codiam_exclusions(6)
    assert report.verified
    assert report.ge4_scanned == 8
    assert report.diam3_scanned == 28
    assert report.ge4_violations == () and report.diam3_discrepancies == ()
    assert "VERIFIED" in report.render()
    blob = report.to_json()
    assert blob["ge4_scanned"] == 8 and blob["diam3_scanned"] == 28
    with pytest.raises(ValueError):
        verify_codiam_exclusions(0)


def test_codiam_report_logic():
    bad = CoDiamExclusionReport(5, 1, ("D?{",), 2, ())
    assert not bad.verified
    assert "co-diameter >= 4" in bad.render()
