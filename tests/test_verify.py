"""Verification harness: theorem scans, value tables, probes, reports."""
import os
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from toughlab.canon import canonical_code, census_codes, enumerate_graphs
from toughlab.classes import (
    find_induced_cycle,
    is_complement_of_forest,
    is_complete_multipartite,
    is_net_free,
    is_p4_free,
)
from toughlab.families import Family, FamilySpec, make_named, parse_family_spec
from toughlab.graph6 import parse_graph6, write_graph6
from toughlab.graphs import MAX_VERTICES, Graph, complement
from toughlab.mintough import (
    MinToughStatus,
    is_minimally_tough_by_criterion,
    is_nontrivially_minimally_tough,
    universal_vertices,
)
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
            assert write_graph6(g) == code
            assert verify._graph_of(code) is g


def test_census_keys_are_canonical_codes():
    # a census key and canonical_code are one code type: graph6 text
    import toughlab.verify as verify

    for n in range(7):
        for code, g in zip(census_codes(n), verify._census(n)):
            assert canonical_code(g) == code
            assert isinstance(canonical_code(g), str)


def test_census_writes_no_code_of_its_own(monkeypatch):
    # the codes come from canon, which wrote each once to sort the records
    import toughlab.verify as verify

    def refuse(*args):
        raise AssertionError("verify wrote a census code")

    monkeypatch.setattr(verify, "write_graph6", refuse)
    verify._census.cache_clear()
    verify._members.cache_clear()
    for n in range(7):
        assert verify._members("all", n) == tuple(write_graph6(g) for g in verify._census(n))


@lru_cache(maxsize=1)  # both co-chordal flags ask it of one record in turn
def _co_chordal(g: Graph) -> bool:
    """No induced cycle of length >= 4 in the complement, by the
    induced-subgraph search: is_co_chordal runs the flag's own hole test."""
    return find_induced_cycle(complement(g), 4) is None


#: each class flag and the whole-graph recognizers it stands for
_FLAG_TESTS = {
    "p4-free": (1, is_p4_free),
    "co-chordal": (2, _co_chordal),
    "net-free co-chordal": (4, lambda g: _co_chordal(g) and is_net_free(g)),
    "co-forest": (8, is_complement_of_forest),
    "complete multipartite": (16, is_complete_multipartite),
    "universal vertex": (32, lambda g: bool(universal_vertices(g).bits)),
}


def _flag_counts(n: int) -> dict[str, int]:
    """Members of each flagged class on n vertices, after checking every
    record's flags against the whole-graph recognizers."""
    import toughlab.verify as verify

    counts = dict.fromkeys(_FLAG_TESTS, 0)
    flags = verify._flags(n)
    assert len(flags) == len(verify._census(n))
    for g, have in zip(verify._census(n), flags):
        for name, (bit, member) in _FLAG_TESTS.items():
            want = member(g)
            assert bool(have & bit) == want, (name, write_graph6(g))
            counts[name] += want
    return counts


def test_class_flags_match_the_recognizers():
    import toughlab.verify as verify

    assert (verify._P4_FREE, verify._CO_CHORDAL, verify._NET_FREE_CO_CHORDAL, verify._CO_FOREST,
            verify._COMPLETE_MULTIPARTITE, verify._HAS_UNIVERSAL) \
        == tuple(bit for bit, _ in _FLAG_TESTS.values())
    for n in range(8):
        _flag_counts(n)
    # P4-free: A000084; co-chordal: A048192; co-forest: A005195; complete
    # multipartite: the partitions of 8; a universal vertex: the 1,044
    # graphs on 7 vertices, each joined to it
    assert _flag_counts(8) == {"p4-free": 522, "co-chordal": 2119,
                               "net-free co-chordal": 1992, "co-forest": 76,
                               "complete multipartite": 22, "universal vertex": 1044}


@pytest.mark.skipif(not os.environ.get("TOUGHLAB_SLOW"), reason="set TOUGHLAB_SLOW=1 (n = 9 census)")
def test_class_flags_match_the_recognizers_9():
    counts = _flag_counts(9)
    assert (counts["p4-free"], counts["co-chordal"], counts["co-forest"]) == (1532, 14524, 153)
    assert (counts["complete multipartite"], counts["universal vertex"]) == (30, 12346)


def _verdict_hits(n: int) -> int:
    """The minimally tough records on n vertices, after checking every
    census verdict, decided parent by parent in sibling lanes, against the
    per-graph boolean decider; asking for every code leaves the table
    decided."""
    import toughlab.verify as verify

    hits = 0
    for code, g in zip(census_codes(n), verify._census(n)):
        got = verify._mintough(code)
        assert got == is_nontrivially_minimally_tough(g), code
        hits += got
    table, undecided = verify._verdicts(n)
    assert list(table) == [verify._mintough(code) for code in census_codes(n)] and not undecided
    return hits


def test_census_verdicts_match_the_per_graph_decider():
    assert [_verdict_hits(n) for n in range(1, 9)] == [0, 0, 1, 3, 6, 13, 31, 85]


@pytest.mark.skipif(not os.environ.get("TOUGHLAB_SLOW"), reason="set TOUGHLAB_SLOW=1 (n = 9 census)")
def test_census_verdicts_match_the_per_graph_decider_9():
    assert _verdict_hits(9) == 275


@pytest.mark.skipif(not os.environ.get("TOUGHLAB_SLOW"), reason="set TOUGHLAB_SLOW=1 (n = 9 census)")
def test_census_9_sample_against_the_criterion_decider():
    """A seeded sample of 20,000 classes on 9 vertices: each census verdict,
    decided in sibling lanes by the boolean decider's proof order, against
    the criterion decider, which reads kappa by max-flow on every edge; and
    each census code, appended to its parent's, against write_graph6.
    About 30 s run alone on a 2-vCPU host (27.5 and 31.9 s measured), most
    of it building the n = 9 census and its verdicts; under 10 s after the
    other n = 9 tests have built them."""
    import toughlab.verify as verify

    codes, graphs = census_codes(9), verify._census(9)
    for i in sorted(random.Random(9).sample(range(len(codes)), 20_000)):
        g = graphs[i]
        assert codes[i] == write_graph6(g), i
        verdict, _ = is_minimally_tough_by_criterion(g)
        want = verdict.status is MinToughStatus.NON_TRIVIALLY_MIN_TOUGH
        assert verify._mintough(codes[i]) == want, codes[i]


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
