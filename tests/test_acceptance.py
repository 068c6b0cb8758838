"""Acceptance gate: the ten product-level checks, one test (and one summary
line) each.  Every check is exact — rational arithmetic, zero tolerance — and
the stated runtime budgets are asserted with wall-clock measurements.
"""
import math
import random
import time
from fractions import Fraction

from toughlab.canon import canonical_code, enumerate_graphs
from toughlab.classes import is_chordal, simplicial_pair_decomposition
from toughlab.cli import main
from toughlab.connectivity import (
    distances,
    is_connected,
    local_connectivity,
    max_bipartite_matching,
    uv_extension,
)
from toughlab.families import Family, FamilySpec, make_named, parse_family_spec
from toughlab.graph6 import parse_graph6, write_graph6
from toughlab.graphs import Graph, VertexSet, complement, join
from toughlab.mintough import (
    MinToughStatus,
    cond2_candidates,
    is_minimally_tough_by_criterion,
    is_minimally_tough_by_definition,
    is_nontrivially_minimally_tough,
    universal_vertices,
)
from toughlab.toughness import (
    iterate_separators,
    toughness,
    toughness_complete_multipartite,
)
from toughlab.verify import (
    THEOREM_IDS,
    kriesell_scan,
    probe_conjecture_cochordal_diam2,
    verify_codiam_exclusions,
    verify_table1,
    verify_theorem,
    verify_wheels,
)

from oracles import (
    ref_are_isomorphic,
    ref_automorphism_count,
    ref_labeled_connected_count,
)


def _report(criterion: str, detail: str, seconds: float) -> None:
    print(f"PASS {criterion}: {detail} [{seconds:.2f}s]")


def _partitions(total, smallest=1):
    if total == 0:
        yield ()
        return
    for first in range(smallest, total + 1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def test_criterion_01_toughness_value_table():
    t0 = time.monotonic()
    report = verify_table1(5)
    dt = time.monotonic() - t0
    assert report.verified, report.render()
    assert len(report.to_json()["rows"]) == 28  # P4, K23, and per l: l double stars + 3
    assert dt < 10, f"value table took {dt:.1f}s, budget 10s"
    _report("criterion 1", "closed-form toughness table (l <= 5), 28 exact values", dt)


def test_criterion_02_multipartite_formula():
    t0 = time.monotonic()
    cases = 0
    for total in range(1, 10):
        for parts in _partitions(total):
            g = make_named(FamilySpec(Family.COMPLETE_MULTIPARTITE, parts))
            assert toughness_complete_multipartite(parts) == toughness(g), parts
            cases += 1
    dt = time.monotonic() - t0
    assert cases == 96  # partition numbers p(1) + ... + p(9)
    assert dt < 60, f"multipartite formula sweep took {dt:.1f}s, budget 60s"
    _report("criterion 2", f"complete-multipartite formula on {cases} part-lists (total <= 9)", dt)


def test_criterion_03_complete_bipartite():
    t0 = time.monotonic()
    cases = 0
    for m in range(1, 7):
        for n in range(max(m, 2), 7):
            g = make_named(FamilySpec(Family.COMPLETE_MULTIPARTITE, (m, n)))
            assert toughness(g) == Fraction(m, n), (m, n)
            cases += 1
    _report("criterion 3", f"K(m,n) toughness = m/n on {cases} pairs (n <= 6)", time.monotonic() - t0)


def test_criterion_04_wheels():
    t0 = time.monotonic()
    report = verify_wheels(9)
    assert report.verified, report.render()
    rows = report.to_json()["rows"]
    assert len(rows) == 5
    assert all(row["minimally_tough"] for row in rows)
    expected = {
        "wheel:5": "3/2",
        "wheel:6": "4/3",
        "wheel:7": "4/3",
        "wheel:8": "5/4",
        "wheel:9": "5/4",
    }
    assert {row["graph"]: row["computed"] for row in rows} == expected
    _report("criterion 4", "wheels 5..9 minimally tough with exact values", time.monotonic() - t0)


def test_criterion_05_decider_agreement():
    t0 = time.monotonic()
    classes = 0
    at_7 = 0
    for n in range(1, 8):
        for g in filter(is_connected, enumerate_graphs(n)):
            by_def = is_minimally_tough_by_definition(g)
            by_crit, _ = is_minimally_tough_by_criterion(g)
            assert by_def == by_crit, write_graph6(g)
            classes += 1
            at_7 += n == 7
    dt = time.monotonic() - t0
    assert at_7 == 853
    assert dt < 300, f"decider sweep took {dt:.1f}s, budget 5 min"
    _report("criterion 5", f"definition/criterion verdicts agree on {classes} connected graphs (n <= 7)", dt)


def test_criterion_06a_theorems_to_7():
    t0 = time.monotonic()
    for tid in THEOREM_IDS:
        report = verify_theorem(tid, 7)
        assert report.verified, report.render()
    codiam = verify_codiam_exclusions(7)
    assert codiam.verified, codiam.render()
    dt = time.monotonic() - t0
    assert dt < 300, f"n <= 7 verification took {dt:.1f}s, budget 5 min"
    _report("criterion 6 (n<=7)", "six classifications + co-diameter exclusions, no discrepancies", dt)


def test_criterion_06b_theorems_to_8():
    t0 = time.monotonic()
    mintough_at_8 = {}
    for tid in THEOREM_IDS:
        report = verify_theorem(tid, 8)
        assert report.verified, report.render()
        blob = report.to_json()
        assert blob["discrepancies"] == [] and blob["condition_discrepancies"] == []
        mintough_at_8[tid] = blob["per_n"][-1]["mintough_found"]
    # the P4-free report also certifies pairwise agreement of the three
    # equivalent characterizations (verdict, family list, part-size inequality)
    assert mintough_at_8 == {
        "P4FREE": 2,
        "MULTIPARTITE": 2,
        "COCHORDAL_GE3": 5,
        "NETFREE_COCHORDAL": 5,
        "COFOREST": 1,
        "UNIVERSAL_LE_3_2": 2,
    }
    codiam = verify_codiam_exclusions(8)
    assert codiam.verified, codiam.render()
    assert (codiam.to_json()["ge4_scanned"], codiam.to_json()["diam3_scanned"]) == (449, 944)
    dt = time.monotonic() - t0
    assert dt < 1800, f"n <= 8 verification took {dt:.1f}s, budget 30 min"
    _report("criterion 6 (n<=8)", "six classifications + co-diameter exclusions, no discrepancies", dt)


def test_criterion_07_structural_suites():
    t0 = time.monotonic()
    checked = {name: 0 for name in (
        "menger-sandwich",
        "matching-extension",
        "join-local-connectivity",
        "dominating-edge-equivalence",
        "cond2-vacuity",
        "dominating-edge-kappa",
        "one-universal-vertex",
        "regular-shortcut",
        "regular-chordal-collapse",
        "cochordal-kappa-formula",
        "join-with-k1-biconditional",
    )}

    for n in range(8):
        for g in enumerate_graphs(n):
            degs = g.degrees()
            # kappa(G) is the least separator size, n - 1 when there is none
            sep_masks = [s.bits for s in iterate_separators(g)]
            kappa_g = sep_masks[0].bit_count() if sep_masks else max(n - 1, 0)

            # local connectivity sits between global connectivity and min degree
            for u in range(n):
                for v in range(u + 1, n):
                    k = local_connectivity(g, u, v)
                    assert kappa_g <= k <= min(degs[u], degs[v]), (write_graph6(g), u, v)
                    checked["menger-sandwich"] += 1

            # on a bipartition extension, u-v local connectivity = max matching
            for amask in range(1 << n):
                bmask = g.full_mask ^ amask
                if any(g.adj[x] & amask for x in range(n) if amask >> x & 1):
                    continue
                if any(g.adj[x] & bmask for x in range(n) if bmask >> x & 1):
                    continue
                a, b = VertexSet(amask, n), VertexSet(bmask, n)
                h, u, v = uv_extension(g, a, b)
                assert local_connectivity(h, u, v) == max_bipartite_matching(g, a, b).size
                checked["matching-extension"] += 1

            dominating = []
            if g.edge_count:
                # dominating edges: neighborhood cover <=> every separator
                # meets the edge <=> complement distance >= 3
                co_dist = distances(complement(g))
                for u, v in g.edges():
                    uv = (1 << u) | (1 << v)
                    via_n = (g.adj[u] | g.adj[v]) == g.full_mask
                    via_s = all(mask & uv for mask in sep_masks)
                    via_d = co_dist.distance(u, v) >= 3
                    assert via_n == via_s == via_d, (write_graph6(g), u, v)
                    if via_n:
                        dominating.append((u, v))
                    checked["dominating-edge-equivalence"] += 1

                # a dominating edge admits no separator that splits it
                for u, v in dominating:
                    assert next(iter(cond2_candidates(g, u, v)), None) is None
                    checked["cond2-vacuity"] += 1

            verdict = is_minimally_tough_by_definition(g)
            mintough = verdict.status is not MinToughStatus.NOT_MIN_TOUGH
            t = verdict.toughness

            # in a minimally tough graph, a dominating edge pins kappa to ceil(2t)
            if verdict.status is MinToughStatus.NON_TRIVIALLY_MIN_TOUGH:
                for u, v in dominating:
                    want = math.ceil(2 * t)
                    assert kappa_g == local_connectivity(g, u, v) == want, write_graph6(g)
                    checked["dominating-edge-kappa"] += 1

            # non-complete minimally tough graphs have at most one universal vertex
            if mintough and not g.is_complete():
                assert len(list(universal_vertices(g))) <= 1, write_graph6(g)
                checked["one-universal-vertex"] += 1

            # ceil(2t)-regular non-complete graphs are minimally tough
            applies = (
                n > 0
                and not g.is_complete()
                and len(set(degs)) == 1
                and isinstance(t, Fraction)
                and degs[0] == math.ceil(2 * t)
            )
            if applies:
                assert mintough, write_graph6(g)
                checked["regular-shortcut"] += 1

            # connected regular chordal graphs of positive degree are complete
            if (
                n > 0
                and kappa_g > 0
                and len(set(degs)) == 1
                and degs[0] >= 1
                and is_chordal(g)
            ):
                assert g.is_complete(), write_graph6(g)
                checked["regular-chordal-collapse"] += 1

    # local connectivity across a join equals the smaller endpoint degree
    for n1 in range(1, 7):
        for n2 in range(n1, 8 - n1):
            for g1 in enumerate_graphs(n1):
                for g2 in enumerate_graphs(n2):
                    g = join(g1, g2)
                    degs = g.degrees()
                    for u in range(n1):
                        for v in range(n1, n1 + n2):
                            assert local_connectivity(g, u, v) == min(degs[u], degs[v])
                            checked["join-local-connectivity"] += 1

    # co-chordal graphs of finite co-diameter >= 3: kappa(u,w) = |X| + m + 1
    for n in range(2, 9):
        for g in enumerate_graphs(n):
            dec = simplicial_pair_decomposition(g)
            if dec is None:
                continue
            assert local_connectivity(g, dec.u, dec.w) == len(list(dec.X)) + dec.m + 1
            checked["cochordal-kappa-formula"] += 1
    assert checked["cochordal-kappa-formula"] == 449 + 944  # co-diam >= 4 plus co-diam 3

    # adding a universal vertex is minimally tough iff the old graph is
    # ceil(2t')-regular and the toughness ceiling steps by exactly one
    for n in range(1, 7):
        for gp in enumerate_graphs(n):
            g = join(Graph.complete(1), gp)
            tp = toughness(gp)
            t = toughness(g)
            rhs = (
                isinstance(tp, Fraction)
                and len(set(gp.degrees())) == 1
                and gp.degrees()[0] == math.ceil(2 * tp)
                and isinstance(t, Fraction)
                and math.ceil(2 * t) == math.ceil(2 * tp) + 1
            )
            assert is_nontrivially_minimally_tough(g) == rhs, write_graph6(gp)
            checked["join-with-k1-biconditional"] += 1

    dt = time.monotonic() - t0
    assert all(count > 0 for count in checked.values()), checked
    total = sum(checked.values())
    _report("criterion 7", f"eleven structural suites, {total} cases, no violations", dt)


def test_criterion_08_degree_ceiling_scans():
    t0 = time.monotonic()
    per_class = {
        "p4-free": (0, 0, 1, 2, 3, 2, 2, 2),
        "complete-multipartite": (0, 0, 1, 2, 3, 2, 2, 2),
        "cochordal-ge3": (0, 0, 1, 3, 4, 4, 4, 5),
        "netfree-cochordal": (0, 0, 1, 3, 4, 4, 4, 5),
        "co-forest": (0, 0, 1, 2, 1, 1, 1, 1),
    }
    for klass, scanned in per_class.items():
        report = kriesell_scan(klass, 8)
        assert report.assertive
        assert report.verified, report.render()
        assert tuple(row["mintough"] for row in report.to_json()["scanned_per_n"]) == scanned
    unrestricted = kriesell_scan("all", 8)
    assert not unrestricted.assertive  # report-only: never asserted
    counts = tuple(row["mintough"] for row in unrestricted.to_json()["scanned_per_n"])
    assert counts == (0, 0, 1, 3, 6, 13, 31, 85)
    dt = time.monotonic() - t0
    note = "no counterexample" if unrestricted.verified else "counterexamples reported"
    _report(
        "criterion 8",
        f"degree-ceiling property on five characterized classes (n <= 8); "
        f"unrestricted scan of {sum(counts)} graphs: {note}",
        dt,
    )


def test_criterion_09_conjecture_probe():
    t0 = time.monotonic()
    report = probe_conjecture_cochordal_diam2(8)
    # report-mode: the probe returns hits instead of raising; at this horizon
    # every hit must be a balanced triple star, and the only one is the net
    blob = report.to_json()
    assert blob["all_triple_star"], report.render()
    assert blob["hits"] == [{"graph6": "E@UW", "toughness": "1/2", "triple_star_size": 1}]
    assert blob["max_toughness"] == "1/2"
    net = make_named(parse_family_spec("net"))
    hit = parse_graph6(blob["hits"][0]["graph6"])
    assert ref_are_isomorphic(hit.n, hit.edges(), net.n, net.edges())
    assert is_nontrivially_minimally_tough(net)
    _report(
        "criterion 9",
        "co-chordal co-diameter-2 probe (n <= 8): single hit, the net, minimally tough",
        time.monotonic() - t0,
    )


def test_criterion_10_infrastructure(capsys, tmp_path):
    t0 = time.monotonic()

    rng = random.Random(0xC0FFEE)
    for _ in range(100_000):
        n = rng.randint(0, 10)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.getrandbits(1)
        ]
        g = Graph.from_edges(n, edges)
        assert parse_graph6(write_graph6(g)) == g

    # isomorphism-class counts weighted by orbit size must match the labeled
    # counts: 2^C(n,2) for all graphs, and the standard recurrence for the
    # connected ones
    for n in range(7):
        perms = math.factorial(n)
        labeled = connected_labeled = 0
        connected_classes = {canonical_code(h) for h in filter(is_connected, enumerate_graphs(n))}
        for g in enumerate_graphs(n):
            orbit = perms // ref_automorphism_count(g.n, g.edges())
            labeled += orbit
            if canonical_code(g) in connected_classes:
                connected_labeled += orbit
        assert labeled == 2 ** (n * (n - 1) // 2)
        assert connected_labeled == ref_labeled_connected_count(n)

    # identical bytes from every worker count, and from repeated runs
    path = tmp_path / "all5.g6"
    assert main(["enumerate", "5"]) == 0
    listing = capsys.readouterr().out
    assert main(["enumerate", "5"]) == 0
    assert capsys.readouterr().out == listing
    path.write_text(listing)
    for command in ("tough", "mintough", "classify"):
        outputs = set()
        for jobs in ("1", "3"):
            assert main([command, "--jobs", jobs, str(path)]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1, f"{command} output varies across --jobs"

    dt = time.monotonic() - t0
    _report(
        "criterion 10",
        "graph6 round-trip x100000, labeled-count oracle (n <= 6), --jobs determinism",
        dt,
    )
