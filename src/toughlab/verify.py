"""Exhaustive verification harness over the small-graph census.

Each classification result we care about has the same shape: within some
recognizable class of graphs, the non-trivially minimally tough members are
exactly a short list of named families.  One table, ``_CLASSES``, names each
classified class once, keyed by its degree-ceiling (Kriesell) filter, with
its theorem id, its membership test by code and its predicted families, a
rule table naming which members of which families it admits; the theorem
ids and the Kriesell filters derive from it.  Each class keeps one
cached member list per order, filtered once from the census, and the
theorem, Kriesell and co-diameter scans all iterate those lists.  A report
carries per-order counts plus the graph6 strings of any graph where the
computed verdict and the predicted family codes disagree.

Everything is driven off canonical codes, kept as graph6 text, so that
reports are byte-identical across runs and print the code itself.  The
census keeps one graph per class, in the order of canon's sorted codes,
and a code's record is found by bisecting them.  Membership in every
classified class comes from one table of six flag bits per order (P4-free,
co-chordal, net-free co-chordal, co-forest, complete multipartite, has a
universal vertex), each record's flags from its canonical parent's plus
one test anchored at its last vertex (``_flags``); only the co-diameter of
COCHORDAL_GE3 is read per record.
The minimal-toughness verdicts come from one table per order, filled
parent by parent as codes are asked for, each parent's children the lanes
of one flood (``_verdicts``); a code's verdict is found by bisecting, as
its record is.
Toughness and co-diameter are memoized per code and shared by all scans.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .canon import canonical_code, census_codes, census_parents, enumerate_graphs
from .classes import (
    complete_multipartite_parts,
    has_co_cycle_through,
    has_co_hole_through,
    has_co_p3_through,
    has_net_through,
    has_p4_through,
)
from .classes import (  # read by perfbench/traced.py
    is_co_chordal,
    is_complement_of_forest,
    is_complete_multipartite,
    is_net_free,
    is_p4_free,
)
from .connectivity import _component_masks, co_diameter
from .families import Family, FamilySpec, make_named
from .graph6 import parse_graph6, write_graph6  # read by perfbench/traced.py
from .graphs import MAX_VERTICES, Graph
from .mintough import CrossCheckError, _criterion_holds, is_nontrivially_minimally_tough
from .mintough import universal_vertices  # read by perfbench/traced.py
from .toughness import Toughness, _Siblings, format_toughness, toughness

DEFAULT_N_MAX = 8
#: the largest l whose families fit in MAX_VERTICES vertices: doublestar:l,l
#: has 2l + 2 of them, wheel:l has l + 1
TABLE1_L_MAX = (MAX_VERTICES - 2) // 2
WHEELS_L_MAX = MAX_VERTICES - 1
#: the largest order the co-diameter-2 probe scans
PROBE_N_MAX = 9


# -- memoized per-code facts --------------------------------------------------


@lru_cache(maxsize=None)
def _census(n: int) -> tuple[Graph, ...]:
    return tuple(enumerate_graphs(n))  # in census_codes(n) order


#: the class flags of a census record, one bit per class
_P4_FREE, _CO_CHORDAL, _NET_FREE_CO_CHORDAL, _CO_FOREST = 1, 2, 4, 8
_COMPLETE_MULTIPARTITE, _HAS_UNIVERSAL = 16, 32


@lru_cache(maxsize=None)
def _flags(n: int) -> bytes:
    """The class flags of the census records on n vertices, in census order.

    Each record minus its last vertex v = n - 1 is its canonical parent P
    (see ``canon``).  The first five classes are hereditary, so a record is
    in one iff its parent is and no forbidden structure passes through v
    (one that misses v lies in the parent).  The null graph is in each.

    - P4-free: no induced P_4 through v.
    - co-chordal: no hole through v in the complement.
    - net-free co-chordal: the record is co-chordal and has no induced net
      through v.  A co-chordal record has a co-chordal parent, which is then
      net-free iff it is net-free co-chordal.
    - co-forest: no cycle through v in the complement.
    - complete multipartite: no induced K1+K2 through v.
    - has a universal vertex: v is universal, since a minimal labelling
      puts a universal vertex last.  Were u universal at position i < v,
      moving u last would keep the columns before i.  Column i, u's, is all
      ones, so the moved labelling's column i, no larger, must equal it: the
      vertex after u is adjacent to all before it, u too, so its column is
      all ones as well; and so on up to v.
    """
    if n == 0:
        return bytes([_P4_FREE | _CO_CHORDAL | _NET_FREE_CO_CHORDAL | _CO_FOREST
                      | _COMPLETE_MULTIPARTITE])
    up = _flags(n - 1)
    v = n - 1
    out = bytearray()
    for g, parent in zip(_census(n), census_parents(n)):
        have, flags = up[parent], 0
        if have & _P4_FREE and not has_p4_through(g, v):
            flags |= _P4_FREE
        if have & _CO_CHORDAL and not has_co_hole_through(g, v):
            flags |= _CO_CHORDAL
            if have & _NET_FREE_CO_CHORDAL and not has_net_through(g, v):
                flags |= _NET_FREE_CO_CHORDAL
        if have & _CO_FOREST and not has_co_cycle_through(g, v):
            flags |= _CO_FOREST
        if have & _COMPLETE_MULTIPARTITE and not has_co_p3_through(g, v):
            flags |= _COMPLETE_MULTIPARTITE
        if g.adj[v] == (1 << v) - 1:
            flags |= _HAS_UNIVERSAL
        out.append(flags)
    return bytes(out)


#: a census record's verdict before its parent's lanes are flooded
_UNDECIDED = 2


@lru_cache(maxsize=None)
def _verdicts(n: int) -> tuple[bytearray, dict[int, array]]:
    """Whether each census record on n vertices is non-trivially minimally
    tough, in census order, and the records the table leaves undecided, by
    canonical parent.

    Complete, edgeless and disconnected records are not: a record is
    connected iff its last vertex meets every component of its parent.  The
    rest are _UNDECIDED until a code among them is asked for (``_mintough``).
    Then all children of its parent are decided at once: they are the lanes
    of one flood (``toughness._Siblings``), and each lane's verdict is the
    boolean decider's criterion read from its lane.  A scan of one class
    thus floods only its members' parents, and a parent's lanes are dropped
    once its children are decided.
    """
    table = bytearray(len(_census(n)))
    undecided: dict[int, array] = {}
    up = _census(n - 1)
    parts = [_component_masks(p.adj, p.full_mask) for p in up]
    full = (1 << n - 1) - 1
    for i, (g, parent) in enumerate(zip(_census(n), census_parents(n))):
        mask = g.adj[-1]
        if mask == full and up[parent].is_complete():
            continue
        for part in parts[parent]:
            if not part & mask:
                break
        else:
            table[i] = _UNDECIDED
            undecided.setdefault(parent, array("I")).append(i)
    return table, undecided


def _record(code: str) -> tuple[int, int]:
    """(n, index) of the census record of code."""
    n = ord(code[0]) - 63
    return n, bisect_left(census_codes(n), code)


@lru_cache(maxsize=None)
def _graph_of(code: str) -> Graph:
    n, i = _record(code)
    return _census(n)[i]


@lru_cache(maxsize=None)
def _tau_of(code: str) -> Toughness:
    return toughness(_graph_of(code))


@lru_cache(maxsize=None)
def _mintough(code: str) -> bool:
    n, i = _record(code)
    table, undecided = _verdicts(n)
    if table[i] == _UNDECIDED:
        parent, records = census_parents(n)[i], _census(n)
        kids = undecided.pop(parent)
        siblings = _Siblings(_census(n - 1)[parent], [records[k] for k in kids])
        for lane, k in enumerate(kids):
            table[k] = _criterion_holds(records[k], siblings.lane(lane))
    return bool(table[i])


@lru_cache(maxsize=None)
def _is_cochordal(code: str) -> bool:
    n, i = _record(code)
    return bool(_flags(n)[i] & _CO_CHORDAL)


@lru_cache(maxsize=None)
def _codiam_of(code: str) -> int | float:
    return co_diameter(_graph_of(code))


@lru_cache(maxsize=None)
def _spec_code(spec: FamilySpec) -> str:
    return canonical_code(make_named(spec))


# -- family identification -----------------------------------------------------


def _partitions(n: int, smallest: int = 1) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(smallest, n + 1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _family_candidates(n: int) -> Iterator[FamilySpec]:
    # Precedence for overlapping families: star, K_{2,3}, P_4, double star,
    # triple star, Turan, wheel, then the remaining constructors.  E.g. the
    # Turan graph on 3 vertices with 2 parts is a star and tags as one.
    if n >= 2:
        yield FamilySpec(Family.STAR, (n - 1,))
    if n == 5:
        yield FamilySpec(Family.COMPLETE_MULTIPARTITE, (2, 3))
    if n == 4:
        yield FamilySpec(Family.PATH, (4,))
    for k in range(1, (n - 2) // 2 + 1):
        yield FamilySpec(Family.DOUBLE_STAR, (k, n - 2 - k))
    centres = n - 3
    for a in range(1, centres // 3 + 1):
        for b in range(a, (centres - a) // 2 + 1):
            yield FamilySpec(Family.TRIPLE_STAR, (a, b, centres - a - b))
    for k in range(1, n + 1):
        yield FamilySpec(Family.TURAN, (n, k))
    if n >= 5:
        yield FamilySpec(Family.WHEEL, (n - 1,))
    if n == 6:
        yield FamilySpec(Family.NET)
        yield FamilySpec(Family.CO_NET)
    if n >= 1:
        yield FamilySpec(Family.PATH, (n,))
    if n >= 3:
        yield FamilySpec(Family.CYCLE, (n,))
    yield FamilySpec(Family.COMPLETE, (n,))
    if n >= 1:
        for parts in _partitions(n):
            yield FamilySpec(Family.COMPLETE_MULTIPARTITE, parts)


def identify_family(g: Graph) -> FamilySpec | None:
    """Match a graph against every named family of its order.

    Returns:
        The first family spec (fixed precedence order) whose construction is
        isomorphic to g, or None when no family matches.
    """
    code = canonical_code(g)
    for spec in _family_candidates(g.n):
        if _spec_code(spec) == code:
            return spec
    return None


# -- the classified classes ----------------------------------------------------


#: the named graphs a classification predicts: each family it lists maps to
#: the test that family's parameters must pass
_Rules = dict[Family, Callable[..., bool]]
_BALANCED_TURAN = lambda n, k: n >= 3 and k == (n + 1) // 2
_DOUBLE_STARS: _Rules = {Family.DOUBLE_STAR: lambda k, l: True}
_BALANCED_TRIPLE_STARS: _Rules = {Family.TRIPLE_STAR: lambda a, b, c: a == b == c}
#: stars with at least 2 leaves, K_{2,3}, and the two balanced Turan shapes
_BASE: _Rules = {Family.STAR: lambda l: l >= 2, Family.TURAN: _BALANCED_TURAN,
                 Family.COMPLETE_MULTIPARTITE: lambda *parts: parts == (2, 3)}
_COCHORDAL: _Rules = {**_BASE, Family.PATH: lambda n: n == 4, **_DOUBLE_STARS}
_COFOREST: _Rules = {Family.PATH: lambda n: n == 4, Family.TURAN: _BALANCED_TURAN}
_UNIVERSAL: _Rules = {Family.STAR: lambda l: l >= 2, Family.WHEEL: lambda l: True}


def _predicted(rules: _Rules, n: int) -> frozenset[str]:
    """The codes of the named graphs on n vertices that rules admit."""
    return frozenset(
        _spec_code(spec) for spec in _family_candidates(n)
        if spec.family in rules and rules[spec.family](*spec.params)
    )


def _condition3(code: str) -> bool:
    """Multipartite-inequality route to minimal toughness.

    Holds when the graph is complete multipartite with k >= 2 ascending
    parts, the largest part has at least 2 vertices (the graph is not
    complete), and n - n_2 < 2n/n_k - 1 with exact arithmetic.
    """
    g = _graph_of(code)
    parts = complete_multipartite_parts(g)
    if parts is None:
        return False
    sizes = parts.sizes
    if len(sizes) < 2 or sizes[-1] < 2:
        return False
    return g.n - sizes[1] < Fraction(2 * g.n, sizes[-1]) - 1


class _Class(NamedTuple):
    theorem: str
    #: membership by code and the code's census flags (see ``_flags``)
    member: Callable[[str, int], bool]
    predicted: _Rules
    #: False when the class has no degree-ceiling (Kriesell) filter
    kriesell: bool = True
    #: only members with t <= tau_cap count as found
    tau_cap: Fraction | None = None
    #: a third route to the verdict that must agree with both sides
    route: Callable[[str], bool] | None = None


#: every classified class, keyed by its degree-ceiling filter name ("universal"
#: has no such filter)
_CLASSES: dict[str, _Class] = {
    "p4-free": _Class("P4FREE", lambda c, f: f & _P4_FREE, _BASE, route=_condition3),
    "complete-multipartite": _Class("MULTIPARTITE", lambda c, f: f & _COMPLETE_MULTIPARTITE, _BASE),
    "cochordal-ge3": _Class(
        "COCHORDAL_GE3", lambda c, f: f & _CO_CHORDAL and _codiam_of(c) >= 3, _COCHORDAL
    ),
    "netfree-cochordal": _Class("NETFREE_COCHORDAL", lambda c, f: f & _NET_FREE_CO_CHORDAL,
                                _COCHORDAL),
    "co-forest": _Class("COFOREST", lambda c, f: f & _CO_FOREST, _COFOREST),
    "universal": _Class(
        "UNIVERSAL_LE_3_2", lambda c, f: f & _HAS_UNIVERSAL, _UNIVERSAL,
        kriesell=False, tau_cap=Fraction(3, 2),
    ),
}

_CLASS_OF_THEOREM = {klass.theorem: key for key, klass in _CLASSES.items()}
THEOREM_IDS = tuple(_CLASS_OF_THEOREM)
#: the classes where the degree-ceiling claim is proven, then the whole census
KRIESELL_CLASS_FILTERS = tuple(key for key, klass in _CLASSES.items() if klass.kriesell) + ("all",)


@lru_cache(maxsize=None)
def _members(klass: str, n: int) -> tuple[str, ...]:
    """The census codes on n vertices in a class of _CLASSES, or all for "all"."""
    _census(n)  # the records before canon's codes: perfbench/traced.py times this draw
    if klass == "all":
        return census_codes(n)
    member = _CLASSES[klass].member
    return tuple(code for code, flags in zip(census_codes(n), _flags(n)) if member(code, flags))


def _orders(klass: str, n_max: int) -> Iterator[tuple[int, tuple[str, ...]]]:
    """(n, members of klass on n vertices) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for n in range(1, n_max + 1):
        yield n, _members(klass, n)


# -- reports -------------------------------------------------------------------


class Report(NamedTuple):
    """One scan's result: its JSON fields in output order and its table lines.

    A scan that only reports evidence is not ``assertive``: a failed check
    in it does not fail the run.
    """

    fields: dict
    lines: list[str]
    assertive: bool = True

    @property
    def verified(self) -> bool:
        return self.fields.get("verified", True)

    def to_json(self) -> dict:
        return self.fields

    def render(self) -> str:
        return "\n".join(self.lines)


def _flagged(table: list[tuple[str, list[str]]]) -> list[str]:
    """One table line per flagged graph6, from (reason, codes) pairs."""
    return [f"  {reason}: {g6}" for reason, codes in table for g6 in codes]


# -- theorem harness ----------------------------------------------------------


def verify_theorem(theorem_id: str, n_max: int = DEFAULT_N_MAX) -> Report:
    """Check one classification statement exhaustively up to n_max vertices.

    Args:
        theorem_id: one of THEOREM_IDS (case/dash insensitive).
        n_max: largest vertex count to enumerate.

    Returns:
        A Report, verified when every in-class graph is non-trivially
        minimally tough exactly when its canonical code is in the predicted
        family set (and, for P4FREE, the multipartite inequality route
        agrees as well).
    """
    tid = theorem_id.strip().upper().replace("-", "_")
    if tid not in _CLASS_OF_THEOREM:
        raise ValueError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    key = _CLASS_OF_THEOREM[tid]
    klass = _CLASSES[key]
    per_n: list[dict] = []
    #: graphs where the computed verdict and the family list disagree
    discrepancies: list[str] = []
    #: graphs where the three equivalent routes disagree (P4FREE only)
    routes: list[str] = []
    for n, members in _orders(key, n_max):
        predicted = _predicted(klass.predicted, n)
        found_count = 0
        for code in members:
            found = _mintough(code) and (klass.tau_cap is None or _tau_of(code) <= klass.tau_cap)
            found_count += found
            pred = code in predicted
            if found != pred:
                discrepancies.append(code)
            if klass.route is not None and not (found == pred == klass.route(code)):
                routes.append(code)
        # a predicted family member that escapes its own class is also a bug
        discrepancies.extend(sorted(predicted.difference(members)))
        per_n.append({"n": n, "class_size": len(members), "mintough_found": found_count,
                      "family_predicted": len(predicted)})
    verified = not discrepancies and not routes
    lines = [f"theorem {tid}, n <= {n_max}: {'VERIFIED' if verified else 'DISCREPANCIES FOUND'}",
             "  n    class  mintough  predicted"]
    lines += [f"  {row['n']:<3} {row['class_size']:>6} {row['mintough_found']:>9}"
              f" {row['family_predicted']:>10}" for row in per_n]
    lines += _flagged([("!! family-list mismatch", discrepancies),
                       ("!! route disagreement", routes)])
    return Report({"theorem": tid, "n_max": n_max, "per_n": per_n, "discrepancies": discrepancies,
                   "condition_discrepancies": routes, "verified": verified}, lines)


# -- closed-form value tables ---------------------------------------------------


def _value_report(title: str, rows: list[tuple[str, Fraction, Toughness, bool | None]]) -> Report:
    """A table of (label, expected, computed toughness, minimally tough or
    None when not asked); a row is ok when the values are equal and the
    graph is not found to be not minimally tough."""
    width = max((len(label) for label, *_ in rows), default=0)
    out: list[dict] = []
    lines: list[str] = []
    for label, expected, computed, mintough in rows:
        ok = computed == expected and mintough is not False
        out.append({"graph": label, "expected": format_toughness(expected),
                    "computed": format_toughness(computed), "minimally_tough": mintough, "ok": ok})
        extra = "" if mintough is None else "  mintough" if mintough else "  NOT-mintough"
        lines.append(f"  {label:<{width}}  tau = {format_toughness(computed):>5}"
                     f"  expected {format_toughness(expected):>5}{extra}  [{'ok' if ok else 'FAIL'}]")
    verified = all(row["ok"] for row in out)
    head = f"{title}: {'VERIFIED' if verified else 'MISMATCH'}"
    return Report({"title": title, "rows": out, "verified": verified}, [head] + lines)


def verify_table1(l_max: int) -> Report:
    """Recompute the closed-form toughness values of the named families.

    For every l in [2, l_max] and every k in [1, l] the brute-force value
    must equal the closed form exactly: paths/double stars/stars with
    1/2, 1/(l+1), 1/l, the two balanced Turan shapes with l-1 and l-3/2,
    and 2/3 for K_{2,3}.
    """
    if not 2 <= l_max <= TABLE1_L_MAX:
        raise ValueError(f"l_max must be in 2..{TABLE1_L_MAX}")
    specs = [(FamilySpec(Family.PATH, (4,)), Fraction(1, 2)),
             (FamilySpec(Family.COMPLETE_MULTIPARTITE, (2, 3)), Fraction(2, 3))]
    for l in range(2, l_max + 1):
        specs += [(FamilySpec(Family.DOUBLE_STAR, (k, l)), Fraction(1, l + 1)) for k in range(1, l + 1)]
        specs += [(FamilySpec(Family.STAR, (l,)), Fraction(1, l)),
                  (FamilySpec(Family.TURAN, (2 * l, l)), Fraction(l - 1)),
                  (FamilySpec(Family.TURAN, (2 * l - 1, l)), Fraction(2 * l - 3, 2))]
    rows = [(str(spec), expected, toughness(make_named(spec)), None) for spec, expected in specs]
    return _value_report(f"toughness value table, l <= {l_max}", rows)


def verify_wheels(l_max: int) -> Report:
    """Wheels (hub joined to a rim cycle of length l) for 5 <= l <= l_max.

    Each wheel must be non-trivially minimally tough with toughness exactly
    1 + 2/(l-1) for odd rim length and 1 + 2/l for even rim length.
    """
    if not 5 <= l_max <= WHEELS_L_MAX:
        raise ValueError(f"l_max must be in 5..{WHEELS_L_MAX}")
    rows = []
    for l in range(5, l_max + 1):
        expected = 1 + (Fraction(2, l - 1) if l % 2 else Fraction(2, l))
        g = make_named(FamilySpec(Family.WHEEL, (l,)))
        rows.append((f"wheel:{l}", expected, toughness(g), is_nontrivially_minimally_tough(g)))
    return _value_report(f"wheel toughness, 5 <= l <= {l_max}", rows)


# -- degree-ceiling (Kriesell) scans ----------------------------------------------


def kriesell_scan(class_filter: str = "all", n_max: int = DEFAULT_N_MAX) -> Report:
    """Check that minimally tough graphs have a vertex of degree ceil(2t).

    Args:
        class_filter: one of p4-free, complete-multipartite, cochordal-ge3,
            netfree-cochordal, co-forest, where the degree claim is proven
            and asserted, or "all" for the unrestricted sweep, which only
            reports evidence.
        n_max: largest vertex count to enumerate.
    """
    key = class_filter.strip().lower()
    if key not in KRIESELL_CLASS_FILTERS:
        raise ValueError(
            f"unknown class filter {class_filter!r}; known: {', '.join(KRIESELL_CLASS_FILTERS)}"
        )
    scanned: list[dict] = []
    bad: list[str] = []
    for n, members in _orders(key, n_max):
        count = 0
        for code in members:
            if not _mintough(code):
                continue
            count += 1
            if math.ceil(2 * _tau_of(code)) not in _graph_of(code).degrees():
                bad.append(code)
        scanned.append({"n": n, "mintough": count})
    assertive = key != "all"
    head = "all have a degree-ceiling vertex" if not bad else "COUNTEREXAMPLES"
    lines = [f"degree-ceiling scan [{key}], n <= {n_max} "
             f"({'asserted' if assertive else 'report only'}): "
             f"{sum(row['mintough'] for row in scanned)} minimally tough graphs, {head}"]
    lines += [f"  n={row['n']}: {row['mintough']}" for row in scanned]
    lines += _flagged([("** no vertex of degree ceil(2t)", bad)])
    return Report({"class": key, "n_max": n_max, "assertive": assertive, "scanned_per_n": scanned,
                   "counterexamples": bad, "verified": not bad}, lines, assertive)


# -- conjecture probe -------------------------------------------------------------


def probe_conjecture_cochordal_diam2(n_max: int = DEFAULT_N_MAX) -> Report:
    """Report the minimally tough co-chordal graphs of co-diameter exactly 2.

    The conjecture says these are exactly the balanced triple stars; the
    probe never asserts it, it lists every hit and whether it matches (its
    triple_star_size, the leaves per centre, or None).
    """
    if n_max > PROBE_N_MAX:
        raise ValueError(f"probe supports n_max <= {PROBE_N_MAX}")
    hits: list[dict] = []
    scanned: list[dict] = []
    lines = [f"conjecture probe (co-chordal, co-diameter 2), n <= {n_max}"]
    taus: list[Fraction] = []
    for n, codes in _orders("all", n_max):
        balanced = _predicted(_BALANCED_TRIPLE_STARS, n)
        count = 0
        for code in codes:
            if not (_is_cochordal(code) and _codiam_of(code) == 2):
                continue
            count += 1
            if not _mintough(code):
                continue
            size = (n - 3) // 3 if code in balanced else None
            tau = _tau_of(code)
            if not isinstance(tau, Fraction):
                raise CrossCheckError(f"minimally tough {code} has toughness {tau}")
            taus.append(tau)
            hits.append({"graph6": code, "toughness": format_toughness(tau), "triple_star_size": size})
        scanned.append({"n": n, "class_size": count})
        lines.append(f"  n={n}: {count} graphs in class")
    all_triple_star = all(hit["triple_star_size"] is not None for hit in hits)
    top = format_toughness(max(taus)) if taus else None
    lines.append(f"  minimally tough hits: {len(hits)}")
    for hit in hits:
        size = hit["triple_star_size"]
        tag = "** NOT a balanced triple star **" if size is None else f"= triplestar:{size},{size},{size}"
        lines.append(f"    {hit['graph6']}  tau = {hit['toughness']}  {tag}")
    if top is not None:
        lines.append(f"  max toughness among hits: {top}")
    lines.append("  all hits balanced triple stars: " + ("yes" if all_triple_star else "NO"))
    return Report({"n_max": n_max, "scanned_per_n": scanned, "hits": hits,
                   "all_triple_star": all_triple_star, "max_toughness": top}, lines, assertive=False)


# -- co-diameter exclusions --------------------------------------------------------


def verify_codiam_exclusions(n_max: int = DEFAULT_N_MAX) -> Report:
    """Two exclusion checks on co-chordal graphs, exhaustive up to n_max.

    (a) no co-chordal graph with connected complement and co-diameter >= 4
        is minimally tough;
    (b) a co-chordal graph of co-diameter exactly 3 is minimally tough if
        and only if it is a double star.
    """
    ge4_scanned = diam3_scanned = 0
    ge4_bad: list[str] = []
    diam3_bad: list[str] = []
    for n, members in _orders("cochordal-ge3", n_max):
        doublestars = _predicted(_DOUBLE_STARS, n)
        seen: set[str] = set()
        for code in members:
            d = _codiam_of(code)
            if d == 3:
                diam3_scanned += 1
                seen.add(code)
                if _mintough(code) != (code in doublestars):
                    diam3_bad.append(code)
            elif isinstance(d, int) and d >= 4:
                ge4_scanned += 1
                if _mintough(code):
                    ge4_bad.append(code)
        # every double star must sit inside the co-diameter-3 class
        diam3_bad.extend(sorted(doublestars - seen))
    verified = not ge4_bad and not diam3_bad
    lines = [f"co-diameter exclusions, n <= {n_max}: {'VERIFIED' if verified else 'DISCREPANCIES FOUND'}",
             f"  co-chordal, connected complement, co-diameter >= 4: {ge4_scanned} scanned",
             f"  co-chordal, co-diameter 3: {diam3_scanned} scanned"]
    lines += _flagged([("!! minimally tough at co-diameter >= 4", ge4_bad),
                       ("!! co-diameter-3 mismatch", diam3_bad)])
    return Report({"n_max": n_max, "ge4_scanned": ge4_scanned, "ge4_violations": ge4_bad,
                   "diam3_scanned": diam3_scanned, "diam3_discrepancies": diam3_bad,
                   "verified": verified}, lines)
