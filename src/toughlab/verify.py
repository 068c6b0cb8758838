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
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

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


@dataclass(frozen=True)
class _Class:
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


# -- theorem harness ----------------------------------------------------------


@dataclass(frozen=True)
class PerNCounts:
    n: int
    class_size: int
    mintough_found: int
    family_predicted: int


@dataclass(frozen=True)
class TheoremReport:
    theorem: str
    n_max: int
    per_n: tuple[PerNCounts, ...]
    #: graph6 of graphs where the computed verdict and the family list disagree
    discrepancies: tuple[str, ...]
    #: graph6 of graphs where the three equivalent routes disagree (P4FREE only)
    condition_discrepancies: tuple[str, ...] = ()

    @property
    def verified(self) -> bool:
        return not self.discrepancies and not self.condition_discrepancies

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "n_max": self.n_max,
            "per_n": [asdict(row) for row in self.per_n],
            "discrepancies": list(self.discrepancies),
            "condition_discrepancies": list(self.condition_discrepancies),
            "verified": self.verified,
        }

    def render(self) -> str:
        head = "VERIFIED" if self.verified else "DISCREPANCIES FOUND"
        lines = [f"theorem {self.theorem}, n <= {self.n_max}: {head}"]
        lines.append("  n    class  mintough  predicted")
        for row in self.per_n:
            lines.append(
                f"  {row.n:<3} {row.class_size:>6} {row.mintough_found:>9} {row.family_predicted:>10}"
            )
        for g6 in self.discrepancies:
            lines.append(f"  !! family-list mismatch: {g6}")
        for g6 in self.condition_discrepancies:
            lines.append(f"  !! route disagreement: {g6}")
        return "\n".join(lines)


def verify_theorem(theorem_id: str, n_max: int = DEFAULT_N_MAX) -> TheoremReport:
    """Check one classification statement exhaustively up to n_max vertices.

    Args:
        theorem_id: one of THEOREM_IDS (case/dash insensitive).
        n_max: largest vertex count to enumerate.

    Returns:
        TheoremReport; verified is True when every in-class graph is
        non-trivially minimally tough exactly when its canonical code is in
        the predicted family set (and, for P4FREE, the multipartite
        inequality route agrees as well).
    """
    tid = theorem_id.strip().upper().replace("-", "_")
    if tid not in _CLASS_OF_THEOREM:
        raise ValueError(f"unknown theorem id {theorem_id!r}; known: {', '.join(THEOREM_IDS)}")
    key = _CLASS_OF_THEOREM[tid]
    klass = _CLASSES[key]
    per_n: list[PerNCounts] = []
    discrepancies: list[str] = []
    condition_discrepancies: list[str] = []
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
                condition_discrepancies.append(code)
        # a predicted family member that escapes its own class is also a bug
        discrepancies.extend(sorted(predicted.difference(members)))
        per_n.append(PerNCounts(n, len(members), found_count, len(predicted)))
    return TheoremReport(
        tid, n_max, tuple(per_n), tuple(discrepancies), tuple(condition_discrepancies)
    )


# -- closed-form value tables ---------------------------------------------------


@dataclass(frozen=True)
class ValueRow:
    label: str
    expected: Fraction
    computed: Toughness
    minimally_tough: bool | None = None

    @property
    def ok(self) -> bool:
        if self.computed != self.expected:
            return False
        return self.minimally_tough is not False

    def to_json(self) -> dict:
        return {
            "graph": self.label,
            "expected": format_toughness(self.expected),
            "computed": format_toughness(self.computed),
            "minimally_tough": self.minimally_tough,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class ValueReport:
    title: str
    rows: tuple[ValueRow, ...]

    @property
    def verified(self) -> bool:
        return all(row.ok for row in self.rows)

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "rows": [row.to_json() for row in self.rows],
            "verified": self.verified,
        }

    def render(self) -> str:
        head = "VERIFIED" if self.verified else "MISMATCH"
        lines = [f"{self.title}: {head}"]
        width = max((len(row.label) for row in self.rows), default=0)
        for row in self.rows:
            mark = "ok" if row.ok else "FAIL"
            extra = ""
            if row.minimally_tough is not None:
                extra = "  mintough" if row.minimally_tough else "  NOT-mintough"
            lines.append(
                f"  {row.label:<{width}}  tau = {format_toughness(row.computed):>5}"
                f"  expected {format_toughness(row.expected):>5}{extra}  [{mark}]"
            )
        return "\n".join(lines)


def verify_table1(l_max: int) -> ValueReport:
    """Recompute the closed-form toughness values of the named families.

    For every l in [2, l_max] and every k in [1, l] the brute-force value
    must equal the closed form exactly: paths/double stars/stars with
    1/2, 1/(l+1), 1/l, the two balanced Turan shapes with l-1 and l-3/2,
    and 2/3 for K_{2,3}.
    """
    if not 2 <= l_max <= TABLE1_L_MAX:
        raise ValueError(f"l_max must be in 2..{TABLE1_L_MAX}")
    rows: list[ValueRow] = []

    def add(spec: FamilySpec, expected: Fraction) -> None:
        rows.append(ValueRow(str(spec), expected, toughness(make_named(spec))))

    add(FamilySpec(Family.PATH, (4,)), Fraction(1, 2))
    add(FamilySpec(Family.COMPLETE_MULTIPARTITE, (2, 3)), Fraction(2, 3))
    for l in range(2, l_max + 1):
        for k in range(1, l + 1):
            add(FamilySpec(Family.DOUBLE_STAR, (k, l)), Fraction(1, l + 1))
        add(FamilySpec(Family.STAR, (l,)), Fraction(1, l))
        add(FamilySpec(Family.TURAN, (2 * l, l)), Fraction(l - 1))
        add(FamilySpec(Family.TURAN, (2 * l - 1, l)), Fraction(2 * l - 3, 2))
    return ValueReport(f"toughness value table, l <= {l_max}", tuple(rows))


def verify_wheels(l_max: int) -> ValueReport:
    """Wheels (hub joined to a rim cycle of length l) for 5 <= l <= l_max.

    Each wheel must be non-trivially minimally tough with toughness exactly
    1 + 2/(l-1) for odd rim length and 1 + 2/l for even rim length.
    """
    if not 5 <= l_max <= WHEELS_L_MAX:
        raise ValueError(f"l_max must be in 5..{WHEELS_L_MAX}")
    rows: list[ValueRow] = []
    for l in range(5, l_max + 1):
        expected = 1 + (Fraction(2, l - 1) if l % 2 else Fraction(2, l))
        g = make_named(FamilySpec(Family.WHEEL, (l,)))
        rows.append(
            ValueRow(f"wheel:{l}", expected, toughness(g), is_nontrivially_minimally_tough(g))
        )
    return ValueReport(f"wheel toughness, 5 <= l <= {l_max}", tuple(rows))


# -- degree-ceiling (Kriesell) scans ----------------------------------------------


@dataclass(frozen=True)
class KriesellReport:
    class_filter: str
    n_max: int
    #: True for the characterized classes where the degree claim is proven;
    #: False for the unrestricted scan, which only reports evidence.
    assertive: bool
    scanned_per_n: tuple[tuple[int, int], ...]
    counterexamples: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "class": self.class_filter,
            "n_max": self.n_max,
            "assertive": self.assertive,
            "scanned_per_n": [{"n": n, "mintough": c} for n, c in self.scanned_per_n],
            "counterexamples": list(self.counterexamples),
            "verified": self.verified,
        }

    def render(self) -> str:
        total = sum(c for _, c in self.scanned_per_n)
        head = "all have a degree-ceiling vertex" if self.verified else "COUNTEREXAMPLES"
        mode = "asserted" if self.assertive else "report only"
        lines = [
            f"degree-ceiling scan [{self.class_filter}], n <= {self.n_max} ({mode}): "
            f"{total} minimally tough graphs, {head}"
        ]
        for n, c in self.scanned_per_n:
            lines.append(f"  n={n}: {c}")
        for g6 in self.counterexamples:
            lines.append(f"  ** no vertex of degree ceil(2t): {g6}")
        return "\n".join(lines)


def kriesell_scan(class_filter: str = "all", n_max: int = DEFAULT_N_MAX) -> KriesellReport:
    """Check that minimally tough graphs have a vertex of degree ceil(2t).

    Args:
        class_filter: one of p4-free, complete-multipartite, cochordal-ge3,
            netfree-cochordal, co-forest, or "all" for the unrestricted
            (report-only) sweep.
        n_max: largest vertex count to enumerate.
    """
    key = class_filter.strip().lower()
    if key not in KRIESELL_CLASS_FILTERS:
        raise ValueError(
            f"unknown class filter {class_filter!r}; known: {', '.join(KRIESELL_CLASS_FILTERS)}"
        )
    scanned: list[tuple[int, int]] = []
    bad: list[str] = []
    for n, members in _orders(key, n_max):
        count = 0
        for code in members:
            if not _mintough(code):
                continue
            count += 1
            if math.ceil(2 * _tau_of(code)) not in _graph_of(code).degrees():
                bad.append(code)
        scanned.append((n, count))
    return KriesellReport(key, n_max, key != "all", tuple(scanned), tuple(bad))


# -- conjecture probe -------------------------------------------------------------


@dataclass(frozen=True)
class ProbeHit:
    graph6: str
    toughness: Fraction
    #: leaf count per centre when the hit is a balanced triple star, else None
    triple_star_size: int | None


@dataclass(frozen=True)
class ProbeReport:
    n_max: int
    scanned_per_n: tuple[tuple[int, int], ...]
    hits: tuple[ProbeHit, ...]

    @property
    def all_triple_star(self) -> bool:
        return all(hit.triple_star_size is not None for hit in self.hits)

    @property
    def max_toughness(self) -> Fraction | None:
        return max((hit.toughness for hit in self.hits), default=None)

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "scanned_per_n": [{"n": n, "class_size": c} for n, c in self.scanned_per_n],
            "hits": [
                {
                    "graph6": hit.graph6,
                    "toughness": format_toughness(hit.toughness),
                    "triple_star_size": hit.triple_star_size,
                }
                for hit in self.hits
            ],
            "all_triple_star": self.all_triple_star,
            "max_toughness": None
            if self.max_toughness is None
            else format_toughness(self.max_toughness),
        }

    def render(self) -> str:
        lines = [f"conjecture probe (co-chordal, co-diameter 2), n <= {self.n_max}"]
        for n, c in self.scanned_per_n:
            lines.append(f"  n={n}: {c} graphs in class")
        lines.append(f"  minimally tough hits: {len(self.hits)}")
        for hit in self.hits:
            if hit.triple_star_size is not None:
                tag = f"= triplestar:{hit.triple_star_size},{hit.triple_star_size},{hit.triple_star_size}"
            else:
                tag = "** NOT a balanced triple star **"
            lines.append(f"    {hit.graph6}  tau = {format_toughness(hit.toughness)}  {tag}")
        if self.max_toughness is not None:
            lines.append(f"  max toughness among hits: {format_toughness(self.max_toughness)}")
        lines.append(
            "  all hits balanced triple stars: " + ("yes" if self.all_triple_star else "NO")
        )
        return "\n".join(lines)


def probe_conjecture_cochordal_diam2(n_max: int = DEFAULT_N_MAX) -> ProbeReport:
    """Report the minimally tough co-chordal graphs of co-diameter exactly 2.

    The conjecture says these are exactly the balanced triple stars; the
    probe never asserts it, it lists every hit and whether it matches.
    """
    if n_max > PROBE_N_MAX:
        raise ValueError(f"probe supports n_max <= {PROBE_N_MAX}")
    hits: list[ProbeHit] = []
    scanned: list[tuple[int, int]] = []
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
            hits.append(ProbeHit(code, tau, size))
        scanned.append((n, count))
    return ProbeReport(n_max, tuple(scanned), tuple(hits))


# -- co-diameter exclusions --------------------------------------------------------


@dataclass(frozen=True)
class CoDiamExclusionReport:
    n_max: int
    ge4_scanned: int
    #: minimally tough co-chordal graphs with connected complement, co-diameter >= 4
    ge4_violations: tuple[str, ...]
    diam3_scanned: int
    #: co-chordal co-diameter-3 graphs where mintough and double-star disagree
    diam3_discrepancies: tuple[str, ...]

    @property
    def verified(self) -> bool:
        return not self.ge4_violations and not self.diam3_discrepancies

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "ge4_scanned": self.ge4_scanned,
            "ge4_violations": list(self.ge4_violations),
            "diam3_scanned": self.diam3_scanned,
            "diam3_discrepancies": list(self.diam3_discrepancies),
            "verified": self.verified,
        }

    def render(self) -> str:
        head = "VERIFIED" if self.verified else "DISCREPANCIES FOUND"
        lines = [
            f"co-diameter exclusions, n <= {self.n_max}: {head}",
            f"  co-chordal, connected complement, co-diameter >= 4: {self.ge4_scanned} scanned",
            f"  co-chordal, co-diameter 3: {self.diam3_scanned} scanned",
        ]
        for g6 in self.ge4_violations:
            lines.append(f"  !! minimally tough at co-diameter >= 4: {g6}")
        for g6 in self.diam3_discrepancies:
            lines.append(f"  !! co-diameter-3 mismatch: {g6}")
        return "\n".join(lines)


def verify_codiam_exclusions(n_max: int = DEFAULT_N_MAX) -> CoDiamExclusionReport:
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
    return CoDiamExclusionReport(
        n_max, ge4_scanned, tuple(ge4_bad), diam3_scanned, tuple(diam3_bad)
    )
