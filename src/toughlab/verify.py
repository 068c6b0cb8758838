"""Exhaustive verification harness over the small-graph census.

Each classification result we care about has the same shape: within some
recognizable class of graphs, the non-trivially minimally tough members are
exactly a short list of named families.  One table, ``_CLASSES``, names each
classified class once, keyed by its degree-ceiling (Kriesell) filter, with
its theorem id, its membership test by code and its predicted families; the
theorem ids and the Kriesell filters derive from it.  Each class keeps one
cached member list per order, filtered once from the census, and the
theorem, Kriesell and co-diameter scans all iterate those lists.  A report
carries per-order counts plus the graph6 strings of any graph where the
computed verdict and the predicted family codes disagree.

Everything is driven off canonical codes so that reports are byte-identical
across runs.  The census keeps one record per class, its code and canon's
graph; expensive per-graph facts (toughness, minimal-toughness verdicts,
chordality of the complement) are memoized per code and shared by all scans.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator

from .canon import canonical_code, enumerate_graphs
from .classes import (
    complete_multipartite_parts,
    is_co_chordal,
    is_complement_of_forest,
    is_complete_multipartite,
    is_net_free,
    is_p4_free,
)
from .connectivity import co_diameter
from .families import Family, FamilySpec, make_named
from .graph6 import parse_graph6, write_graph6  # parse_graph6: read by perfbench/traced.py
from .graphs import MAX_VERTICES, Graph
from .mintough import CrossCheckError, is_nontrivially_minimally_tough, universal_vertices
from .toughness import Toughness, format_toughness, toughness

DEFAULT_N_MAX = 8
#: the largest l whose families fit in MAX_VERTICES vertices: doublestar:l,l
#: has 2l + 2 of them, wheel:l has l + 1
TABLE1_L_MAX = (MAX_VERTICES - 2) // 2
WHEELS_L_MAX = MAX_VERTICES - 1


# -- memoized per-code facts --------------------------------------------------


@lru_cache(maxsize=None)
def _census(n: int) -> dict[bytes, Graph]:
    return {write_graph6(g).encode("ascii"): g for g in enumerate_graphs(n)}


@lru_cache(maxsize=None)
def _graph_of(code: bytes) -> Graph:
    return _census(code[0] - 63)[code]


@lru_cache(maxsize=None)
def _tau_of(code: bytes) -> Toughness:
    return toughness(_graph_of(code))


@lru_cache(maxsize=None)
def _mintough(code: bytes) -> bool:
    return is_nontrivially_minimally_tough(_graph_of(code))


@lru_cache(maxsize=None)
def _is_cochordal(code: bytes) -> bool:
    return is_co_chordal(_graph_of(code))


@lru_cache(maxsize=None)
def _codiam_of(code: bytes) -> int | float:
    return co_diameter(_graph_of(code))


@lru_cache(maxsize=None)
def _spec_code(spec: FamilySpec) -> bytes:
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


def _pred_base(n: int) -> Iterator[FamilySpec]:
    # stars with at least 2 leaves, K_{2,3}, and the two balanced Turan shapes
    if n >= 3:
        yield FamilySpec(Family.STAR, (n - 1,))
    if n == 5:
        yield FamilySpec(Family.COMPLETE_MULTIPARTITE, (2, 3))
    if n >= 4 and n % 2 == 0:
        yield FamilySpec(Family.TURAN, (n, n // 2))
    if n >= 3 and n % 2 == 1:
        yield FamilySpec(Family.TURAN, (n, (n + 1) // 2))


def _pred_cochordal(n: int) -> Iterator[FamilySpec]:
    yield from _pred_base(n)
    if n == 4:
        yield FamilySpec(Family.PATH, (4,))
    for k in range(1, (n - 2) // 2 + 1):
        yield FamilySpec(Family.DOUBLE_STAR, (k, n - 2 - k))


def _pred_coforest(n: int) -> Iterator[FamilySpec]:
    if n == 4:
        yield FamilySpec(Family.PATH, (4,))
    if n >= 4 and n % 2 == 0:
        yield FamilySpec(Family.TURAN, (n, n // 2))
    if n >= 3 and n % 2 == 1:
        yield FamilySpec(Family.TURAN, (n, (n + 1) // 2))


def _pred_universal(n: int) -> Iterator[FamilySpec]:
    if n >= 3:
        yield FamilySpec(Family.STAR, (n - 1,))
    if n >= 5:
        yield FamilySpec(Family.WHEEL, (n - 1,))


def _condition3(code: bytes) -> bool:
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
    #: membership by code; it calls the recognizers through this module's names
    member: Callable[[bytes], bool]
    predicted: Callable[[int], Iterator[FamilySpec]]
    #: False when the class has no degree-ceiling (Kriesell) filter
    kriesell: bool = True
    #: only members with t <= tau_cap count as found
    tau_cap: Fraction | None = None
    #: a third route to the verdict that must agree with both sides
    route: Callable[[bytes], bool] | None = None


#: every classified class, keyed by its degree-ceiling filter name ("universal"
#: has no such filter)
_CLASSES: dict[str, _Class] = {
    "p4-free": _Class("P4FREE", lambda c: is_p4_free(_graph_of(c)), _pred_base, route=_condition3),
    "complete-multipartite": _Class(
        "MULTIPARTITE", lambda c: is_complete_multipartite(_graph_of(c)), _pred_base
    ),
    "cochordal-ge3": _Class(
        "COCHORDAL_GE3", lambda c: _is_cochordal(c) and _codiam_of(c) >= 3, _pred_cochordal
    ),
    "netfree-cochordal": _Class(
        "NETFREE_COCHORDAL", lambda c: _is_cochordal(c) and is_net_free(_graph_of(c)),
        _pred_cochordal,
    ),
    "co-forest": _Class(
        "COFOREST", lambda c: is_complement_of_forest(_graph_of(c)), _pred_coforest
    ),
    "universal": _Class(
        "UNIVERSAL_LE_3_2", lambda c: bool(universal_vertices(_graph_of(c)).bits), _pred_universal,
        kriesell=False, tau_cap=Fraction(3, 2),
    ),
}

_CLASS_OF_THEOREM = {klass.theorem: key for key, klass in _CLASSES.items()}
THEOREM_IDS = tuple(_CLASS_OF_THEOREM)
#: the classes where the degree-ceiling claim is proven, then the whole census
KRIESELL_CLASS_FILTERS = tuple(key for key, klass in _CLASSES.items() if klass.kriesell) + ("all",)


@lru_cache(maxsize=None)
def _members(klass: str, n: int) -> tuple[bytes, ...]:
    """The census codes on n vertices in a class of _CLASSES, or all for "all"."""
    if klass == "all":
        return tuple(_census(n))
    member = _CLASSES[klass].member
    return tuple(code for code in _census(n) if member(code))


def _orders(klass: str, n_max: int) -> Iterator[tuple[int, tuple[bytes, ...]]]:
    """(n, members of klass on n vertices) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    for n in range(1, n_max + 1):
        yield n, _members(klass, n)


@lru_cache(maxsize=None)
def _predicted_codes(klass: str, n: int) -> frozenset[bytes]:
    return frozenset(_spec_code(spec) for spec in _CLASSES[klass].predicted(n))


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
        predicted = _predicted_codes(key, n)
        found_count = 0
        for code in members:
            found = _mintough(code) and (klass.tau_cap is None or _tau_of(code) <= klass.tau_cap)
            found_count += found
            pred = code in predicted
            if found != pred:
                discrepancies.append(code.decode("ascii"))
            if klass.route is not None and not (found == pred == klass.route(code)):
                condition_discrepancies.append(code.decode("ascii"))
        # a predicted family member that escapes its own class is also a bug
        for code in sorted(predicted.difference(members)):
            discrepancies.append(code.decode("ascii"))
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
                bad.append(code.decode("ascii"))
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
    if n_max > 9:
        raise ValueError("probe supports n_max <= 9")
    hits: list[ProbeHit] = []
    scanned: list[tuple[int, int]] = []
    for n, codes in _orders("all", n_max):
        count = 0
        for code in codes:
            if not (_is_cochordal(code) and _codiam_of(code) == 2):
                continue
            count += 1
            if not _mintough(code):
                continue
            size = None
            if n >= 6 and n % 3 == 0:
                l = (n - 3) // 3
                if code == _spec_code(FamilySpec(Family.TRIPLE_STAR, (l, l, l))):
                    size = l
            tau = _tau_of(code)
            if not isinstance(tau, Fraction):
                raise CrossCheckError(f"minimally tough {code.decode('ascii')} has toughness {tau}")
            hits.append(ProbeHit(code.decode("ascii"), tau, size))
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
        doublestars = frozenset(
            _spec_code(FamilySpec(Family.DOUBLE_STAR, (k, n - 2 - k)))
            for k in range(1, (n - 2) // 2 + 1)
        )
        seen: set[bytes] = set()
        for code in members:
            d = _codiam_of(code)
            if d == 3:
                diam3_scanned += 1
                seen.add(code)
                if _mintough(code) != (code in doublestars):
                    diam3_bad.append(code.decode("ascii"))
            elif isinstance(d, int) and d >= 4:
                ge4_scanned += 1
                if _mintough(code):
                    ge4_bad.append(code.decode("ascii"))
        # every double star must sit inside the co-diameter-3 class
        for code in sorted(doublestars - seen):
            diam3_bad.append(code.decode("ascii"))
    return CoDiamExclusionReport(
        n_max, ge4_scanned, tuple(ge4_bad), diam3_scanned, tuple(diam3_bad)
    )
