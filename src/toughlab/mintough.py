"""Minimal toughness: deciders and edge conditions.

A graph is minimally tough when deleting any single edge lowers its
toughness.  Complete and edgeless graphs are trivially so (no edge deletion
can help / nothing to delete that matters); the interesting verdict is
NON_TRIVIAL: connected, non-complete, every edge deletion strictly drops t.

Two independent deciders:

* by definition — compare t(G-e) with t for every single-edge deletion;
  t(G-e) = t keeps the edge, and t(G-e) > t is a rise, which edge deletion
  cannot cause;
* by edge criterion — an edge uv is deletable-without-dropping unless
  (cond1) its local connectivity is below 2t+1, or (cond2) some separator S
  of G also separates u from v in G-uv and satisfies |S| < t*(c(G-S)+1).
  The graph is minimally tough iff every edge meets cond1 or cond2.

The criterion is written once, as one EdgeWitness per edge in
lexicographic order.  Neither c(G-S) nor the cond2 bound depends on the
edge: one bounded separator pass (``toughness._tough_pass``, which ends
before the first size s with s/(n-s) > t) gives t and every S with
|S| < t*(c(G-S)+1), ascending by (size, bitmask), and each edge takes the
first that avoids u and v and separates them in G-uv.  A witness keeps uv
in G-S, so c(G-S) <= n-|S|-1, |S| < t*(n-|S|), and none lies past the stop.
The criterion decider lists every witness, kappa included: kappa(G) <=
kappa(u,v) <= min(deg u, deg v) for an edge, so kappa(u,v) is kappa(G), the
least size of the pass with a separator, wherever an end's degree is
kappa(G), and a max-flow elsewhere.

The boolean ``is_nontrivially_minimally_tough`` needs only the verdict,
whatever the edge order, so it tries the cheapest proof first: a degree
or common-neighbour bound on kappa, then a size bound on cond2 (every
witness of uv holds N(u) & N(v)), then the separators, listed once, and a
max-flow last.  Its pass and per-edge loop (``_criterion_holds``) read the
graph's own sweep or, for the census, its lane of one flood over all
children of its canonical parent (``toughness._Siblings``).

The definition decider floods G's sweep once and certifies each verdict by
direct counts or by a full sweep.  For an edge uv, c(G-uv-S) differs from
c(G-S), by one, only where S misses u and v and uv is a bridge of G-S, so
one bridge flood per edge over G's sweep (``toughness._bridge_drop``) asks
only whether t(G-uv) < t, and returns the S and c(G-uv-S) of the least
drop.  The flood only proposes: a drop is certified by recounting its S on
G-uv's rows (S misses u and v, c(G-uv-S) = c and |S| < t*c), and is kept
as a witness that later edges try first, each by one direct count.  An
edge with no drop fails once ``toughness`` of G-uv, the only ``Graph`` the
decider builds, confirms t(G-uv) = t.  Neither decider reads the other's kernels: the
criterion reads no bridge flood, and the definition no separator listing or
max-flow.

The criterion decider refuses nothing: disconnected non-edgeless inputs get
t = 0, both conditions fail on every edge, and the verdict is NOT_MIN_TOUGH.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .connectivity import _component_count, _flood, local_connectivity
from .graph6 import write_graph6
from .graphs import CrossCheckError, Graph, VertexSet, delete_edge
from .toughness import (Toughness, _Counts, _bridge_drop, _separator_masks, _tough_pass,
                        format_toughness, toughness)


class MinToughStatus(Enum):
    TRIVIALLY_MIN_TOUGH = "trivially-minimally-tough"
    NON_TRIVIALLY_MIN_TOUGH = "non-trivially-minimally-tough"
    NOT_MIN_TOUGH = "not-minimally-tough"


class MinToughVerdict(NamedTuple):
    status: MinToughStatus
    toughness: Toughness
    #: lexicographically least edge whose deletion keeps toughness unchanged
    #: (definition route) / meets neither condition (criterion route)
    failing_edge: tuple[int, int] | None = None


class EdgeWitness(NamedTuple):
    """Per-edge record from the criterion decider."""

    edge: tuple[int, int]
    kappa: int
    cond1: bool
    cond2: bool
    separator: VertexSet | None  # first (size, bitmask)-ascending cond2 witness


def is_minimally_tough_by_definition(g: Graph) -> MinToughVerdict:
    """Compare t(G-e) with t(G) for every edge e, in lexicographic order,
    each t(G-e) read from G's sweep and certified as the module docstring
    says."""
    if g.is_complete() or g.is_edgeless():
        return MinToughVerdict(MinToughStatus.TRIVIALLY_MIN_TOUGH, toughness(g))
    p, q, sweep, _ = _tough_pass(g)
    t = Fraction(p, q)
    full = g.full_mask
    drops: list[int] = []  # the S that showed a drop on an earlier edge
    for u, v in g.edges():
        ends = (1 << u) | (1 << v)
        adj = list(g.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if any(not s & ends and s.bit_count() * q < p * (c := _component_count(adj, full ^ s))
               and c >= 2 for s in drops):
            continue
        drop = _bridge_drop(sweep, u, v, p, q)
        if drop is not None:
            s, c = drop
            if s & ends or s.bit_count() * q >= p * c or _component_count(adj, full ^ s) != c:
                raise CrossCheckError(f"the bridge flood's drop at {(u, v)} does not recount")
            drops.append(s)
            continue
        t_e = toughness(delete_edge(g, u, v))
        if t_e > t:  # edge deletion can never raise toughness
            raise CrossCheckError(f"deleting {(u, v)} raised toughness from {t} to {t_e}")
        if t_e < t:
            raise CrossCheckError(f"the bridge flood missed the drop to {t_e} at {(u, v)}")
        return MinToughVerdict(MinToughStatus.NOT_MIN_TOUGH, t, (u, v))
    return MinToughVerdict(MinToughStatus.NON_TRIVIALLY_MIN_TOUGH, t)


# -- edge criterion -----------------------------------------------------------


def _uv_separators(g: Graph, masks: Iterable[int], u: int, v: int) -> Iterator[int]:
    """The masks that avoid u and v and separate them in G-uv."""
    avoid, full = (1 << u) | (1 << v), g.full_mask
    adj = list(g.adj)
    adj[u] ^= 1 << v
    adj[v] ^= 1 << u
    for mask in masks:
        if not mask & avoid and not _flood(adj, 1 << u, full ^ mask) >> v & 1:
            yield mask


def cond2_candidates(g: Graph, u: int, v: int) -> Iterator[VertexSet]:
    """All S that separate G and separate u from v in G-uv (no size bound).

    Ascending (size, bitmask).  Used to check that dominating edges admit no
    candidates at all.
    """
    if not g.has_edge(u, v):
        raise ValueError("cond2 candidates are defined for edges")
    for mask in _uv_separators(g, _separator_masks(g), u, v):
        yield VertexSet._trusted(mask, g.n)


def _cond2_masks(p: int, q: int, sweep: _Counts, tops: list[tuple[int, int]]) -> list[int]:
    """The separators of the pass with |S| < t*(c(G-S)+1) at t = p/q, by
    (size, bitmask).  For an integer c, c + 1 > s*q/p iff c >= s*q // p,
    so each size s is listed from that c; at t = 0 there are none."""
    if not p:
        return []
    masks = []
    for size, top in tops:
        least = max(2, size * q // p)
        if top >= least:
            masks += [mask for mask, _ in sweep.separators(size, least)]
    return masks


def is_minimally_tough_by_criterion(g: Graph) -> tuple[MinToughVerdict, list[EdgeWitness]]:
    """Decide via the per-edge criterion; returns full per-edge witnesses,
    edge by edge in lexicographic order: kappa(u,v) with cond1, and the
    first cond2 separator that avoids u and v and separates them in G-uv."""
    if g.is_complete() or g.is_edgeless():
        return MinToughVerdict(MinToughStatus.TRIVIALLY_MIN_TOUGH, toughness(g)), []
    p, q, sweep, tops = _tough_pass(g)
    t = Fraction(p, q)
    separators = _cond2_masks(p, q, sweep, tops)
    kappa_g = tops[0][0]  # the least size with a separator
    degrees = g.degrees()
    witnesses = []
    for u, v in g.edges():
        # kappa(G) <= 1 + kappa(G-uv) <= kappa(u,v) <= min(deg u, deg v), so
        # kappa(u,v) = kappa(G), with no max-flow, where an end's degree is kappa(G)
        kappa = kappa_g if min(degrees[u], degrees[v]) == kappa_g else local_connectivity(g, u, v)
        hit = next(_uv_separators(g, separators, u, v), None)
        separator = None if hit is None else VertexSet._trusted(hit, g.n)
        witnesses.append(EdgeWitness((u, v), kappa, kappa * q < 2 * p + q, hit is not None, separator))
    failing = next((w.edge for w in witnesses if not w.cond1 and not w.cond2), None)
    if failing is None:
        return MinToughVerdict(MinToughStatus.NON_TRIVIALLY_MIN_TOUGH, t), witnesses
    return MinToughVerdict(MinToughStatus.NOT_MIN_TOUGH, t, failing), witnesses


def is_nontrivially_minimally_tough(g: Graph) -> bool:
    """Connected, non-complete and minimally tough, by ``_criterion_holds``."""
    if g.is_complete() or g.is_edgeless():
        return False
    return _criterion_holds(g)


def _criterion_holds(g: Graph, counts: _Counts | None = None) -> bool:
    """``is_nontrivially_minimally_tough`` of a graph neither complete nor
    edgeless, reading its component counts from ``counts`` (a sibling lane,
    ``toughness._Siblings``) or, by default, from its own sweep.  For an
    edge uv, 1 + |N(u) & N(v)| <= kappa(u,v) <= min(deg u, deg v), and a
    cond2 witness holds N(u) & N(v), or some u-w-v survives in G-uv-S."""
    p, q, sweep, tops = _tough_pass(g, counts)
    if p == 0:
        return False
    bound, adj = 2 * p + q, g.adj
    largest = -1  # the largest size of the pass with a cond2 candidate
    for size, top in reversed(tops):
        if top >= size * q // p:
            largest = size
            break
    high = 0  # the vertices whose degree leaves cond1 open
    for x, row in enumerate(adj):
        if row.bit_count() * q >= bound:
            high |= 1 << x
    edges = []  # (cond1 still open, u, v) for each edge no degree decides
    while high:
        low = high & -high
        high ^= low
        u = low.bit_length() - 1
        row = adj[u]
        later = row & high  # the neighbours of u past it that degree leaves open
        while later:
            bit = later & -later
            later ^= bit
            v = bit.bit_length() - 1
            common = (row & adj[v]).bit_count()
            disproved = (1 + common) * q >= bound
            if disproved and common > largest:
                return False
            edges.append((not disproved, u, v))
    if not edges:
        return True
    separators = _cond2_masks(p, q, sweep, tops)
    for open_, u, v in sorted(edges):
        if next(_uv_separators(g, separators, u, v), None) is None \
                and (not open_ or local_connectivity(g, u, v) * q >= bound):
            return False
    return True


def universal_vertices(g: Graph) -> VertexSet:
    full = g.full_mask
    bits = 0
    for v in range(g.n):
        if g.adj[v] == full ^ (1 << v):
            bits |= 1 << v
    return VertexSet._trusted(bits, g.n)


# -- serialization ----------------------------------------------------------------


def verdict_to_json(g: Graph, verdict: MinToughVerdict, witnesses: list[EdgeWitness] = ()) -> dict:
    record: dict = {
        "graph6": write_graph6(g),
        "status": verdict.status.value,
        "toughness": format_toughness(verdict.toughness),
        "failing_edge": list(verdict.failing_edge) if verdict.failing_edge else None,
        "witnesses": [
            {
                "edge": list(w.edge),
                "kappa": w.kappa,
                "cond1": w.cond1,
                "cond2": w.cond2,
                "separator": sorted(w.separator) if w.separator is not None else None,
            }
            for w in witnesses
        ],
    }
    return record
