"""Seeded graph6 streams for the stream workloads.

The generator shares no code with ``toughlab``: graphs are built here as
adjacency bitmask lists and written with this module's own graph6 writer, so
a defect in the program's codec cannot shape its own inputs.

One stream is a batch of graphs on 10 to 13 vertices, with a fixed count in
every cell of the mix below; only the members of each cell depend on the
seed.  The three axes, and why each is varied:

* order n (10..13): sets the size of the separator sweep, which doubles
  with every vertex;
* edge density (0.3, 0.5, 0.7) of the random graphs: sets the depth of the
  s/(n-s) cutoff in the toughness sweep and the size of the cond1 flow
  networks;
* named family members against one-edge perturbations of them: members
  such as wheels and balanced Turan graphs are minimally tough, so the
  definition decider must try every edge; a near-miss usually stops it at
  an early edge.

Every graph gets a random vertex labelling, and a stream never holds two
isomorphic graphs (as with ``geng`` output).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

ORDERS = (10, 11, 12, 13)
DENSITIES = (0.3, 0.5, 0.7)


@dataclass(frozen=True)
class StreamGraph:
    """One stream member: its graph6 line and what the generator knows of it."""

    graph6: str
    n: int
    edges: tuple[tuple[int, int], ...]
    label: str  # e.g. "wheel:12", "wheel:12-3-7" (edge 3-7 deleted), "gnm:13,0.5"
    #: closed-form toughness for family members, else None
    toughness: Fraction | None


# -- graph construction ---------------------------------------------------------


def _rows(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _edges(rows: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(rows)) for v in range(u + 1, len(rows)) if rows[u] >> v & 1]


def write_graph6(rows: list[int]) -> str:
    """graph6 of a graph on at most 62 vertices (upper triangle, column order)."""
    n = len(rows)
    bits = [rows[u] >> v & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        group = 0
        for b in bits[i : i + 6]:
            group = group << 1 | b
        out.append(chr(63 + group))
    return "".join(out)


def _multipartite(parts) -> list[tuple[int, int]]:
    owner = [i for i, p in enumerate(parts) for _ in range(p)]
    n = len(owner)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if owner[u] != owner[v]]


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def _cycle(n: int) -> list[tuple[int, int]]:
    return _path(n) + [(0, n - 1)]


def _stars(leaves) -> list[tuple[int, int]]:
    """Adjacent centres 0..k-1 (a clique), centre i with leaves[i] leaves."""
    k = len(leaves)
    edges = [(a, b) for a in range(k) for b in range(a + 1, k)]
    nxt = k
    for centre, count in enumerate(leaves):
        for _ in range(count):
            edges.append((centre, nxt))
            nxt += 1
    return edges


def _family_members(n: int) -> list[tuple[str, list[tuple[int, int]], Fraction]]:
    """Named members on n vertices with their closed-form toughness."""
    out = [
        (f"wheel:{n - 1}", _cycle(n - 1) + [(v, n - 1) for v in range(n - 1)],
         1 + (Fraction(2, n - 2) if (n - 1) % 2 else Fraction(2, n - 1))),
        (f"cycle:{n}", _cycle(n), Fraction(1)),
        (f"path:{n}", _path(n), Fraction(1, 2)),
    ]
    k = n // 2 if n % 2 == 0 else (n + 1) // 2
    parts = [n // k + (1 if i < n % k else 0) for i in range(k)][::-1]
    out.append((f"turan:{n},{k}", _multipartite(parts), Fraction(n, max(parts)) - 1))
    for k in range(1, (n - 2) // 2 + 1):
        leaves = (k, n - 2 - k)
        out.append((f"doublestar:{k},{n - 2 - k}", _stars(leaves), Fraction(1, max(leaves) + 1)))
    c = n - 3
    for a in range(1, c // 3 + 1):
        for b in range(a, (c - a) // 2 + 1):
            leaves = (a, b, c - a - b)
            out.append((f"triplestar:{a},{b},{c - a - b}", _stars(leaves),
                        Fraction(1, max(leaves) + 1)))
    for parts in ((2, n - 2), (3, n - 3), (2, 3, n - 5), (3, 3, n - 6), (2, 2, 2, n - 6)):
        out.append((f"multipartite:{','.join(map(str, parts))}", _multipartite(parts),
                    Fraction(n, max(parts)) - 1))
    return out


# -- isomorph rejection -------------------------------------------------------------


def _invariant(rows: list[int]) -> tuple:
    """An isomorphism invariant: colour refinement from degrees, to a fixpoint.

    Two graphs with different invariants are not isomorphic.  The stream
    drops any graph whose invariant it has already seen, which rejects every
    isomorphic repeat and, rarely, a non-isomorphic graph too.
    """
    n = len(rows)
    colour = [bin(r).count("1") for r in rows]
    for _ in range(n):
        sig = [
            (colour[v], tuple(sorted(colour[u] for u in range(n) if rows[v] >> u & 1)))
            for v in range(n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [palette[s] for s in sig]
        if len(palette) == len(set(colour)):
            break
        colour = new
    triangles = sum(
        bin(rows[u] & rows[v]).count("1") for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1
    )
    return n, triangles, tuple(sorted(sig))


def _connected(rows: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << len(rows)) - 1


# -- the stream -------------------------------------------------------------------


#: members in every stream, by label prefix: the costly minimally tough ones,
#: whose deciders try every edge whatever the labelling, and one three-part
#: complete multipartite graph
FIXED_FAMILIES = ("wheel:", "cycle:", "turan:", "path:", "multipartite:2,3,")
#: one member of each per order, chosen by the seed
SEEDED_FAMILIES = ("doublestar:", "triplestar:")
#: near-misses per order: an edge deleted from a wheel or a Turan graph, just
#: below a minimally tough member, and a chord added to a cycle
NEAR_MISSES = (("wheel:", "delete"), ("turan:", "delete"), ("cycle:", "add"))
_ATTEMPTS = 200


def _random_connected(rng: random.Random, n: int, pairs, p: float) -> list[tuple[int, int]]:
    """G(n, m) with m = round(p * C(n, 2)), redrawn until connected."""
    while True:
        edges = rng.sample(pairs, round(p * len(pairs)))
        if _connected(_rows(n, edges)):
            return edges


def _perturb(rng: random.Random, member, how: str, pairs) -> tuple[str, list]:
    label, edges, _ = member
    if how == "delete":
        gone = rng.choice(edges)
        return f"{label}-{gone[0]}-{gone[1]}", [e for e in edges if e != gone]
    present = set(edges)
    extra = rng.choice([e for e in pairs if e not in present])
    return f"{label}+{extra[0]}-{extra[1]}", edges + [extra]


def make_stream(seed: int | str) -> list[StreamGraph]:
    """One stream: the same mix for every seed, seeded members and labels.

    One random graph is drawn for every (order, density) cell, so a stream
    holds 4 * (10 + 3) = 52 graphs.
    """
    rng = random.Random(seed)
    seen: set[tuple] = set()
    out: list[StreamGraph] = []

    def add(n: int, draw) -> None:
        """Append the first draw that is not isomorphic to an earlier graph."""
        for _ in range(_ATTEMPTS):
            label, edges, tau = draw()
            perm = list(range(n))
            rng.shuffle(perm)
            rows = _rows(n, [(perm[u], perm[v]) for u, v in edges])
            key = _invariant(rows)
            if key not in seen:
                seen.add(key)
                out.append(StreamGraph(write_graph6(rows), n, tuple(_edges(rows)), label, tau))
                return
        raise RuntimeError(f"stream seed {seed}: no new isomorphism class in {_ATTEMPTS} draws")

    for n in ORDERS:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for p in DENSITIES:
            add(n, lambda: (f"gnm:{n},{p}", _random_connected(rng, n, pairs, p), None))
        members = _family_members(n)

        def having(prefix: str) -> list:
            return [m for m in members if m[0].startswith(prefix)]

        for prefix in FIXED_FAMILIES:
            add(n, lambda: having(prefix)[0])
        for prefix in SEEDED_FAMILIES:
            add(n, lambda: rng.choice(having(prefix)))
        for prefix, how in NEAR_MISSES:
            add(n, lambda: _perturb(rng, having(prefix)[0], how, pairs) + (None,))
    return out
