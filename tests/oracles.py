"""Independent reference implementations used to cross-check the library.

Everything here works on plain ``(n, edge-list)`` data and favours the most
literal translation of each definition over speed: separators come from
trying every vertex subset, local connectivity from packing explicit simple
paths, canonical keys from minimizing over every permutation, isomorphism
class counts from a labeled-graph recurrence plus automorphism orbit sizes.
Nothing in this module imports from the package under test.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

Edge = tuple[int, int]


def _adj(n: int, edges) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"bad edge {(u, v)}")
        out[u].add(v)
        out[v].add(u)
    return out


def normalize_edges(edges) -> frozenset[Edge]:
    return frozenset((min(u, v), max(u, v)) for u, v in edges)


# -- connectivity -------------------------------------------------------------


def ref_components(n: int, edges) -> list[frozenset[int]]:
    adj = _adj(n, edges)
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], {start}
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def ref_is_connected(n: int, edges) -> bool:
    return len(ref_components(n, edges)) <= 1


def ref_distances(n: int, edges) -> dict[tuple[int, int], int | float]:
    adj = _adj(n, edges)
    dist: dict[tuple[int, int], int | float] = {}
    for s in range(n):
        d = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in d:
                        d[y] = d[x] + 1
                        nxt.append(y)
            frontier = nxt
        for t in range(n):
            dist[(s, t)] = d.get(t, math.inf)
    return dist


def ref_diameter(n: int, edges) -> int | float:
    if n == 0:
        return 0
    return max(ref_distances(n, edges).values(), default=0)


def ref_local_connectivity(n: int, edges, u: int, v: int) -> int:
    """Maximum number of internally disjoint u-v paths, by explicit packing.

    Enumerates the interior vertex set of every simple u-v path, then finds
    the largest family of pairwise disjoint interiors by backtracking.
    """
    if u == v:
        raise ValueError("two distinct vertices required")
    adj = _adj(n, edges)
    interiors: set[frozenset[int]] = set()

    def walk(x: int, visited: frozenset[int]) -> None:
        for y in adj[x]:
            if y == v:
                interiors.add(visited - {u})
            elif y not in visited and y != u:
                walk(y, visited | {y})

    walk(u, frozenset({u}))
    paths = sorted(interiors, key=len)
    best = 0

    def pack(i: int, used: frozenset[int], count: int) -> None:
        nonlocal best
        best = max(best, count)
        if count + (len(paths) - i) <= best:
            return
        for j in range(i, len(paths)):
            if not (paths[j] & used):
                pack(j + 1, used | paths[j], count + 1)

    pack(0, frozenset(), 0)
    return best


def ref_vertex_connectivity(n: int, edges) -> int:
    if n <= 1:
        return 0
    eset = normalize_edges(edges)
    if len(eset) == n * (n - 1) // 2:
        return n - 1
    for size in range(n - 1):
        for s in combinations(range(n), size):
            if _component_count_after(n, eset, set(s)) >= 2:
                return size
    raise AssertionError("non-complete graphs always have a separator")


# -- toughness ----------------------------------------------------------------


def ref_separators(n: int, edges) -> list[frozenset[int]]:
    """Every S whose removal leaves at least two components."""
    eset = normalize_edges(edges)
    out = []
    for size in range(max(n - 1, 0)):
        for s in combinations(range(n), size):
            if _component_count_after(n, eset, set(s)) >= 2:
                out.append(frozenset(s))
    return out


def _component_count_after(n: int, eset, removed: set[int]) -> int:
    keep = [x for x in range(n) if x not in removed]
    idx = {x: i for i, x in enumerate(keep)}
    sub = [(idx[a], idx[b]) for a, b in eset if a in idx and b in idx]
    return len(ref_components(len(keep), sub))


def ref_toughness(n: int, edges) -> Fraction | float:
    """min |S| / c(G-S) over separators; inf when complete, 0 when disconnected."""
    eset = normalize_edges(edges)
    if len(eset) == n * (n - 1) // 2:  # covers K_0 and K_1
        return math.inf
    if _component_count_after(n, eset, set()) >= 2:
        return Fraction(0)
    best: Fraction | None = None
    for size in range(1, n - 1):
        for s in combinations(range(n), size):
            c = _component_count_after(n, eset, set(s))
            if c >= 2:
                ratio = Fraction(size, c)
                if best is None or ratio < best:
                    best = ratio
    assert best is not None
    return best


def ref_is_minimally_tough(n: int, edges) -> bool:
    """Non-trivially minimally tough: connected, not complete, and every
    single-edge deletion strictly lowers toughness."""
    eset = normalize_edges(edges)
    t = ref_toughness(n, eset)
    if not isinstance(t, Fraction) or t == 0:
        return False
    return all(ref_toughness(n, eset - {e}) < t for e in eset)


# -- matchings ----------------------------------------------------------------


def ref_max_matching(cross_edges) -> int:
    """Maximum matching of an explicit edge list, by choose/skip recursion."""
    edges = sorted(normalize_edges(cross_edges))

    def go(i: int, used: frozenset[int]) -> int:
        if i == len(edges):
            return 0
        a, b = edges[i]
        best = go(i + 1, used)
        if a not in used and b not in used:
            best = max(best, 1 + go(i + 1, used | {a, b}))
        return best

    return go(0, frozenset())


# -- isomorphism --------------------------------------------------------------


def ref_canonical_key(n: int, edges) -> tuple:
    eset = normalize_edges(edges)
    best = None
    for perm in permutations(range(n)):
        key = tuple(sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in eset))
        if best is None or key < best:
            best = key
    return (n, best if best is not None else ())


def ref_are_isomorphic(n1: int, e1, n2: int, e2) -> bool:
    if n1 != n2:
        return False
    return ref_canonical_key(n1, e1) == ref_canonical_key(n2, e2)


def ref_automorphism_count(n: int, edges) -> int:
    eset = normalize_edges(edges)
    count = 0
    for perm in permutations(range(n)):
        mapped = normalize_edges((perm[a], perm[b]) for a, b in eset)
        if mapped == eset:
            count += 1
    return count


def ref_labeled_connected_count(n: int) -> int:
    """Number of connected labeled graphs, by the classical recurrence
    c_n = 2^C(n,2) - sum_{k<n} C(n-1, k-1) * c_k * 2^C(n-k,2)."""
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        total = 2 ** (m * (m - 1) // 2)
        for k in range(1, m):
            total -= math.comb(m - 1, k - 1) * c[k] * 2 ** ((m - k) * (m - k - 1) // 2)
        c[m] = total
    return c[n] if n >= 1 else 1


# -- graph classes ------------------------------------------------------------


def _induced(eset, subset) -> list[Edge]:
    s = set(subset)
    return [(a, b) for a, b in eset if a in s and b in s]


def _induces_cycle(eset, subset) -> bool:
    s = list(subset)
    if len(s) < 3:
        return False
    inside = _induced(eset, s)
    if len(inside) != len(s):
        return False
    deg = {x: 0 for x in s}
    for a, b in inside:
        deg[a] += 1
        deg[b] += 1
    if any(d != 2 for d in deg.values()):
        return False
    idx = {x: i for i, x in enumerate(s)}
    return ref_is_connected(len(s), [(idx[a], idx[b]) for a, b in inside])


def ref_has_induced_cycle(n: int, edges, min_length: int) -> bool:
    eset = normalize_edges(edges)
    for size in range(min_length, n + 1):
        for subset in combinations(range(n), size):
            if _induces_cycle(eset, subset):
                return True
    return False


def ref_is_chordal(n: int, edges) -> bool:
    return not ref_has_induced_cycle(n, edges, 4)


def ref_complement_edges(n: int, edges) -> frozenset[Edge]:
    eset = normalize_edges(edges)
    return frozenset((u, v) for u, v in combinations(range(n), 2) if (u, v) not in eset)


def ref_is_forest(n: int, edges) -> bool:
    eset = normalize_edges(edges)
    return len(eset) == n - len(ref_components(n, eset))


def ref_is_split(n: int, edges) -> bool:
    """Some vertex subset is a clique whose complement is independent."""
    eset = normalize_edges(edges)
    for bits in range(1 << n):
        clique = [x for x in range(n) if bits >> x & 1]
        rest = [x for x in range(n) if not bits >> x & 1]
        if all((min(p), max(p)) in eset for p in combinations(clique, 2)) and all(
            (min(p), max(p)) not in eset for p in combinations(rest, 2)
        ):
            return True
    return n == 0


def ref_is_p4_free(n: int, edges) -> bool:
    eset = normalize_edges(edges)
    path4 = normalize_edges([(0, 1), (1, 2), (2, 3)])
    for subset in combinations(range(n), 4):
        idx = {x: i for i, x in enumerate(subset)}
        inside = normalize_edges((idx[a], idx[b]) for a, b in _induced(eset, subset))
        if ref_are_isomorphic(4, inside, 4, path4):
            return False
    return True


def ref_contains_induced(n: int, edges, pn: int, pedges) -> bool:
    eset = normalize_edges(edges)
    target = normalize_edges(pedges)
    for subset in combinations(range(n), pn):
        idx = {x: i for i, x in enumerate(subset)}
        inside = normalize_edges((idx[a], idx[b]) for a, b in _induced(eset, subset))
        if ref_are_isomorphic(pn, inside, pn, target):
            return True
    return False


def ref_vertices_in_induced(n: int, edges, pn: int, pedges) -> frozenset[int]:
    """The vertices that lie in some pn-subset inducing the pattern."""
    eset = normalize_edges(edges)
    target = normalize_edges(pedges)
    covered: set[int] = set()
    for subset in combinations(range(n), pn):
        if covered.issuperset(subset):
            continue
        idx = {x: i for i, x in enumerate(subset)}
        inside = normalize_edges((idx[a], idx[b]) for a, b in _induced(eset, subset))
        if ref_are_isomorphic(pn, inside, pn, target):
            covered.update(subset)
    return frozenset(covered)


def ref_is_complete_multipartite(n: int, edges) -> bool:
    """Non-adjacency (plus equality) must be transitive."""
    eset = normalize_edges(edges)

    def non_adj(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) not in eset

    for u in range(n):
        for v in range(n):
            for w in range(n):
                if u != v and v != w and u != w:
                    if non_adj(u, v) and non_adj(v, w) and not non_adj(u, w):
                        return False
    return True


NET_EDGES = normalize_edges([(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
CONET_EDGES = ref_complement_edges(6, NET_EDGES)


def ref_is_net_free(n: int, edges) -> bool:
    return not ref_contains_induced(n, edges, 6, NET_EDGES)


def ref_is_co_net_free(n: int, edges) -> bool:
    return not ref_contains_induced(n, edges, 6, CONET_EDGES)


def ref_is_weakly_chordal(n: int, edges) -> bool:
    return not ref_has_induced_cycle(n, edges, 5) and not ref_has_induced_cycle(
        n, ref_complement_edges(n, edges), 5
    )


_C4 = normalize_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
_C5 = normalize_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
_C6 = normalize_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])


def ref_is_hereditary_nbhd_helly(n: int, edges) -> bool:
    """No induced C4, C5, C6 and no induced 3-sun (complement of the net)."""
    for pn, pe in ((4, _C4), (5, _C5), (6, _C6), (6, CONET_EDGES)):
        if ref_contains_induced(n, edges, pn, pe):
            return False
    return True


# -- graph6 -------------------------------------------------------------------


def ref_graph6_decode(line: str) -> tuple[int, frozenset[Edge]]:
    """Independent decoder for the single-byte-order form (n <= 62)."""
    data = line.rstrip("\r\n")
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<") :]
    if not data:
        raise ValueError("empty")
    n = ord(data[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError("only the short vertex-count form is supported here")
    bits = []
    for ch in data[1:]:
        group = ord(ch) - 63
        if not 0 <= group < 64:
            raise ValueError("byte out of range")
        bits.extend((group >> k) & 1 for k in range(5, -1, -1))
    need = n * (n - 1) // 2
    if len(bits) < need or len(bits) >= need + 6:
        raise ValueError("wrong body length")
    if any(bits[need:]):
        raise ValueError("nonzero padding")
    cells = [(u, v) for v in range(1, n) for u in range(v)]
    return n, frozenset(cell for cell, bit in zip(cells, bits) if bit)
