"""Named families: parameter validation, construction, parsing, round trips."""
import hashlib
import re

import pytest

from toughlab.canon import are_isomorphic
from toughlab.families import (
    Family,
    FamilySpec,
    complete_multipartite,
    make_named,
    parse_family_spec,
    turan_parts,
)
from toughlab.graph6 import write_graph6
from toughlab.graphs import Graph, complement

from oracles import normalize_edges


def _named(text: str) -> Graph:
    return make_named(parse_family_spec(text))


# -- FamilySpec validation ------------------------------------------------------


@pytest.mark.parametrize(
    "family,params",
    [
        (Family.STAR, (0,)),
        (Family.STAR, (1, 2)),
        (Family.DOUBLE_STAR, (0, 1)),
        (Family.DOUBLE_STAR, (3, 2)),
        (Family.TRIPLE_STAR, (2, 1, 3)),
        (Family.TRIPLE_STAR, (0, 1, 1)),
        (Family.COMPLETE_MULTIPARTITE, ()),
        (Family.COMPLETE_MULTIPARTITE, (2, 1)),
        (Family.COMPLETE_MULTIPARTITE, (0, 1)),
        (Family.TURAN, (3, 4)),
        (Family.TURAN, (3, 0)),
        (Family.WHEEL, (3,)),
        (Family.PATH, (0,)),
        (Family.CYCLE, (2,)),
        (Family.COMPLETE, (-1,)),
        (Family.NET, (1,)),
    ],
)
def test_invalid_specs_rejected(family, params):
    with pytest.raises(ValueError):
        FamilySpec(family, params)


@pytest.mark.parametrize(
    "family,params,message",
    [
        (Family.COMPLETE, (), "complete takes 1 parameter(s), got 0"),
        (Family.COMPLETE, (-1,), "complete: n must be >= 0"),
        (Family.PATH, (1, 2), "path takes 1 parameter(s), got 2"),
        (Family.PATH, (0,), "path: n must be >= 1"),
        (Family.CYCLE, (), "cycle takes 1 parameter(s), got 0"),
        (Family.CYCLE, (2,), "cycle: n must be >= 3"),
        (Family.STAR, (1, 2), "star takes 1 parameter(s), got 2"),
        (Family.STAR, (0,), "star: l must be >= 1"),
        (Family.DOUBLE_STAR, (1,), "doublestar takes 2 parameter(s), got 1"),
        (Family.DOUBLE_STAR, (0, 1), "doublestar: need 1 <= k <= l"),
        (Family.DOUBLE_STAR, (3, 2), "doublestar: need 1 <= k <= l"),
        (Family.TRIPLE_STAR, (1, 1), "triplestar takes 3 parameter(s), got 2"),
        (Family.TRIPLE_STAR, (0, 1, 1), "triplestar: need 1 <= a <= b <= c"),
        (Family.TRIPLE_STAR, (1, 2, 1), "triplestar: need 1 <= a <= b <= c"),
        (Family.COMPLETE_MULTIPARTITE, (), "multipartite: at least one part required"),
        (Family.COMPLETE_MULTIPARTITE, (0, 1), "multipartite: parts must be >= 1"),
        (Family.COMPLETE_MULTIPARTITE, (2, 0), "multipartite: parts must be >= 1"),
        (Family.COMPLETE_MULTIPARTITE, (2, 1), "multipartite: parts must be ascending"),
        (Family.TURAN, (4,), "turan takes 2 parameter(s), got 1"),
        (Family.TURAN, (3, 4), "turan: need 1 <= k <= n"),
        (Family.TURAN, (3, 0), "turan: need 1 <= k <= n"),
        (Family.WHEEL, (4, 4), "wheel takes 1 parameter(s), got 2"),
        (Family.WHEEL, (3,), "wheel: rim length must be >= 4"),
        (Family.NET, (1,), "net takes 0 parameter(s), got 1"),
        (Family.CO_NET, (1, 2), "conet takes 0 parameter(s), got 2"),
        ("star", (3,), "unknown family star"),
    ],
)
def test_invalid_spec_messages(family, params, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        FamilySpec(family, params)


def test_turan_parts_message():
    with pytest.raises(ValueError, match=f"^{re.escape('turan: need 1 <= k <= n')}$"):
        turan_parts(3, 4)


def test_spec_str_round_trip():
    names = set()
    for text in [
        "complete:4",
        "path:5",
        "cycle:6",
        "star:3",
        "doublestar:2,4",
        "triplestar:1,2,3",
        "multipartite:1,2,2",
        "turan:8,4",
        "wheel:6",
        "net",
        "conet",
    ]:
        spec = parse_family_spec(text)
        assert str(spec) == text
        assert parse_family_spec(str(spec)) == spec
        names.add(spec.family)
    assert names == set(Family)


def test_parse_aliases():
    assert parse_family_spec("T:8,4") == parse_family_spec("turan:8,4")
    assert parse_family_spec("K:1,2,2") == parse_family_spec("multipartite:1,2,2")
    assert parse_family_spec("s:1,1") == parse_family_spec("doublestar:1,1")
    assert parse_family_spec("w:5") == parse_family_spec("wheel:5")
    assert parse_family_spec("p:4") == parse_family_spec("path:4")
    assert parse_family_spec("c:5") == parse_family_spec("cycle:5")
    assert parse_family_spec(" NET ") == parse_family_spec("net")


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "unknown family ''"),
        ("blah:3", "unknown family 'blah'"),
        ("x", "unknown family 'x'"),
        ("Stars:3", "unknown family 'Stars'"),
        ("star:x", "bad parameters in family spec 'star:x'"),
        ("star:1,,2", "bad parameters in family spec 'star:1,,2'"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_family_spec(text)


@pytest.mark.parametrize("text", ["", "blah:3", "star", "star:x", "turan:4", "path:3,3"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_family_spec(text)


# -- construction ----------------------------------------------------------------


def test_star_layout():
    g = _named("star:4")
    assert g.n == 5
    assert g.degrees() == (4, 1, 1, 1, 1)  # centre first


def test_double_star_layout():
    g = _named("doublestar:2,3")
    assert g.n == 7
    assert g.has_edge(0, 1)
    assert sorted(g.degrees(), reverse=True) == [4, 3, 1, 1, 1, 1, 1]


def test_triple_star_layout():
    g = _named("triplestar:1,2,3")
    assert g.n == 9
    for u, v in ((0, 1), (0, 2), (1, 2)):
        assert g.has_edge(u, v)
    assert sorted(g.degrees(), reverse=True) == [5, 4, 3, 1, 1, 1, 1, 1, 1]


def test_net_is_smallest_triple_star():
    assert _named("net") == make_named(FamilySpec(Family.TRIPLE_STAR, (1, 1, 1)))
    assert are_isomorphic(_named("conet"), complement(_named("net")))


def test_wheel_layout():
    g = _named("wheel:5")
    assert g.n == 6
    hub = 5
    assert g.degree(hub) == 5
    assert sorted(g.degrees()) == [3, 3, 3, 3, 3, 5]


def test_complete_multipartite_adjacency():
    g = complete_multipartite((1, 2, 2))
    # parts occupy consecutive ranges: {0}, {1,2}, {3,4}
    assert not g.has_edge(1, 2) and not g.has_edge(3, 4)
    assert g.has_edge(0, 1) and g.has_edge(1, 3) and g.has_edge(2, 4)
    assert g.edge_count == 8


@pytest.mark.parametrize(
    "n,k,parts",
    [(8, 4, (2, 2, 2, 2)), (7, 4, (1, 2, 2, 2)), (5, 3, (1, 2, 2)), (6, 1, (6,)), (4, 4, (1, 1, 1, 1))],
)
def test_turan_parts(n, k, parts):
    assert turan_parts(n, k) == parts


def test_turan_is_multipartite_instance():
    assert _named("turan:7,3") == _named("multipartite:2,2,3")


def test_path_and_cycle_edges():
    assert normalize_edges(_named("path:4").edges()) == normalize_edges([(0, 1), (1, 2), (2, 3)])
    assert normalize_edges(_named("cycle:4").edges()) == normalize_edges(
        [(0, 1), (1, 2), (2, 3), (0, 3)]
    )


def test_degenerate_members():
    assert _named("complete:0").n == 0
    assert _named("path:1").n == 1
    assert _named("star:1") == Graph.complete(2)


def test_known_coincidences():
    assert are_isomorphic(_named("star:2"), _named("path:3"))
    assert are_isomorphic(_named("doublestar:1,1"), _named("path:4"))
    assert are_isomorphic(_named("turan:4,2"), _named("cycle:4"))
    assert are_isomorphic(_named("turan:3,3"), _named("complete:3"))
    assert are_isomorphic(_named("multipartite:1,3"), _named("star:3"))


def _ascending_partitions(n: int, least: int = 1):
    if n == 0:
        yield ()
    for first in range(least, n + 1):
        for rest in _ascending_partitions(n - first, first):
            yield (first,) + rest


def _specs_up_to(n_max: int):
    """Every valid spec whose graph has at most n_max vertices, family by family."""
    for n in range(n_max + 1):
        yield FamilySpec(Family.COMPLETE, (n,))
    for n in range(1, n_max + 1):
        yield FamilySpec(Family.PATH, (n,))
    for n in range(3, n_max + 1):
        yield FamilySpec(Family.CYCLE, (n,))
    for l in range(1, n_max):
        yield FamilySpec(Family.STAR, (l,))
    for k in range(1, n_max):
        for l in range(k, n_max - k - 1):
            yield FamilySpec(Family.DOUBLE_STAR, (k, l))
    for a in range(1, n_max):
        for b in range(a, n_max):
            for c in range(b, n_max - a - b - 2):
                yield FamilySpec(Family.TRIPLE_STAR, (a, b, c))
    for n in range(1, n_max + 1):
        for parts in _ascending_partitions(n):
            yield FamilySpec(Family.COMPLETE_MULTIPARTITE, parts)
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            yield FamilySpec(Family.TURAN, (n, k))
    for l in range(4, n_max):
        yield FamilySpec(Family.WHEEL, (l,))
    yield FamilySpec(Family.NET)
    yield FamilySpec(Family.CO_NET)


def test_family_graphs_frozen():
    """graph6 of every valid spec on 0-10 vertices, digest frozen."""
    lines = []
    for spec in _specs_up_to(10):
        g = make_named(spec)
        assert g.n <= 10
        lines.append(f"{spec}\t{write_graph6(g)}")
    assert {spec.family for spec in _specs_up_to(10)} == set(Family)
    assert len(lines) == 266
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == "8410e42ba33b929909d53ce27c8137e6259a5d924f94117516640fe34b5b972b"
