"""CLI behavior: formats, exit codes, streaming, gating, parallel workers."""
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import toughlab
from toughlab.canon import canonical_code, enumerate_graphs
from toughlab.cli import NMAX_OVERRIDE_ENV, CliError, _gate_nmax, main
from toughlab.families import make_named, parse_family_spec
from toughlab.graph6 import parse_graph6, write_graph6
from toughlab.graphs import Graph

from oracles import ref_are_isomorphic

DIAMOND = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def _run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- the named | tough / named | mintough pipelines -----------------------------------


def test_named_then_tough_pipeline(capsys, monkeypatch):
    rc, out, _ = _run(capsys, ["named", "turan:6,3"])
    assert rc == 0 and out == "E]~o\n"
    rc, out, err = _run(capsys, ["tough"], stdin=out, monkeypatch=monkeypatch)
    assert (rc, err) == (0, "")
    assert out == "2\n"


def test_named_then_mintough_pipeline(capsys, monkeypatch):
    rc, out, _ = _run(capsys, ["named", "doublestar:1,1"])
    assert rc == 0 and out == "Cq\n"
    rc, out, err = _run(capsys, ["mintough"], stdin=out, monkeypatch=monkeypatch)
    assert (rc, err) == (0, "")
    assert out == "NonTriviallyMinTough, tau=1/2\n"


def test_named_multiple_specs(capsys):
    rc, out, _ = _run(capsys, ["named", "path:3", "net", "wheel:5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines == ["Bg", "E{O_", "Ehfw"]
    for text, g6 in zip(("path:3", "net", "wheel:5"), lines):
        want = make_named(parse_family_spec(text))
        got = parse_graph6(g6)
        assert ref_are_isomorphic(got.n, got.edges(), want.n, want.edges())


def test_named_bad_spec(capsys):
    rc, out, err = _run(capsys, ["named", "wheel:2"])
    assert rc == 2
    assert "bad family spec 'wheel:2'" in err


# -- per-line formats ------------------------------------------------------------------


def test_tough_formats(capsys, monkeypatch, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("E]~o\nBw\n")
    rc, out, _ = _run(capsys, ["tough", str(path)])
    assert rc == 0 and out == "2\ninf\n"
    rc, out, _ = _run(capsys, ["tough", "--format", "tsv", str(path)])
    assert out == "E]~o\t2\nBw\tinf\n"
    rc, out, _ = _run(capsys, ["tough", "--format", "json", str(path)])
    records = [json.loads(line) for line in out.splitlines()]
    assert records == [
        {"graph6": "E]~o", "toughness": "2"},
        {"graph6": "Bw", "toughness": "inf"},
    ]


def test_mintough_formats(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Cq\n" + write_graph6(DIAMOND) + "\n")
    rc, out, _ = _run(capsys, ["mintough", str(path)])
    assert rc == 0
    assert out.splitlines() == [
        "NonTriviallyMinTough, tau=1/2",
        "NotMinTough, tau=1, failing_edge=0-1",
    ]
    rc, out, _ = _run(capsys, ["mintough", "--format", "tsv", str(path)])
    assert out.splitlines()[0] == "Cq\tNonTriviallyMinTough\t1/2\t-"
    assert out.splitlines()[1].split("\t")[1:] == ["NotMinTough", "1", "0-1"]
    rc, out, _ = _run(capsys, ["mintough", "--format", "json", str(path)])
    first, second = (json.loads(line) for line in out.splitlines())
    assert first["status"] == "non-trivially-minimally-tough"
    assert first["toughness"] == "1/2" and first["failing_edge"] is None
    assert second["status"] == "not-minimally-tough"
    assert second["failing_edge"] == [0, 1]
    assert len(second["witnesses"]) == DIAMOND.edge_count


def test_mintough_methods_agree(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Cq\nDBw\nBw\n")
    outputs = set()
    for method in ("definition", "criterion", "both"):
        rc, out, _ = _run(capsys, ["mintough", "--method", method, str(path)])
        assert rc == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_mintough_both_fails_when_deciders_disagree(monkeypatch, tmp_path):
    import toughlab.cli as cli
    from toughlab.mintough import CrossCheckError, MinToughStatus, MinToughVerdict

    path = tmp_path / "in.g6"
    path.write_text("Cq\n")
    wrong = MinToughVerdict(MinToughStatus.NOT_MIN_TOUGH, toughlab.toughness.toughness(parse_graph6("Cq")), (0, 1))
    monkeypatch.setattr(cli, "is_minimally_tough_by_definition", lambda g: wrong)
    # an explicit check, not an assert statement that ``python -O`` would drop
    with pytest.raises(CrossCheckError, match="deciders disagree on Cq"):
        main(["mintough", "--method", "both", str(path)])


def test_classify_net(capsys, monkeypatch):
    rc, out, _ = _run(capsys, ["classify"], stdin="E{O_\n", monkeypatch=monkeypatch)
    assert rc == 0
    assert out == "E{O_: chordal,co-chordal,weakly-chordal,co-net-free,split,hcn-helly\n"
    rc, out, _ = _run(
        capsys, ["classify", "--format", "tsv"], stdin="E{O_\n", monkeypatch=monkeypatch
    )
    assert out == "E{O_\t1\t1\t1\t0\t0\t0\t1\t0\t0\t1\t1\n"
    rc, out, _ = _run(
        capsys, ["classify", "--format", "json"], stdin="E{O_\n", monkeypatch=monkeypatch
    )
    record = json.loads(out)
    assert record["graph6"] == "E{O_"
    assert record["classes"]["split"] is True
    assert record["classes"]["net-free"] is False
    assert len(record["classes"]) == 11


# -- streaming, errors, ordering ---------------------------------------------------------


def test_bad_lines_keep_stream_flowing(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("E]~o\nnot_a_graph\nBw\n")
    rc, out, err = _run(capsys, ["tough", str(path)])
    assert rc == 2
    assert out == "2\ninf\n"
    assert err.startswith(f"{path}:2: bad graph6:")


def test_stdin_dash_and_blank_lines(capsys, monkeypatch):
    rc, out, _ = _run(capsys, ["tough", "-"], stdin="\nD?{\n\nBw\n", monkeypatch=monkeypatch)
    assert rc == 0
    assert out == "1/4\ninf\n"


def test_multiple_input_files(capsys, tmp_path):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    a.write_text("Bw\n")
    b.write_text("Cq\n")
    rc, out, _ = _run(capsys, ["tough", str(a), str(b)])
    assert rc == 0 and out == "inf\n1/2\n"


def test_jobs_output_is_identical(capsys, tmp_path):
    path = tmp_path / "in.g6"
    lines = [write_graph6(g) for g in enumerate_graphs(5)]
    path.write_text("\n".join(lines) + "\n")
    rc1, out1, _ = _run(capsys, ["mintough", str(path)])
    rc4, out4, _ = _run(capsys, ["mintough", "--jobs", "4", str(path)])
    assert (rc1, rc4) == (0, 0)
    assert out1 == out4
    assert len(out1.splitlines()) == 34


def test_jobs_capped_at_cpu_count(capsys, tmp_path, monkeypatch):
    """--jobs asks for at most one worker per CPU; a stand-in pool that maps
    in this process records the request, so no process is started."""
    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("toughlab.cli.os.cpu_count", lambda: 3)
    path = tmp_path / "in.g6"
    path.write_text("\n".join(write_graph6(g) for g in enumerate_graphs(5)) + "\n")
    for command in ("tough", "mintough"):
        rc1, out1, _ = _run(capsys, [command, "--jobs", "1", str(path)])
        rc, out, _ = _run(capsys, [command, "--jobs", "1000000", str(path)])
        assert (rc1, rc) == (0, 0) and out == out1
    assert requested == [3, 3]
    # an unknown CPU count runs in this process, with no pool at all
    monkeypatch.setattr("toughlab.cli.os.cpu_count", lambda: None)
    want = _run(capsys, ["tough", str(path)])[1]
    assert _run(capsys, ["tough", "--jobs", "1000000", str(path)])[1] == want
    assert requested == [3, 3]


def test_cli_import_starts_no_pool_machinery():
    # only --jobs > 1 imports the process pool, so a one-process run skips it
    src = Path(toughlab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    probe = ("import sys, toughlab.cli\n"
             "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=env)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_jobs_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["tough", "--jobs", "0"])
    assert exc_info.value.code == 2


# -- enumerate and its gate ----------------------------------------------------------------


def test_enumerate_counts(capsys):
    rc, out, _ = _run(capsys, ["enumerate", "4"])
    assert rc == 0
    codes = out.splitlines()
    assert len(codes) == 11
    assert set(codes) == {
        canonical_code(g) for g in enumerate_graphs(4)
    }
    rc, out, _ = _run(capsys, ["enumerate", "5", "--connected"])
    assert len(out.splitlines()) == 21
    rc, out, _ = _run(capsys, ["enumerate", "0"])
    assert out == "?\n"


def test_enumerate_rejects_negative(capsys):
    rc, _, err = _run(capsys, ["enumerate", "-1"])
    assert rc == 2 and "n must be >= 0" in err


def test_nmax_gate(capsys, monkeypatch):
    monkeypatch.delenv(NMAX_OVERRIDE_ENV, raising=False)
    rc, _, err = _run(capsys, ["enumerate", "9"])
    assert rc == 2 and NMAX_OVERRIDE_ENV in err
    rc, _, err = _run(capsys, ["enumerate", "11"])
    assert rc == 2 and "n <= 10" in err
    # the override allows 9 and 10 (with a warning) but never 11
    monkeypatch.setenv(NMAX_OVERRIDE_ENV, "1")
    _gate_nmax(9)
    assert "may take a long time" in capsys.readouterr().err
    with pytest.raises(CliError):
        _gate_nmax(11)


# -- verification subcommands -----------------------------------------------------------


def test_verify_table1_json(capsys):
    rc, out, _ = _run(capsys, ["verify", "table1", "--lmax", "3", "--format", "json"])
    assert rc == 0
    blob = json.loads(out)
    assert blob["verified"] is True
    assert len(blob["rows"]) == 13


def test_verify_theorem_targets(capsys):
    rc, out, _ = _run(capsys, ["verify", "p4free", "--nmax", "5"])
    assert rc == 0 and "VERIFIED" in out
    rc, out, _ = _run(capsys, ["verify", "COCHORDAL-GE3", "--nmax", "5", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["theorem"] == "COCHORDAL_GE3"


def test_verify_kriesell_and_codiam(capsys):
    rc, out, _ = _run(capsys, ["verify", "kriesell", "--class", "p4-free", "--nmax", "5"])
    assert rc == 0 and "asserted" in out
    rc, out, _ = _run(capsys, ["verify", "kriesell", "--nmax", "5"])
    assert rc == 0 and "report only" in out
    rc, out, _ = _run(capsys, ["verify", "codiam", "--nmax", "5"])
    assert rc == 0 and "VERIFIED" in out


def test_verify_all_small(capsys):
    rc, out, _ = _run(capsys, ["verify", "all", "--nmax", "4", "--lmax", "5"])
    assert rc == 0
    reports = out.strip().split("\n\n")
    assert len(reports) == 15  # 6 theorems + 2 value tables + 6 kriesell + codiam
    assert sum("DISCREPANC" in r or "COUNTEREXAMPLE" in r or "MISMATCH" in r for r in reports) == 0


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["verify", "all", "--nmax", "7", "--format", "json"],
         "10d1266d323b36683be3fcaa4fff7834a23b6a57aae38f9fc81407bf73222e32"),
        (["verify", "all", "--nmax", "7"],
         "9695a9c7251cf2cfbaae2697c375e0bd35ed8b3f10cd26e852cdd83eef64922f"),
        (["probe", "--nmax", "7", "--format", "json"],
         "47598428982048ac2e1fdaebd5fb103e39af37c973a07249e410beea03ad0fa3"),
        (["verify", "all", "--nmax", "8", "--format", "json"],
         "79d3364b8275e94a443af88e55d4a07347a71da403d290be86fdbac6e43384f5"),
        (["probe", "--nmax", "8", "--format", "json"],
         "3a4e07a070702186b6b705dacd9b743a96185accf9152556157e817a46661e69"),
        pytest.param(
            ["verify", "all", "--nmax", "9", "--format", "json"],
            "6251dddf21a4b28469a7d855bad479b5c33efadaefdcd446bae0d1a3adb8ab3e",
            marks=pytest.mark.skipif(not os.environ.get("TOUGHLAB_SLOW"),
                                     reason="set TOUGHLAB_SLOW=1 (n = 9 census)"),
        ),
    ],
    ids=["verify-all-json", "verify-all-table", "probe-json", "verify-all-json-8",
         "probe-json-8", "verify-all-json-9"],
)
def test_report_bytes_frozen(capsys, monkeypatch, argv, digest):
    monkeypatch.setenv(NMAX_OVERRIDE_ENV, "1")  # lets n = 9 past the gate
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


#: every class on 6 vertices, then named graphs on 9-12 vertices, one per line
_LINE_SPECS = ("wheel:9", "turan:10,5", "doublestar:3,4", "triplestar:2,2,2",
               "cycle:10", "path:9", "net", "conet")
_LINE_DIGESTS = {
    ("tough",): {
        "table": "ca26d41129cf34d4b6d94814a82800fbc4cb2a4874068f80e2f9226779f5e42a",
        "tsv": "34f17ae09743bf7e707bc3856208a0e899f379db8fdc7b190d869746c56341a7",
        "json": "f86ad9a8988f00347d9e5352f1fc42a46134af32305aa0d3e01770df4d630701"},
    ("mintough", "--method", "both"): {
        "table": "f0e6d42c0bd6fecb6c2870561c4dd73fc125fed652f2ab589118087fda72da85",
        "tsv": "a9bab34e77f9623380798e9f2f224a555d297afd606bcbd8b59e1c4dc714787d",
        "json": "cb9f81afdf3a0fc7fc50f1aa3226ed968278e18bcad9d745f55f012ba49fd1bb"},
    ("classify",): {
        "table": "fd1367f15c6f84a6d76b21ef040b0407c329af5c809da294427a6d19d41b34fe",
        "tsv": "3625bafa11e374495c8e554853fb3dcc4150000c25336a7839802f197d87d6c6",
        "json": "635e721dd2ff5fff109684281e953a2c6beafc64d5d1a7a5d04dad156e69b7c9"},
}


@pytest.fixture(scope="module")
def line_corpus(tmp_path_factory):
    lines = [write_graph6(g) for g in enumerate_graphs(6)]
    lines += [write_graph6(make_named(parse_family_spec(s))) for s in _LINE_SPECS]
    text = "".join(line + "\n" for line in lines)
    assert len(lines) == 164
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "d0d564c34aefb2ee6d92ce78c757dcb9c3e04228e4b29ceeeafade259261c5fe")
    path = tmp_path_factory.mktemp("lines") / "corpus.g6"
    path.write_text(text, encoding="ascii")
    return str(path)


@pytest.mark.parametrize("fmt", ("table", "tsv", "json"))
@pytest.mark.parametrize("cmd", list(_LINE_DIGESTS), ids=lambda cmd: cmd[0])
def test_line_bytes_frozen(capsys, line_corpus, cmd, fmt):
    rc, out, err = _run(capsys, [*cmd, "--format", fmt, line_corpus])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == _LINE_DIGESTS[cmd][fmt]


#: every class on 6 vertices, then named graphs on 11-13 vertices, one per line
_MINTOUGH_SPECS = ("wheel:12", "turan:12,4", "cycle:13", "doublestar:4,5", "triplestar:3,3,3",
                   "multipartite:3,4,5", "path:11", "star:10")
#: ``mintough --method both|definition|criterion`` on that corpus; the table
#: text and the definition decider's json carry no per-edge witnesses, so
#: the tsv bytes, and the json bytes of both and criterion, are shared
_MINTOUGH_TSV = "e54069f11eb0b8d1158b1919640a1aafa99bd16041d4a383b4afba5cbbb84abe"
_MINTOUGH_JSON = "1f225c40426d89749525d0eb740e3366d98a91f5bcdef0de5c549f2d6ae33422"
_MINTOUGH_DIGESTS = {
    ("both", "tsv"): _MINTOUGH_TSV,
    ("both", "json"): _MINTOUGH_JSON,
    ("definition", "tsv"): _MINTOUGH_TSV,
    ("definition", "json"): "71b7156a16a14a2954927bf0977a766b1491221b8c99c18417f238d749b8e3c9",
    ("criterion", "tsv"): _MINTOUGH_TSV,
    ("criterion", "json"): _MINTOUGH_JSON,
}


@pytest.fixture(scope="module")
def mintough_corpus(tmp_path_factory):
    lines = [write_graph6(g) for g in enumerate_graphs(6)]
    lines += [write_graph6(make_named(parse_family_spec(s))) for s in _MINTOUGH_SPECS]
    text = "".join(line + "\n" for line in lines)
    assert len(lines) == 164
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "28cab0f6cbf7532cc0a70bd37fd59b7f0ad84e7244afa0b4bec78587bc92fcca")
    path = tmp_path_factory.mktemp("mintough") / "corpus.g6"
    path.write_text(text, encoding="ascii")
    return str(path)


@pytest.mark.parametrize("method, fmt", list(_MINTOUGH_DIGESTS), ids="-".join)
def test_mintough_bytes_frozen(capsys, mintough_corpus, method, fmt):
    """Each decider's per-graph output, witnesses and failing edges
    included, is byte-identical across changes to either decider."""
    rc, out, err = _run(capsys, ["mintough", "--method", method, "--format", fmt, mintough_corpus])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == _MINTOUGH_DIGESTS[method, fmt]


def test_verify_exit_code_follows_assertive_reports(capsys, monkeypatch):
    from toughlab import cli
    from toughlab.verify import CoDiamExclusionReport, KriesellReport

    def kriesell(assertive):
        return lambda klass, n_max: KriesellReport(klass, n_max, assertive, ((1, 1),), ("@",))

    monkeypatch.setattr(cli, "kriesell_scan", kriesell(False))
    assert _run(capsys, ["verify", "kriesell", "--nmax", "1"])[0] == 0
    monkeypatch.setattr(cli, "kriesell_scan", kriesell(True))
    assert _run(capsys, ["verify", "kriesell", "--nmax", "1"])[0] == 1
    monkeypatch.setattr(cli, "verify_codiam_exclusions",
                        lambda n_max: CoDiamExclusionReport(n_max, 0, ("@",), 0, ()))
    assert _run(capsys, ["verify", "codiam", "--nmax", "1"])[0] == 1


def test_verify_all_tests_each_graph_once_per_recognizer(capsys, monkeypatch):
    # every scan reads one member list per class and order, so no census graph
    # reaches a class test twice; the five hereditary classes are decided by a
    # test anchored at the last vertex, run only where the parent is in class,
    # and a universal vertex from the last vertex's row: no whole-graph test
    from collections import Counter

    from toughlab import classes, verify
    from toughlab.graphs import delete_vertex

    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(g, *args, **kwargs):
            calls[name, g, args] += 1
            return fn(g, *args, **kwargs)

        return wrapper

    whole = ("is_complete_multipartite", "universal_vertices")
    #: each anchored test and the whole-graph test the parent must pass first
    anchored = {
        "has_p4_through": classes.is_p4_free,
        "has_co_hole_through": classes.is_co_chordal,
        "has_net_through": lambda g: classes.is_co_chordal(g) and classes.is_net_free(g),
        "has_co_cycle_through": classes.is_complement_of_forest,
        "has_co_p3_through": classes.is_complete_multipartite,
    }
    for name in whole + tuple(anchored):
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    for value in list(vars(verify).values()):
        if hasattr(value, "cache_clear"):
            value.cache_clear()  # start cold, so every membership test runs here
    rc, _, _ = _run(capsys, ["verify", "all", "--nmax", "6"])
    assert rc == 0
    assert {name for name, _, _ in calls} == set(anchored)
    assert [key for key, count in calls.items() if count > 1] == []
    assert len({(name, g) for name, g, _ in calls}) == len(calls)
    for name, g, args in calls:
        if name in anchored:
            assert args == (g.n - 1,)
            assert anchored[name](delete_vertex(g, g.n - 1)), (name, g)
        if name == "has_net_through":
            assert classes.is_co_chordal(g)


_SCAN_NAMES = ("verify_theorem", "verify_table1", "verify_wheels", "kriesell_scan",
               "verify_codiam_exclusions", "probe_conjecture_cochordal_diam2")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "P4FREE", "--nmax", "0"],
        ["verify", "all", "--nmax", "-1"],
        ["verify", "table1", "--lmax", "1"],
        ["verify", "wheels", "--lmax", "3"],
        ["verify", "all", "--lmax", "3"],
        ["probe", "--nmax", "10"],
        ["verify", "table1", "--lmax", "16"],
        ["verify", "wheels", "--lmax", "32"],
        ["verify", "all", "--lmax", "16"],
    ],
)
def test_bad_bounds_refused_before_any_scan(capsys, monkeypatch, argv):
    from toughlab import cli

    def scan(*args, **kwargs):
        raise AssertionError("a scan started")

    for name in _SCAN_NAMES:
        monkeypatch.setattr(cli, name, scan)
    monkeypatch.setenv(NMAX_OVERRIDE_ENV, "1")  # so probe's own bound is what refuses 10
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith("toughlab: error: ") and err.count("\n") == 1


def test_cross_check_error_in_a_scan_propagates(monkeypatch):
    from toughlab import cli
    from toughlab.mintough import CrossCheckError

    def scan(*args, **kwargs):
        raise CrossCheckError("routes disagree")

    monkeypatch.setattr(cli, "verify_theorem", scan)
    with pytest.raises(CrossCheckError, match="routes disagree"):
        main(["verify", "P4FREE", "--nmax", "3"])


def test_verify_unknown_target(capsys):
    rc, _, err = _run(capsys, ["verify", "nosuch"])
    assert rc == 2 and "unknown verify target" in err


def test_probe_cli(capsys):
    rc, out, _ = _run(capsys, ["probe", "--nmax", "5"])
    assert rc == 0 and "minimally tough hits: 0" in out
    rc, out, _ = _run(capsys, ["probe", "--nmax", "6", "--format", "json"])
    blob = json.loads(out)
    assert blob["all_triple_star"] is True
    assert [hit["graph6"] for hit in blob["hits"]] == ["E@UW"]


# -- console-script entry point -----------------------------------------------------------


def _declared_console_script(name: str = "toughlab") -> str:
    """The `module:function` target the project declares for the `name` script."""
    from importlib.metadata import entry_points

    for entry in entry_points(group="console_scripts"):
        if entry.name == name:
            return entry.value
    # Not installed: read the declaration from the checkout's pyproject.toml.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_console_script_smoke():
    # Children import the same toughlab tree as this process, whether or not
    # the package is installed and whatever PYTHONPATH holds.
    src = Path(toughlab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    # Call the declared entry point the way a console-script wrapper does.
    module, _, attr = _declared_console_script().partition(":")
    wrapper = (
        f"import sys\nfrom {module} import {attr}\n"
        f"sys.argv[0] = 'toughlab'\nsys.exit({attr}())\n"
    )
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("toughlab")
    if installed is not None:
        commands.append([installed])
    for command in commands:
        proc = subprocess.run(
            [*command, "named", "path:3"], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, (command, proc.stderr)
        assert proc.stdout == "Bg\n"

    pipe = subprocess.run(
        [sys.executable, "-m", "toughlab.cli", "tough"],
        input="Bg\n",
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert pipe.returncode == 0
    assert pipe.stdout == "1/2\n"


def test_no_bare_asserts_in_the_package():
    # python -O drops assert statements; invariants raise CrossCheckError
    import ast

    package = Path(toughlab.__file__).parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert found == [], f"{path.name}: assert at lines {found}"


def test_submodule_imports_bind_modules():
    # the package re-exports no function named after a submodule, so these
    # bind the modules themselves
    import types

    import toughlab.connectivity as connectivity_module
    import toughlab.toughness as toughness_module

    assert isinstance(connectivity_module, types.ModuleType)
    assert isinstance(toughness_module, types.ModuleType)
    assert connectivity_module.local_connectivity.__module__ == "toughlab.connectivity"
    assert toughness_module.toughness.__module__ == "toughlab.toughness"
