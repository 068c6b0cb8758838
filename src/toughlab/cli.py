"""Command-line front door: per-graph queries and batch verification.

Per-graph subcommands (tough, mintough, classify) stream graph6 lines from
files or stdin, one output line per input line, in input order even when
--jobs spreads the work over worker processes.  Bad graph6 lines go to
stderr with their source position and flip the exit code to 2; valid lines
keep flowing.  Harness subcommands (verify, probe) print a report and exit
1 when an asserted check found a discrepancy.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Callable, Iterable, Iterator, TextIO

from .canon import _MAX_CANON, census_codes, enumerate_graphs
from .classes import CLASS_PREDICATES
from .connectivity import is_connected
from .families import make_named, parse_family_spec
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .mintough import (
    CrossCheckError,
    MinToughStatus,
    is_minimally_tough_by_criterion,
    is_minimally_tough_by_definition,
    verdict_to_json,
)
from .toughness import format_toughness, toughness
from .verify import (
    KRIESELL_CLASS_FILTERS,
    PROBE_N_MAX,
    TABLE1_L_MAX,
    THEOREM_IDS,
    WHEELS_L_MAX,
    kriesell_scan,
    probe_conjecture_cochordal_diam2,
    verify_codiam_exclusions,
    verify_table1,
    verify_theorem,
    verify_wheels,
)

NMAX_OVERRIDE_ENV = "TOUGHLAB_NMAX_OVERRIDE"

_STATUS_TEXT = {
    MinToughStatus.TRIVIALLY_MIN_TOUGH: "TriviallyMinTough",
    MinToughStatus.NON_TRIVIALLY_MIN_TOUGH: "NonTriviallyMinTough",
    MinToughStatus.NOT_MIN_TOUGH: "NotMinTough",
}


class CliError(Exception):
    """Usage-level failure; rendered to stderr with exit code 2."""


def _gate_nmax(n: int, least: int = 1) -> None:
    if n < least:
        raise CliError(f"n must be >= {least}")
    if n > _MAX_CANON:
        raise CliError(f"enumeration is limited to n <= {_MAX_CANON}")
    if n >= 9:
        cost = ("n = 9 takes about 10 seconds to enumerate and about 30 seconds for "
                "'verify all' on 2 vCPUs, n = 10 far longer")
        if not os.environ.get(NMAX_OVERRIDE_ENV):
            raise CliError(f"n = {n} is slow: {cost}; set {NMAX_OVERRIDE_ENV}=1 to allow it")
        print(f"warning: n = {n} may take a long time: {cost}", file=sys.stderr)


# -- per-line workers (top-level so they pickle for --jobs) ------------------------


def _line_tough(args: argparse.Namespace, line: str) -> str:
    g = parse_graph6(line)
    value = format_toughness(toughness(g))
    if args.format == "table":
        return value
    if args.format == "tsv":
        return f"{write_graph6(g)}\t{value}"
    return json.dumps({"graph6": write_graph6(g), "toughness": value})


def _line_mintough(args: argparse.Namespace, line: str) -> str:
    g = parse_graph6(line)
    witnesses = []
    if args.method == "definition":
        verdict = is_minimally_tough_by_definition(g)
    else:
        verdict, witnesses = is_minimally_tough_by_criterion(g)
        if args.method == "both":
            ref = is_minimally_tough_by_definition(g)
            if (ref.status, ref.toughness, ref.failing_edge) != (
                verdict.status,
                verdict.toughness,
                verdict.failing_edge,
            ):
                raise CrossCheckError(f"deciders disagree on {write_graph6(g)}")
    if args.format == "json":
        return json.dumps(verdict_to_json(g, verdict, witnesses))
    status = _STATUS_TEXT[verdict.status]
    value = format_toughness(verdict.toughness)
    edge = "-" if verdict.failing_edge is None else "{}-{}".format(*verdict.failing_edge)
    if args.format == "tsv":
        return f"{write_graph6(g)}\t{status}\t{value}\t{edge}"
    out = f"{status}, tau={value}"
    if verdict.failing_edge is not None:
        out += f", failing_edge={edge}"
    return out


def _line_classify(args: argparse.Namespace, line: str) -> str:
    g = parse_graph6(line)
    flags = {name: bool(fn(g)) for name, fn in CLASS_PREDICATES.items()}
    g6 = write_graph6(g)
    if args.format == "table":
        return f"{g6}: " + ",".join(name for name, hit in flags.items() if hit)
    if args.format == "tsv":
        return "\t".join([g6] + ["1" if flags[name] else "0" for name in CLASS_PREDICATES])
    return json.dumps({"graph6": g6, "classes": flags})


def _process_record(
    worker: Callable[[str], str], record: tuple[str, int, str]
) -> tuple[str, int, bool, str]:
    src, lineno, line = record
    try:
        return src, lineno, True, worker(line)
    except Graph6Error as exc:
        return src, lineno, False, f"bad graph6: {exc}"


# -- input plumbing -----------------------------------------------------------------


def _read_lines(fh: TextIO, src: str) -> Iterator[tuple[str, int, str]]:
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if line:
            yield src, lineno, line


def _input_records(paths: list[str]) -> Iterator[tuple[str, int, str]]:
    for path in paths or ["-"]:
        if path == "-":
            yield from _read_lines(sys.stdin, "<stdin>")
        else:
            with open(path, "r", encoding="ascii") as fh:
                yield from _read_lines(fh, path)


def _drive(
    records: Iterable[tuple[str, int, str]], worker: Callable[[str], str], jobs: int
) -> int:
    fn = partial(_process_record, worker)
    # the pool forks every worker at once: at most one per CPU this process may use
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(jobs, cpus)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # only worker pools need it
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return _emit(pool.map(fn, records, chunksize=16))
    return _emit(map(fn, records))


def _emit(results: Iterable[tuple[str, int, bool, str]]) -> int:
    code = 0
    for src, lineno, ok, out in results:
        if ok:
            print(out)
        else:
            print(f"{src}:{lineno}: {out}", file=sys.stderr)
            code = 2
    return code


# -- subcommands ---------------------------------------------------------------------


def _cmd_lines(args: argparse.Namespace) -> int:
    return _drive(_input_records(args.paths), partial(args.line, args), args.jobs)


def _cmd_named(args: argparse.Namespace) -> int:
    for text in args.specs:
        try:
            spec = parse_family_spec(text)
            g = make_named(spec)
        except ValueError as exc:
            raise CliError(f"bad family spec {text!r}: {exc}") from exc
        print(write_graph6(g))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    _gate_nmax(args.n, least=0)
    for g, code in zip(enumerate_graphs(args.n), census_codes(args.n)):
        if not args.connected or is_connected(g):
            print(code)
    return 0


#: the --lmax range of the targets that read it; 0 selects their default
_LMAX_RANGE = {"table1": (2, TABLE1_L_MAX), "wheels": (5, WHEELS_L_MAX),
               "all": (5, TABLE1_L_MAX)}


def _verify_report(target: str, nmax: int, lmax: int, klass: str):
    """The report of one verify target other than all."""
    key = target.strip().lower()
    normalized = key.upper().replace("-", "_")
    if normalized in THEOREM_IDS:
        return verify_theorem(normalized, nmax)
    if key == "table1":
        return verify_table1(lmax or 5)
    if key == "wheels":
        return verify_wheels(lmax or 9)
    if key == "kriesell":
        return kriesell_scan(klass, nmax)
    if key == "codiam":
        return verify_codiam_exclusions(nmax)
    known = ", ".join(("all", "table1", "wheels", "kriesell", "codiam") + THEOREM_IDS)
    raise CliError(f"unknown verify target {target!r}; known: {known}")


def _cmd_verify(args: argparse.Namespace) -> int:
    _gate_nmax(args.nmax)
    target = args.target.strip().lower()
    least, most = _LMAX_RANGE.get(target, (0, None))
    if args.lmax and args.lmax < least:
        raise CliError(f"--lmax must be >= {least} for {target}")
    if most is not None and args.lmax > most:
        raise CliError(f"--lmax must be <= {most} for {target}")
    steps = [(args.target, args.klass)]
    if target == "all":
        steps = [(t, args.klass) for t in THEOREM_IDS + ("table1", "wheels")]
        steps += [("kriesell", k) for k in KRIESELL_CLASS_FILTERS] + [("codiam", args.klass)]
    reports = [_verify_report(t, args.nmax, args.lmax, k) for t, k in steps]
    if args.format == "json":
        payload = [rep.to_json() for rep in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        print("\n\n".join(rep.render() for rep in reports))
    # only the unrestricted degree-ceiling scan reports without asserting
    failed = any(getattr(rep, "assertive", True) and not rep.verified for rep in reports)
    return 1 if failed else 0


def _cmd_probe(args: argparse.Namespace) -> int:
    if args.nmax > PROBE_N_MAX:
        raise CliError(f"probe is limited to n <= {PROBE_N_MAX}")
    _gate_nmax(args.nmax)
    report = probe_conjecture_cochordal_diam2(args.nmax)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0


# -- parser ----------------------------------------------------------------------------


def _add_line_command(sub, name: str, help_text: str,
                      worker: Callable[[argparse.Namespace, str], str]):
    p = sub.add_parser(name, help=help_text)
    p.add_argument("paths", nargs="*", metavar="FILE",
                   help="graph6 files; '-' or no argument reads stdin")
    p.add_argument("--format", choices=("table", "tsv", "json"), default="table")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="worker processes, at most one per CPU; output order is preserved")
    p.set_defaults(func=_cmd_lines, line=worker)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toughlab",
        description="Exact graph toughness laboratory: per-graph queries over "
        "graph6 streams and exhaustive verification of the minimal-toughness "
        "classification results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_line_command(sub, "tough", "exact toughness per input graph", _line_tough)
    p = _add_line_command(sub, "mintough", "minimal-toughness verdict per input graph",
                          _line_mintough)
    p.add_argument("--method", choices=("definition", "criterion", "both"), default="both",
                   help="decider; 'both' asserts agreement")
    _add_line_command(sub, "classify", "graph-class membership vector per input graph",
                      _line_classify)

    p = sub.add_parser("named", help="emit graph6 of named family instances")
    p.add_argument("specs", nargs="+", metavar="SPEC",
                   help="family specs like turan:6,3 doublestar:1,1 wheel:5 net")
    p.set_defaults(func=_cmd_named)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("target",
                   help="all | table1 | wheels | kriesell | codiam | " + " | ".join(THEOREM_IDS))
    p.add_argument("--nmax", type=int, default=8, metavar="N")
    p.add_argument("--lmax", type=int, default=0, metavar="L",
                   help=f"parameter bound for table1 (default 5, at most {TABLE1_L_MAX}) "
                        f"and wheels (default 9, at most {WHEELS_L_MAX})")
    p.add_argument("--class", dest="klass", choices=KRIESELL_CLASS_FILTERS, default="all",
                   help="class filter for the kriesell target")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("probe", help="report minimally tough co-chordal graphs of co-diameter 2")
    p.add_argument("--nmax", type=int, default=8, metavar="N")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("enumerate", help="stream graph6 for all graphs on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"toughlab: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
