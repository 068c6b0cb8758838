"""Command-line front door: per-graph queries and batch verification.

Per-graph subcommands (tough, mintough, classify) stream graph6 lines from
files or stdin, one output line per input line, in input order even when
--jobs spreads the work over worker processes.  Bad graph6 lines go to
stderr with their source position and flip the exit code to 2; valid lines
keep flowing.  Harness subcommands (verify, probe) print a report and exit
1 when an asserted check found a discrepancy.

A command loads only the modules it runs, since a short job is mostly
start-up.  This module imports ``graph6`` and ``graphs``; ``named`` adds
``families``, ``tough`` adds ``toughness`` (with ``connectivity``),
``mintough`` adds ``mintough`` to that, ``classify`` adds ``classes`` (with
``connectivity`` and ``families``), ``enumerate`` adds ``canon`` and
``connectivity``, and ``verify`` and ``probe`` load every module.  The
others are imported inside the functions that read them, ``json`` only
where JSON is written, and ``build_parser(command)`` gives options only to
the command being run.
Nine names stay functions of this module, each a forwarder that imports
its module on its first call: ``toughness``, the two minimal-toughness
deciders, the five verify scans and the probe.  perfbench/traced.py and
the tests replace them here to time or fake the work.
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from typing import Callable, Iterable, Iterator, TextIO

from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import CrossCheckError, Graph

NMAX_OVERRIDE_ENV = "TOUGHLAB_NMAX_OVERRIDE"

#: the table and tsv text of each MinToughStatus, by member name
_STATUS_TEXT = {
    "TRIVIALLY_MIN_TOUGH": "TriviallyMinTough",
    "NON_TRIVIALLY_MIN_TOUGH": "NonTriviallyMinTough",
    "NOT_MIN_TOUGH": "NotMinTough",
}


class CliError(Exception):
    """Usage-level failure; rendered to stderr with exit code 2."""


def _gate_nmax(n: int, least: int = 1) -> None:
    from .canon import _MAX_CANON
    if n < least:
        raise CliError(f"n must be >= {least}")
    if n > _MAX_CANON:
        raise CliError(f"enumeration is limited to n <= {_MAX_CANON}")
    if n >= 9:
        cost = ("n = 9 takes about 5 seconds to enumerate and about 15 seconds for "
                "'verify all' on 2 vCPUs, n = 10 far longer")
        if not os.environ.get(NMAX_OVERRIDE_ENV):
            raise CliError(f"n = {n} is slow: {cost}; set {NMAX_OVERRIDE_ENV}=1 to allow it")
        print(f"warning: n = {n} may take a long time: {cost}", file=sys.stderr)


# -- forwarders: names perfbench/traced.py and the tests replace on this module ----


def toughness(g: Graph):
    from .toughness import toughness
    return toughness(g)


def is_minimally_tough_by_criterion(g: Graph):
    from .mintough import is_minimally_tough_by_criterion
    return is_minimally_tough_by_criterion(g)


def is_minimally_tough_by_definition(g: Graph):
    from .mintough import is_minimally_tough_by_definition
    return is_minimally_tough_by_definition(g)


def verify_theorem(theorem_id: str, n_max: int):
    from .verify import verify_theorem
    return verify_theorem(theorem_id, n_max)


def verify_table1(l_max: int):
    from .verify import verify_table1
    return verify_table1(l_max)


def verify_wheels(l_max: int):
    from .verify import verify_wheels
    return verify_wheels(l_max)


def kriesell_scan(class_filter: str, n_max: int):
    from .verify import kriesell_scan
    return kriesell_scan(class_filter, n_max)


def verify_codiam_exclusions(n_max: int):
    from .verify import verify_codiam_exclusions
    return verify_codiam_exclusions(n_max)


def probe_conjecture_cochordal_diam2(n_max: int):
    from .verify import probe_conjecture_cochordal_diam2
    return probe_conjecture_cochordal_diam2(n_max)


# -- per-line workers (top-level so they pickle for --jobs) ------------------------


def _line_tough(args: argparse.Namespace, line: str) -> str:
    from .toughness import format_toughness
    g = parse_graph6(line)
    value = format_toughness(toughness(g))
    if args.format == "table":
        return value
    if args.format == "tsv":
        return f"{write_graph6(g)}\t{value}"
    import json
    return json.dumps({"graph6": write_graph6(g), "toughness": value})


def _line_mintough(args: argparse.Namespace, line: str) -> str:
    from .mintough import verdict_to_json
    from .toughness import format_toughness
    g = parse_graph6(line)
    witnesses = []
    if args.method == "definition":
        verdict = is_minimally_tough_by_definition(g)
    else:
        verdict, witnesses = is_minimally_tough_by_criterion(g)
        if args.method == "both":
            if is_minimally_tough_by_definition(g) != verdict:
                raise CrossCheckError(f"deciders disagree on {write_graph6(g)}")
    if args.format == "json":
        import json
        return json.dumps(verdict_to_json(g, verdict, witnesses))
    status = _STATUS_TEXT[verdict.status.name]
    value = format_toughness(verdict.toughness)
    edge = "-" if verdict.failing_edge is None else "{}-{}".format(*verdict.failing_edge)
    if args.format == "tsv":
        return f"{write_graph6(g)}\t{status}\t{value}\t{edge}"
    out = f"{status}, tau={value}"
    if verdict.failing_edge is not None:
        out += f", failing_edge={edge}"
    return out


def _line_classify(args: argparse.Namespace, line: str) -> str:
    from .classes import CLASS_PREDICATES
    g = parse_graph6(line)
    flags = {name: bool(fn(g)) for name, fn in CLASS_PREDICATES.items()}
    g6 = write_graph6(g)
    if args.format == "table":
        return f"{g6}: " + ",".join(name for name, hit in flags.items() if hit)
    if args.format == "tsv":
        return "\t".join([g6] + ["1" if flags[name] else "0" for name in CLASS_PREDICATES])
    import json
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
    from .families import make_named, parse_family_spec
    for text in args.specs:
        try:
            spec = parse_family_spec(text)
            g = make_named(spec)
        except ValueError as exc:
            raise CliError(f"bad family spec {text!r}: {exc}") from exc
        print(write_graph6(g))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .canon import census_codes, enumerate_graphs
    from .connectivity import is_connected
    _gate_nmax(args.n, least=0)
    for g, code in zip(enumerate_graphs(args.n), census_codes(args.n)):
        if not args.connected or is_connected(g):
            print(code)
    return 0


def _verify_report(target: str, nmax: int, lmax: int, klass: str | None):
    """The report of one verify target other than all."""
    from .verify import THEOREM_IDS
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
    from .verify import KRIESELL_CLASS_FILTERS, TABLE1_L_MAX, THEOREM_IDS, WHEELS_L_MAX
    _gate_nmax(args.nmax)
    target = args.target.strip().lower()
    # the --lmax range of the targets that read it; 0 selects their default
    lmax_range = {"table1": (2, TABLE1_L_MAX), "wheels": (5, WHEELS_L_MAX),
                  "all": (5, TABLE1_L_MAX)}
    if args.lmax:
        if target not in lmax_range:
            raise CliError(f"--lmax applies only to {', '.join(lmax_range)}, not {target}")
        least, most = lmax_range[target]
        if args.lmax < least:
            raise CliError(f"--lmax must be >= {least} for {target}")
        if args.lmax > most:
            raise CliError(f"--lmax must be <= {most} for {target}")
    if args.klass is not None and target != "kriesell":
        raise CliError(f"--class applies only to kriesell, not {target}")
    steps = [(args.target, args.klass or "all")]
    if target == "all":
        steps = [(t, None) for t in THEOREM_IDS + ("table1", "wheels")]
        steps += [("kriesell", k) for k in KRIESELL_CLASS_FILTERS] + [("codiam", None)]
    reports = [_verify_report(t, args.nmax, args.lmax, k) for t, k in steps]
    if args.format == "json":
        import json
        payload = [rep.to_json() for rep in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        print("\n\n".join(rep.render() for rep in reports))
    # only the unrestricted degree-ceiling scan reports without asserting
    failed = any(rep.assertive and not rep.verified for rep in reports)
    return 1 if failed else 0


def _cmd_probe(args: argparse.Namespace) -> int:
    from .verify import PROBE_N_MAX
    if args.nmax > PROBE_N_MAX:
        raise CliError(f"probe is limited to n <= {PROBE_N_MAX}")
    _gate_nmax(args.nmax)
    report = probe_conjecture_cochordal_diam2(args.nmax)
    if args.format == "json":
        import json
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0


# -- parser ----------------------------------------------------------------------------


#: each command and its help line, in the order --help lists them
_COMMANDS = {
    "tough": "exact toughness per input graph",
    "mintough": "minimal-toughness verdict per input graph",
    "classify": "graph-class membership vector per input graph",
    "named": "emit graph6 of named family instances",
    "verify": "run a verification suite",
    "probe": "report minimally tough co-chordal graphs of co-diameter 2",
    "enumerate": "stream graph6 for all graphs on n vertices",
}


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    """Give the subparser of ``command`` its arguments and handler."""
    worker = {"tough": _line_tough, "mintough": _line_mintough,
              "classify": _line_classify}.get(command)
    if worker is not None:
        p.add_argument("paths", nargs="*", metavar="FILE",
                       help="graph6 files; '-' or no argument reads stdin")
        p.add_argument("--format", choices=("table", "tsv", "json"), default="table")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes, at most one per CPU; output order is preserved")
        p.set_defaults(func=_cmd_lines, line=worker)
    if command == "mintough":
        p.add_argument("--method", choices=("definition", "criterion", "both"), default="both",
                       help="decider; 'both' asserts agreement")
    elif command == "named":
        p.add_argument("specs", nargs="+", metavar="SPEC",
                       help="family specs like turan:6,3 doublestar:1,1 wheel:5 net")
        p.set_defaults(func=_cmd_named)
    elif command == "verify":
        from .verify import KRIESELL_CLASS_FILTERS, TABLE1_L_MAX, THEOREM_IDS, WHEELS_L_MAX
        p.add_argument("target",
                       help="all | table1 | wheels | kriesell | codiam | " + " | ".join(THEOREM_IDS))
        p.add_argument("--nmax", type=int, default=8, metavar="N")
        p.add_argument("--lmax", type=int, default=0, metavar="L",
                       help=f"parameter bound for table1 (default 5, at most {TABLE1_L_MAX}) "
                            f"and wheels (default 9, at most {WHEELS_L_MAX}; the time grows 2-2.5x "
                            f"per step: wheels took 12 s at 27 and 71 s at 29)")
        p.add_argument("--class", dest="klass", choices=KRIESELL_CLASS_FILTERS,
                       help="class filter for the kriesell target (default all)")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.set_defaults(func=_cmd_verify)
    elif command == "probe":
        p.add_argument("--nmax", type=int, default=8, metavar="N")
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.set_defaults(func=_cmd_probe)
    elif command == "enumerate":
        p.add_argument("n", type=int)
        p.add_argument("--connected", action="store_true", help="connected graphs only")
        p.set_defaults(func=_cmd_enumerate)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; given a command, only its subparser
    gets options, so the modules the others read stay unloaded."""
    parser = argparse.ArgumentParser(
        prog="toughlab",
        description="Exact graph toughness laboratory: per-graph queries over "
        "graph6 streams and exhaustive verification of the minimal-toughness "
        "classification results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            _add_options(p, name)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
