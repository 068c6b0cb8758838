"""toughlab benchmark: one command, two workloads, checked outputs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

* ``census-n8``: ``verify all --nmax 8 --format json``, the whole census of
  13,598 classes on 1..8 vertices.  The input is fixed, so the seed is
  unused; a run is one job per lane, however long it takes.
* ``stream-mintough``: one seeded graph6 stream of 52 graphs through
  ``mintough --method both --format tsv``, written to a file before timing
  starts and fed to one fresh process after another for about ``--seconds``.

The program runs as ``python3 -m toughlab.cli`` with ``PYTHONPATH=src`` and
``--jobs 1``, one process per job.  Jobs run in lanes, one per core (at most
two), so a run holds twice the samples its time would hold in one lane; two
single-process jobs on two cores do not slow each other.  A stream lane starts
another job while it would end, on average, before ``--seconds`` have
passed, and a run has at least four.  Each job is a sample, and ``wall_s``
is their median: a shared host slows a process in bursts and in phases of
tens of seconds, and the median of some sixteen jobs spread over the run
follows the phases less than one long job does.  ``graphs_per_s`` is the
job's input graphs over that median.  Set-up time is the median of several
fresh processes that import the package, build the parser and do no graph
work.

``--trace 0`` reports the end-to-end metrics, measured untraced.  ``--trace 1``
runs the same jobs through ``perfbench/traced.py`` instead, and reports the
per-layer metrics derived from their spans.  ``trace.overhead_s`` is the
span count times the cost of one span, which the traced process measures.

Outputs are checked after timing stops; every miss counts as a failure.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when one failed and 2 when the checkout has no program.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from array import array
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import streams  # noqa: E402  (the benchmark's own module, next to this file)

WORK = ROOT / ".perfbench"
CLI = [sys.executable, "-m", "toughlab.cli"]
SETUP_ARGV = CLI + ["named", "path:1"]
SETUP_REPEATS = 8
CENSUS_ARGV = ["verify", "all", "--nmax", "8", "--format", "json"]
MINTOUGH_ARGV = ["mintough", "--method", "both", "--format", "tsv", "--jobs", "1"]
CENSUS_CLASSES = (1, 1, 2, 4, 11, 34, 156, 1044, 12346)  # n = 0..8
CENSUS_GRAPHS = sum(CENSUS_CLASSES[1:])  # verify enumerates n = 1..8
#: graphs per stream whose outputs are re-checked against tests/oracles.py
MINTOUGH_SAMPLE = 3  # order <= 11: toughness and minimal toughness
TOUGHNESS_SAMPLE = 3  # any order: toughness
JOB_TIMEOUT_S = 170
#: fewest repeats of the stream in a run
MIN_REPEATS = 4
#: jobs that run at once, one per core and each a sample: twice the samples
#: in a run's time, and the cores do not slow each other
LANES = min(2, len(os.sched_getaffinity(0)))
STATUS_NONTRIVIAL = "NonTriviallyMinTough"
STATUSES = {"TriviallyMinTough", STATUS_NONTRIVIAL, "NotMinTough"}


# -- running the program ------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_job(argv: list[str], stdin: Path | None, stdout: Path, stderr: Path) -> dict:
    """One fresh process: wall seconds from start to exit, exit code, peak RSS."""
    with open(stdin or os.devnull, "rb") as fin, open(stdout, "wb") as fout, \
            open(stderr, "wb") as ferr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=ferr, cwd=ROOT, env=_env())
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - start
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


class Spawner:
    """Starts the program's processes from a helper forked before the benchmark
    allocates its streams and results.

    Linux carries a process's peak RSS across fork and exec, so a job started
    straight from this process would report at least this process's own
    peak.  The helper's peak is the floor a job's ``rss_mb`` can show.
    ``others`` are the helpers forked before this one, whose pipes this
    helper must not hold open.
    """

    def __init__(self, others: tuple[Spawner, ...] = ()) -> None:
        req_r, req_w = os.pipe()
        res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the helper: run each requested job, reply with its record
            code = 0
            try:
                for other in others:
                    other.requests.close()
                    other.replies.close()
                os.close(req_w)
                os.close(res_r)
                with os.fdopen(req_r) as requests, os.fdopen(res_w, "w") as replies:
                    for line in requests:
                        try:
                            reply = run_job(*json.loads(line))
                        except OSError as exc:
                            reply = {"error": repr(exc)}
                        replies.write(json.dumps(reply) + "\n")
                        replies.flush()
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(res_w)
        self.requests = os.fdopen(req_w, "w")
        self.replies = os.fdopen(res_r)

    def run(self, argv: list[str], stdin: Path | None, stdout: Path, stderr: Path) -> dict:
        self.requests.write(json.dumps([argv, stdin and str(stdin), str(stdout), str(stderr)]) + "\n")
        self.requests.flush()
        reply = json.loads(self.replies.readline() or "null")
        if not isinstance(reply, dict) or "error" in reply:
            raise RuntimeError(f"could not run {argv}: {reply}")
        return reply

    def close(self) -> None:
        self.requests.close()
        self.replies.close()
        os.waitpid(self.pid, 0)


def measure_setup(spawner: Spawner, repeats: int, warm_up: bool) -> tuple[list[float], int]:
    """Set-up samples and the number of failed set-up runs.  The warm-up run,
    which fills __pycache__, is not a sample."""
    out, err = WORK / "setup.out", WORK / "setup.err"
    samples, failed = [], 0
    for i in range(repeats + warm_up):
        job = spawner.run(SETUP_ARGV, None, out, err)
        if job["exit"] != 0 or out.read_text().strip() != "@":
            failed += 1
        if i or not warm_up:
            samples.append(job["wall_s"])
    return samples, failed


def run_traced(spawner: Spawner, cli_argv: list[str], stdin: Path | None, prefix: Path) -> dict:
    argv = [sys.executable, str(HERE / "traced.py"), str(prefix)] + cli_argv
    for stale in (".counters.json", ".spans.bin"):
        prefix.with_suffix(stale).unlink(missing_ok=True)
    job = spawner.run(argv, stdin, prefix.with_suffix(".out"), prefix.with_suffix(".err"))
    if prefix.with_suffix(".counters.json").exists():
        job["counters"] = json.loads(prefix.with_suffix(".counters.json").read_text())
        job["spans"] = read_spans(prefix.with_suffix(".spans.bin"), job["counters"]["span_names"])
    return job


# -- spans to per-layer metrics ------------------------------------------------------


def read_spans(path: Path, names: list[str]) -> dict:
    data = array("q")
    with open(path, "rb") as fh:
        data.fromfile(fh, path.stat().st_size // data.itemsize)
    k = len(data) // 5
    cols = [data[i * k : (i + 1) * k] for i in range(5)]
    return {"names": names, "name": cols[0], "start": cols[1], "end": cols[2], "parent": cols[3]}


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


LAYER_NAMES = ("canon", "graphs", "graph6", "toughness", "connectivity", "mintough",
               "classes", "verify", "cli", "families")
#: the class recognizers that verify's scans call
PREDICATES = ("co-chordal", "p4-free", "complete-multipartite", "net-free", "co-forest")
REPORTS = (
    ["theorem." + t for t in ("P4FREE", "MULTIPARTITE", "COCHORDAL_GE3", "NETFREE_COCHORDAL",
                               "COFOREST", "UNIVERSAL_LE_3_2")]
    + ["table1", "wheels"]
    + ["kriesell." + k for k in ("p4-free", "complete-multipartite", "cochordal-ge3",
                                 "netfree-cochordal", "co-forest", "all")]
    + ["codiam"]
)
CACHE_FACTS = {"_graph_of": "graph_of", "_tau_of": "tau_of", "_mintough": "mintough",
               "_is_cochordal": "is_cochordal", "_codiam_of": "codiam_of"}


def layer_metrics(traced_runs: list[dict], passes: int = 1) -> dict:
    """Per-layer metrics over traced runs; see BENCHMARK.json per_layer.

    Counts and seconds are summed and divided by ``passes``, the number of
    times the runs went over the same input; ratios and percentiles are not.
    """
    calls: dict[str, int] = {}
    total_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    durations: dict[str, list[float]] = {"toughness.toughness": [], "mintough": []}
    dedup_codes = codes_n8 = 0
    classes_enumerated = 0
    caches = {fact: [0, 0] for fact in CACHE_FACTS}
    for run in traced_runs:
        sp = run["spans"]
        names, name, start, end, parent = sp["names"], sp["name"], sp["start"], sp["end"], sp["parent"]
        n = len(name)
        dur = [end[i] - start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        for i in range(n):
            label = names[name[i]]
            calls[label] = calls.get(label, 0) + 1
            total_s[label] = total_s.get(label, 0.0) + dur[i] / 1e9
            self_s[label] = self_s.get(label, 0.0) + (dur[i] - child[i]) / 1e9
            if label == "toughness.toughness":
                durations[label].append(dur[i] / 1e6)
            elif label in ("mintough.criterion", "mintough.definition", "mintough.nontrivial"):
                durations["mintough"].append(dur[i] / 1e6)
            elif label == "canon.canonical_code" and parent[i] >= 0 \
                    and names[name[parent[i]]].startswith("canon.enumerate_graphs."):
                dedup_codes += 1
                codes_n8 += names[name[parent[i]]] == "canon.enumerate_graphs.n8"
        counters = run["counters"]
        classes_enumerated += sum(c for n_, c in counters["enumerated"].items() if n_ != "0")
        for fact, info in counters["caches"].items():
            caches[fact][0] += info["hits"]
            caches[fact][1] += info["hits"] + info["misses"]

    def s(label: str) -> float:
        return self_s.get(label, 0.0)

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    enumerate_labels = [k for k in total_s if k.startswith("canon.enumerate_graphs.")]
    m = {
        "canon.enumerate_s": (sum(total_s[k] for k in enumerate_labels), "s"),
        "canon.enumerate_s.n8": (total_s.get("canon.enumerate_graphs.n8", 0.0), "s"),
        "canon.canonical_code.calls": (calls.get("canon.canonical_code", 0), "count"),
        "canon.canonical_code.calls.n8": (codes_n8, "count"),
        "canon.dedup_ratio": (classes_enumerated / dedup_codes if dedup_codes else 0.0, "ratio"),
        "graphs.validations": (calls.get("graphs.validate", 0), "count"),
        "graphs.validate_s": (s("graphs.validate"), "s"),
        "graph6.parse.calls": (calls.get("graph6.parse", 0), "count"),
        "graph6.parse_s": (s("graph6.parse"), "s"),
        "graph6.write_s": (s("graph6.write"), "s"),
        "toughness.calls": (calls.get("toughness.toughness", 0), "count"),
        "toughness.self_s": (layer_self("toughness"), "s"),
        "toughness.call_ms.p50": (_percentile(durations["toughness.toughness"], 50), "ms"),
        "toughness.call_ms.p99": (_percentile(durations["toughness.toughness"], 99), "ms"),
        "connectivity.local_connectivity.calls":
            (calls.get("connectivity.local_connectivity", 0), "count"),
        "connectivity.local_connectivity.self_s": (s("connectivity.local_connectivity"), "s"),
        "connectivity.co_diameter.self_s": (s("connectivity.co_diameter"), "s"),
        "mintough.criterion.self_s": (s("mintough.criterion"), "s"),
        "mintough.definition.self_s": (s("mintough.definition"), "s"),
        "mintough.nontrivial.self_s": (s("mintough.nontrivial"), "s"),
        "mintough.call_ms.p50": (_percentile(durations["mintough"], 50), "ms"),
        "mintough.call_ms.p99": (_percentile(durations["mintough"], 99), "ms"),
    }
    for pred in PREDICATES:
        m[f"classes.{pred}.self_s"] = (s(f"classes.{pred}"), "s")
    for report in REPORTS:
        m[f"verify.scan_s.{report}"] = (total_s.get(f"verify.scan.{report}", 0.0), "s")
    for fact, key in CACHE_FACTS.items():
        hits, lookups = caches[fact]
        m[f"verify.cache.{key}.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    m["cli.self_s"] = (s("cli.main"), "s")
    m["trace.overhead_s"] = (sum(len(run["spans"]["name"]) * run["counters"]["span_cost_ns"]
                                 for run in traced_runs) / 1e9, "s")
    m = {k: (v / passes if unit in ("s", "count") else v, unit) for k, (v, unit) in m.items()}
    return {"metrics": m,
            "layer_self_s": {layer: layer_self(layer) / passes for layer in LAYER_NAMES}}


# -- output checks --------------------------------------------------------------------


def _load_oracles():
    """tests/oracles.py, imported read-only: independent of everything under src/."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _format_toughness(t) -> str:
    if t == math.inf:
        return "inf"
    f = Fraction(t)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def report_label(rep: dict) -> str:
    if "theorem" in rep:
        return "theorem." + rep["theorem"]
    if "title" in rep:
        return "table1" if rep["title"].startswith("toughness value table") else "wheels"
    if "class" in rep:
        return "kriesell." + rep["class"]
    return "codiam"


def check_census(out_path: Path, exit_code: int) -> list[str]:
    """Problems with one census output; one entry per report that failed."""
    frozen = json.loads((HERE / "census_digest.json").read_text())["reports"]
    if exit_code != 0:
        return [f"exit code {exit_code}"] * len(frozen)
    try:
        payload = json.loads(out_path.read_text())
    except ValueError as exc:
        return [f"output is not JSON: {exc}"] * len(frozen)
    reports = payload.get("reports") if isinstance(payload, dict) else payload
    if not isinstance(reports, list) or len(reports) != len(frozen):
        return ["wrong number of reports"] * len(frozen)
    problems = []
    for rep, want in zip(reports, frozen):
        label = report_label(rep)
        fields = {k: rep.get(k) for k in want["fields"]}
        blob = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
        if label != want["report"]:
            problems.append(f"report {label} where {want['report']} was expected")
        elif rep.get("assertive", True) and rep.get("verified") is not True:
            problems.append(f"{label}: not verified")
        elif hashlib.sha256(blob).hexdigest() != want["sha256"]:
            problems.append(f"{label}: result fields differ from the frozen digest")
    return problems


def check_stream(batch: list, out_path: Path, err_path: Path, exit_code: int) -> list[str]:
    """Problems with one stream batch: one entry per graph with a missing or
    wrong line, or every graph when the process failed."""
    if exit_code != 0:
        return [f"exit code {exit_code}: {err_path.read_text()[-300:]}"] * len(batch)
    lines = out_path.read_text().splitlines()
    problems = [f"{len(batch) - len(lines)} missing lines"] * max(0, len(batch) - len(lines))
    if len(lines) > len(batch):
        problems.append(f"{len(lines) - len(batch)} extra lines")
    for g, line in zip(batch, lines):
        fields = line.split("\t")
        if fields[0] != g.graph6:
            problems.append(f"{g.label}: line for {fields[0]!r}, expected {g.graph6!r}")
        elif len(fields) != 4 or fields[1] not in STATUSES:
            problems.append(f"{g.label}: malformed line {line!r}")
        elif g.toughness is not None and fields[2] != _format_toughness(g.toughness):
            problems.append(f"{g.label}: toughness {fields[2]}, closed form {g.toughness}")
    return problems


def check_sample(batch: list, output: Path, seed: int) -> list[str]:
    """Re-check a seeded sample of a stream's output against tests/oracles.py."""
    oracles = _load_oracles()
    rng = random.Random(seed * 7919 + 1)
    rows = [(g, line.split("\t")) for g, line in zip(batch, output.read_text().splitlines())]
    problems = []
    small = [r for r in rows if r[0].n <= 11]
    picks = [(g, f, True) for g, f in rng.sample(small, min(MINTOUGH_SAMPLE, len(small)))]
    picks += [(g, f, False) for g, f in rng.sample(rows, min(TOUGHNESS_SAMPLE, len(rows)))]
    for g, fields, full in picks:
        tau = _format_toughness(oracles.ref_toughness(g.n, g.edges))
        if fields[2] != tau:
            problems.append(f"{g.label}: toughness {fields[2]}, oracle {tau}")
        if full:
            want = oracles.ref_is_minimally_tough(g.n, g.edges)
            if (fields[1] == STATUS_NONTRIVIAL) != want:
                problems.append(f"{g.label}: status {fields[1]}, oracle minimally tough={want}")
    return problems


# -- workloads ------------------------------------------------------------------------


def in_lanes(spawners: list[Spawner], lane) -> None:
    """Call ``lane(spawner)`` for every spawner at once, one thread each, and
    re-raise the first error once all have returned."""
    errors: list[BaseException] = []

    def guarded(spawner: Spawner) -> None:
        try:
            lane(spawner)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(sp,)) for sp in spawners]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def run_census(args, spawners: list[Spawner]) -> dict:
    out = {"attempted": 0, "problems": [], "jobs": []}
    if args.trace:
        prefix = WORK / "census"
        job = run_traced(spawners[0], CENSUS_ARGV, None, prefix)
        out["jobs"].append(job)
        out["attempted"] += len(REPORTS) + 1
        out["problems"] += check_census(prefix.with_suffix(".out"), job["exit"])
        counts = job.get("counters", {}).get("enumerated", {})
        got = tuple(counts.get(str(n)) for n in range(len(CENSUS_CLASSES)))
        if got != CENSUS_CLASSES:
            out["problems"].append(f"class counts {got}, expected {CENSUS_CLASSES}")
        if "spans" in job:
            out["layers"] = layer_metrics([job])
        return out
    out["jobs"] = [None] * len(spawners)

    def lane(spawner: Spawner) -> None:
        """One census job; each lane's job is a sample."""
        i = spawners.index(spawner)
        out["jobs"][i] = spawner.run(CLI + CENSUS_ARGV, None, WORK / f"census-{i}.out",
                                     WORK / f"census-{i}.err")

    in_lanes(spawners, lane)
    for i, job in enumerate(out["jobs"]):
        out["attempted"] += len(REPORTS)
        out["problems"] += check_census(WORK / f"census-{i}.out", job["exit"])
    out["graphs"] = CENSUS_GRAPHS
    return out


def run_stream(args, spawners: list[Spawner]) -> dict:
    batch = streams.make_stream(args.seed)
    out = {"attempted": 0, "problems": [], "jobs": []}
    stdin = WORK / "stream.g6"
    stdin.write_text("".join(g.graph6 + "\n" for g in batch), encoding="ascii")
    deadline = time.perf_counter() + args.seconds
    lock = threading.Lock()

    def lane(spawner: Spawner) -> None:
        """The same stream in one fresh process after another: together with
        the other lanes at least MIN_REPEATS, and another while it would end,
        on average, before --seconds have passed."""
        while True:
            with lock:
                jobs = out["jobs"]
                if len(jobs) >= MIN_REPEATS and time.perf_counter() + statistics.fmean(
                        j["wall_s"] for j in jobs if j) / 2 >= deadline:
                    return
                prefix = WORK / f"stream-{len(jobs)}"
                jobs.append(None)  # reserves the index
                index = len(jobs) - 1
            if args.trace:
                job = run_traced(spawner, MINTOUGH_ARGV, stdin, prefix)
            else:
                job = spawner.run(CLI + MINTOUGH_ARGV, stdin, prefix.with_suffix(".out"),
                                  prefix.with_suffix(".err"))
            problems = check_stream(batch, prefix.with_suffix(".out"),
                                    prefix.with_suffix(".err"), job["exit"])
            with lock:
                out["jobs"][index] = job
                out["attempted"] += len(batch)
                out["problems"] += problems

    in_lanes(spawners, lane)
    if not out["problems"]:
        out["problems"] += check_sample(batch, WORK / "stream-0.out", args.seed)
    if args.trace:
        if all("spans" in job for job in out["jobs"]):
            out["layers"] = layer_metrics(out["jobs"], passes=len(out["jobs"]))
        return out
    out["graphs"] = len(batch)
    return out


WORKLOADS = {"census-n8": run_census, "stream-mintough": run_stream}


# -- reporting ------------------------------------------------------------------------


def stamp(args) -> dict:
    """What two sets of runs need to be compared side by side."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/toughlab/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: no program to measure here: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    spawners: list[Spawner] = []
    for _ in range(LANES):
        spawners.append(Spawner(tuple(spawners)))
    spawner = spawners[0]
    try:
        info = stamp(args)
        print("stamp " + json.dumps(info, sort_keys=True))
        # set-up samples before and after the jobs, so that they see both ends of the run
        setup, setup_failed = ([], 0) if args.trace else measure_setup(spawner, SETUP_REPEATS // 2, True)
        result = WORKLOADS[args.workload](args, spawners)
        if not args.trace:
            after, after_failed = measure_setup(spawner, SETUP_REPEATS - SETUP_REPEATS // 2, False)
            setup += after
            setup_failed += after_failed
    finally:
        for sp in spawners:
            sp.close()
    attempted = result["attempted"] + (SETUP_REPEATS + 1 if not args.trace else 0)
    problems = result["problems"] + ["set-up run failed"] * setup_failed
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    if args.trace:
        layers = result.get("layers")
        if layers is None:
            problems.append("traced run produced no spans")
            metrics = {}
        else:
            metrics = layers["metrics"]
            for layer, secs in sorted(layers["layer_self_s"].items(), key=lambda kv: -kv[1]):
                print(f"layer {layer:<14} self {secs:10.4f} s")
            for name, (value, unit) in metrics.items():
                print(f"metric {name:<44} value  {value:>14.6f} {unit}")
    else:
        walls = [j["wall_s"] for j in result["jobs"]]
        wall = _median(walls)
        metrics = {
            "wall_s": (wall, "s"),
            "graphs_per_s": (result["graphs"] / wall, "1/s"),
            "setup_s": (_median(setup), "s"),
            "peak_rss_mb": (_median([j["rss_mb"] for j in result["jobs"]]), "MB"),
        }
        for name, (value, unit) in metrics.items():
            count = len(setup) if name == "setup_s" else len(walls)
            print(f"metric {name:<44} median {value:>14.6f} {unit:<6} samples {count}")
        print(f"metric {'failed_ratio':<44} {'':<6} {len(problems) / attempted:>14.6f} "
              f"{'ratio':<6} samples {attempted}")
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": min(len(problems), attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    jobs = [{k: v for k, v in job.items() if k != "spans"} for job in result["jobs"]]
    record = dict(summary, stamp=info, jobs=jobs, problems=problems)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
