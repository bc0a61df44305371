"""End-to-end benchmark of the trusshom command line.

    python3 bench/run.py --workload statics --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each job is one trusshom command on one
generated JSON document, run in a fresh interpreter exactly as
``python -m trusshom`` runs it (see ``job.py``).  The loop is closed, with
one client and one job at a time: a user waits on each command, so the
metrics are per-command waits, not a rate.

A run generates the workload's documents from ``--seed``, times a
start-up-only job several times (``setup_s``), then repeats passes over the
workload's job list for ``--seconds`` seconds and reports medians over the
passes.  Every output is checked with exact arithmetic by ``validate.py``
outside the timed span.  With ``--trace 1`` one more pass runs under the
outside-in layer tracer (``tracer.py``) and the per-layer metrics replace
the end-to-end ones in the result; the spans of that pass are written to
``.bench_work/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its median, quartiles and sample count.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import generators
import tracer
from validate import invalid_reason, invariants

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
JOB = BENCH / "job.py"
RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_PER_PASS = 4


@dataclass(frozen=True)
class Workload:
    structures: dict  # name -> generator(seed)
    jobs: tuple  # (structure name, command)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "statics": Workload(
        {
            "grid": lambda seed: generators.planar_grid(12, seed),
            "lattice": lambda seed: generators.spatial_lattice(4, seed),
        },
        (("grid", "analyze"), ("grid", "maxwell"),
         ("lattice", "analyze"), ("lattice", "maxwell"), ("lattice", "check")),
    ),
    "planar-dual": Workload(
        {"grid": lambda seed: generators.planar_grid(12, seed)},
        (("grid", "dual"), ("grid", "rotations")),
    ),
    "loaded-faces": Workload(
        {"loaded": lambda seed: generators.loaded_grid(10, seed)},
        (("loaded", "relative"), ("loaded", "check")),
    ),
}

# (name, unit) of the metrics in the result line, in BENCHMARK.json order.
END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in tracer.LAYERS]
    + [(f"{layer}.calls", "count") for layer in tracer.LAYERS]
    + [
        ("sparse.rank.self_s", "s"),
        ("sparse.reduce.self_s", "s"),
        ("sparse.repeat_ratio", "1"),
        ("sparse.nnz_in", "count"),
        ("sparse.out_max_bits", "bits"),
        ("sparse.tiny_calls", "count"),
        ("complexes.segment_tests", "count"),
        ("complexes.face_table_builds", "count"),
        ("complexes.poincare_dual.calls", "count"),
        ("cosheaves.assemblies", "count"),
        ("cosheaves.quotient_cosheaf.self_s", "s"),
        ("homology.betti_numbers.calls", "count"),
        ("homology.homology.calls", "count"),
        ("duality.integrations", "count"),
        ("trace.coverage", "1"),
        ("trace.overhead", "1"),
    ]
)


class BenchError(Exception):
    pass


@dataclass
class JobResult:
    wall_s: float
    code: int | None  # None: timed out
    rss_mib: float
    stdout: Path
    svg: Path | None
    spans: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{label}: {reason}")


class Runner:
    """Spawns the jobs of one run and keeps its deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def spawn(self, mode: str, args: list[str], trace: bool = False,
              svg: Path | None = None) -> JobResult:
        self.count += 1
        base = self.workdir / f"job{self.count}"
        rss, out, err = (base.with_suffix(s) for s in (".rss", ".out", ".err"))
        spans = base.with_suffix(".spans")
        cmd = [sys.executable, str(JOB), mode, str(rss)]
        if mode == "run":
            cmd += (["--trace", str(spans)] if trace else []) + ["--", *args]
        else:
            cmd += args
        expired = threading.Event()
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=ROOT)

            def expire():
                expired.set()
                proc.kill()

            # wait() with a timeout polls in steps of up to 50 ms, which would
            # quantize every wall time; a blocking wait sees the exit at once
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), expire)
            timer.start()
            try:
                code = proc.wait()
            except BaseException:  # interrupted: leave no job behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        if expired.is_set():
            code = None
        rss_mib = int(rss.read_text()) / 1024 if rss.is_file() else 0.0
        loaded = json.loads(spans.read_text()) if trace and spans.is_file() else None
        return JobResult(wall, code, rss_mib, out, svg, loaded)


def exit_reason(job: JobResult) -> str | None:
    if job.code is None:
        return "timed out"
    if job.code != 0:
        err = job.stdout.with_suffix(".err").read_text(errors="replace").strip()
        return f"exit code {job.code}: {err[-300:]}"
    return None


@dataclass
class Pass:
    wall_s: float
    peak_rss_mib: float
    jobs: list  # (structure name, command, JobResult) in job-list order


@dataclass(frozen=True)
class Stat:
    """Median, quartiles and sample count of one metric, plus the highest
    tail percentile that has at least ten samples beyond it."""

    median: float
    q1: float
    q3: float
    n: int
    tail: str = "-"

    @classmethod
    def of(cls, values: list[float]) -> "Stat":
        if len(values) == 1:
            return cls(values[0], values[0], values[0], 1)
        q1, med, q3 = statistics.quantiles(values, n=4)
        tail = "-"
        for p in (99.9, 99.0, 90.0):
            if len(values) * (100 - p) / 100 >= 10:
                k = statistics.quantiles(values, n=1000)[round(p * 10) - 1]
                tail = f"p{p:g}={k:.6g}"
                break
        return cls(med, q1, q3, len(values), tail)

    @classmethod
    def total(cls, stats: list["Stat"]) -> "Stat":
        return cls(sum(t.median for t in stats), sum(t.q1 for t in stats),
                   sum(t.q3 for t in stats), min(t.n for t in stats))


class WorkloadRun:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool,
                 workdir: Path, deadline: float):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.workload = WORKLOADS[name]
        self.workdir = workdir / name
        self.workdir.mkdir(parents=True)
        self.runner = Runner(self.workdir, deadline)
        self.tally = Tally()
        self.verdicts: dict[str, str | None] = {}
        self.structures = {k: gen(seed) for k, gen in self.workload.structures.items()}
        self.invariants = {k: invariants(s) for k, s in self.structures.items()}
        self.docs = {}
        for k, s in self.structures.items():
            path = self.workdir / f"{k}.json"
            path.write_text(json.dumps(s.document()))
            self.docs[k] = path

    # -- jobs ---------------------------------------------------------------
    def setup_times(self, reps: int) -> list[float]:
        times = []
        for _ in range(reps):
            job = self.runner.spawn("setup", [str(p) for p in self.docs.values()])
            self.tally.record("setup", exit_reason(job))
            if job.code is None:
                raise BenchError("setup job timed out")
            times.append(job.wall_s)
        return times

    def one_pass(self, trace: bool = False) -> Pass:
        results = []
        t0 = time.perf_counter()
        for k, (sname, command) in enumerate(self.workload.jobs):
            args = [command, str(self.docs[sname])]
            svg = None
            if command == "dual":
                svg = self.workdir / f"dual{k}.svg"
                args += ["--svg", str(svg)]
            job = self.runner.spawn("run", args, trace=trace, svg=svg)
            results.append((sname, command, job))
            if job.code is None:
                break
        wall = time.perf_counter() - t0
        for sname, command, job in results:
            self.tally.record(f"{command} {sname}", self.check(sname, command, job))
        if any(job.code is None for _, _, job in results):
            raise BenchError("a job timed out")
        rss = max(job.rss_mib for _, _, job in results)
        return Pass(wall, rss, results)

    def check(self, sname: str, command: str, job: JobResult) -> str | None:
        reason = exit_reason(job)
        if reason is not None:
            return reason
        stdout = job.stdout.read_text()
        digest = hashlib.sha256(stdout.encode())
        if job.svg is not None and job.svg.is_file():
            digest.update(job.svg.read_bytes())
        key = f"{sname}:{command}:{digest.hexdigest()}"
        if key not in self.verdicts:
            self.verdicts[key] = invalid_reason(
                command, self.structures[sname], self.invariants[sname], stdout, job.svg
            )
        return self.verdicts[key]

    # -- the run --------------------------------------------------------------
    def execute(self) -> dict:
        self.setup_times(1)  # fills the bytecode cache
        setup: list[float] = []
        passes: list[Pass] = []
        measured = 0.0
        while True:
            # set-up samples are spread over the run, so that they see the
            # same machine as the passes rather than one moment of it
            setup += self.setup_times(SETUP_PER_PASS)
            p = self.one_pass()
            passes.append(p)
            measured += p.wall_s
            if measured + p.wall_s > self.seconds:
                break
            if time.monotonic() + 2 * p.wall_s > self.runner.deadline:
                break
        # A job's wait is its median over the passes, and a command's or a
        # pass's wait is the sum of its jobs' medians: bursts of contention on
        # a shared machine last seconds, and then spoil single jobs of a pass
        # rather than every job of it.
        jobs = [Stat.of([p.jobs[k][2].wall_s for p in passes])
                for k in range(len(self.workload.jobs))]
        stats = {
            f"{c}_s": Stat.total([t for (_, c2), t in zip(self.workload.jobs, jobs) if c2 == c])
            for c in dict.fromkeys(c for _, c in self.workload.jobs)
        }
        stats["pass_s"] = Stat.total(jobs)
        stats["setup_s"] = Stat.of(setup)
        stats["peak_rss_mib"] = Stat.of([p.peak_rss_mib for p in passes])
        report = {"stats": stats}
        if self.trace:
            traced = self.one_pass(trace=True)
            dumps = [job.spans for _, _, job in traced.jobs]
            if any(d is None for d in dumps):
                raise BenchError("a traced job wrote no spans")
            report["layers"] = tracer.summarize(
                dumps, traced.wall_s, statistics.median(p.wall_s for p in passes)
            )
            write_trace(self.name, self.seed, traced)
        return report


def write_trace(workload: str, seed: int, traced: Pass) -> None:
    jobs = []
    for k, (sname, command, job) in enumerate(traced.jobs):
        d = job.spans
        jobs.append({
            "job": k, "command": command, "structure": sname,
            "t0": d["t0"], "t1": d["t1"], "counters": d["counters"],
            "spans": [[k, d["names"][n], a, b, p] for n, a, b, p in d["spans"]],
        })
    out = ROOT / ".bench_work" / f"trace-{workload}.json"
    out.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "span_fields": ["job", "name", "start", "end", "parent"], "jobs": jobs,
    }))


def print_report(name: str, seed: int, run: WorkloadRun, report: dict) -> None:
    stats = report["stats"]
    s = run.structures
    print(f"workload {name} (seed {seed})")
    for k, st in s.items():
        print(f"  {k}: {st.name} {json.dumps(run.invariants[k], sort_keys=True)}")
    print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}  {'tail':<14}unit")
    units = {"peak_rss_mib": "MiB"}
    for metric, t in stats.items():
        print(f"  {metric:<16}{t.median:>12.6g}{t.q1:>12.6g}{t.q3:>12.6g}{t.n:>5}  "
              f"{t.tail:<14}{units.get(metric, 's')}")
    t = run.tally
    print(f"  {'failed_ratio':<16}{t.failed / t.attempted:>12.6g}"
          f"{'':>24}{t.attempted:>5}  {'-':<14}1   ({t.failed} of {t.attempted} jobs)")
    for reason in t.reasons[:10]:
        print(f"  FAILED {reason}")
    if "layers" in report:
        print("  per-layer metrics of one traced pass:")
        for metric, unit in PER_LAYER:
            print(f"    {metric:<36}{report['layers'][metric]:>14.6g} {unit}")


def result_metrics(report: dict, trace: bool) -> dict:
    if trace:
        return {m: {"value": report["layers"][m], "unit": u} for m, u in PER_LAYER}
    return {
        m: {"value": report["stats"][m].median, "unit": u}
        for m, u in END_TO_END
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    # a terminated run still stops its job and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "trusshom" / "__init__.py").is_file():
        print(f"no trusshom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    combined = {"attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            # share the run's time limit between the workloads it runs
            budget = (RUN_LIMIT_S - (time.monotonic() - start)) / (len(names) - names.index(name))
            run = WorkloadRun(name, args.seed, args.seconds, bool(args.trace),
                              workdir, time.monotonic() + budget)
            report = run.execute()
            print_report(name, args.seed, run, report)
            metrics = result_metrics(report, bool(args.trace))
            combined["attempted"] += run.tally.attempted
            combined["failed"] += run.tally.failed
            if len(names) == 1:
                combined["metrics"] = metrics
            else:
                combined["metrics"].update({f"{name}.{k}": v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": combined["failed"] == 0, **combined}))
    return 0 if combined["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
