"""Self-tests of the benchmark itself (not of trusshom).

    python3 bench/selftest.py

Checks that the generators are deterministic, that trusshom accepts every
generated document, that the validator rejects corrupted outputs, that
the tracer attributes work to the layers the workloads are built to
stress, and that ``peak_rss_mib`` does not depend on the size of the
process that spawns the jobs.  Takes about half a minute; writes only
under ``.bench_work``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from fractions import Fraction
from pathlib import Path

import generators
import run
import tracer
from validate import invalid_reason, invariants

WORK = run.ROOT / ".bench_work"


def _tmpdir(case: unittest.TestCase) -> Path:
    WORK.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
    case.addCleanup(shutil.rmtree, d, True)
    return d


class Generators(unittest.TestCase):
    FAMILIES = (
        lambda s: generators.planar_grid(12, s),
        lambda s: generators.spatial_lattice(4, s),
        lambda s: generators.loaded_grid(10, s),
    )

    def test_deterministic_per_seed(self):
        for gen in self.FAMILIES:
            for seed in (0, 1, 7):
                self.assertEqual(gen(seed).document(), gen(seed).document())
            self.assertNotEqual(gen(1).document(), gen(2).document())

    def test_seed_zero_is_the_fixed_grid(self):
        s = generators.planar_grid(12, 0)
        for i in range(12):
            for j in range(12):
                k = s.vertex_ids.index(f"v{i}_{j}")
                self.assertEqual(s.points[k], (Fraction(j), i + Fraction(j * j, 97)))

    def test_recorded_sizes(self):
        sizes = {
            "grid12": (144, 325, 183), "lattice4": (64, 216, None),
            "loaded10": (104, 229, 127),
        }
        for gen in self.FAMILIES:
            for seed in (0, 3):
                s = gen(seed)
                inv = invariants(s)
                self.assertEqual((inv["V"], inv["E"], inv.get("F")), sizes[s.name])

    def test_benchmark_json_matches_runner(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))


class ProgramAndValidator(unittest.TestCase):
    """Runs every (document, command) pair of every workload once."""

    @classmethod
    def setUpClass(cls):
        WORK.mkdir(exist_ok=True)
        cls.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
        cls.runs = {}
        for seed in (0, 5):
            for name in run.WORKLOADS:
                wr = run.WorkloadRun(name, seed, 0, False, cls.dir / str(seed),
                                     time.monotonic() + 150)
                cls.runs[(name, seed)] = (wr, wr.one_pass(trace=True))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def test_program_accepts_every_generated_document(self):
        for (name, seed), (wr, p) in self.runs.items():
            with self.subTest(workload=name, seed=seed):
                self.assertEqual(wr.tally.failed, 0, wr.tally.reasons)
                self.assertEqual(wr.tally.attempted, len(wr.workload.jobs))

    def _dual_output(self):
        wr, p = self.runs[("planar-dual", 0)]
        sname, command, job = p.jobs[0]
        self.assertEqual(command, "dual")
        return wr, sname, job, json.loads(job.stdout.read_text())

    def test_validator_rejects_flipped_stress_sign(self):
        wr, sname, job, out = self._dual_output()
        eid = next(k for k, v in out["stress"].items() if Fraction(v))
        out["stress"][eid] = str(-Fraction(out["stress"][eid]))
        reason = invalid_reason("dual", wr.structures[sname], wr.invariants[sname],
                                json.dumps(out), job.svg)
        self.assertIsNotNone(reason)

    def test_validator_rejects_moved_dual_vertex(self):
        wr, sname, job, out = self._dual_output()
        pos = out["dual_vertices"][1]["pos"]
        pos[0] = str(Fraction(pos[0]) + Fraction(1, 3))
        reason = invalid_reason("dual", wr.structures[sname], wr.invariants[sname],
                                json.dumps(out), job.svg)
        self.assertIn("does not close", reason)

    def test_validator_accepts_untouched_output(self):
        wr, sname, job, out = self._dual_output()
        self.assertIsNone(invalid_reason("dual", wr.structures[sname], wr.invariants[sname],
                                         json.dumps(out), job.svg))

    def test_traced_split_between_workloads(self):
        for (name, seed), (wr, p) in self.runs.items():
            with self.subTest(workload=name, seed=seed):
                for sname, command, job in p.jobs:
                    m = tracer.summarize([job.spans], job.wall_s, job.wall_s)
                    e = wr.invariants[sname]["E"]
                    want = e * (e - 1) // 2 if name == "planar-dual" else 0
                    self.assertEqual(m["complexes.segment_tests"], want, command)
                    self.assertGreaterEqual(m["trace.coverage"], 0.95, command)
                m = tracer.summarize([job.spans for _, _, job in p.jobs], 1.0, 1.0)
                layers = {k: v for k, v in m.items()
                          if k.count(".") == 1 and k.endswith(".self_s")}
                top = max(layers, key=layers.get)
                if name == "statics":
                    self.assertEqual(top, "sparse.self_s")
                if name == "planar-dual":
                    self.assertEqual(top, "complexes.self_s")


PADDED_PARENT = """
import json, resource, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run
pad = bytearray(int(sys.argv[2]) << 20)
for i in range(0, len(pad), 4096):
    pad[i] = 1
runner = run.Runner(Path(sys.argv[3]), time.monotonic() + 60)
job = runner.spawn("run", ["maxwell", sys.argv[4]])
kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"code": job.code, "rss_mib": job.rss_mib, "children_maxrss_mib": kids}))
"""


class PeakRss(unittest.TestCase):
    def test_padded_parent_reports_the_same_peak(self):
        d = _tmpdir(self)
        doc = d / "grid.json"
        doc.write_text(json.dumps(generators.planar_grid(6, 0).document()))
        readings = {}
        for pad in (0, 150):
            out = subprocess.run(
                [sys.executable, "-c", PADDED_PARENT, str(run.BENCH), str(pad), str(d), str(doc)],
                capture_output=True, text=True, timeout=120, check=True,
            )
            readings[pad] = json.loads(out.stdout)
            self.assertEqual(readings[pad]["code"], 0)
        # the job's own peak does not move with the parent's size ...
        self.assertAlmostEqual(readings[150]["rss_mib"], readings[0]["rss_mib"], delta=2.0)
        # ... while the inherited ru_maxrss would have read as the parent
        self.assertGreater(readings[150]["children_maxrss_mib"], 150)
        self.assertLess(readings[150]["rss_mib"], 100)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_program(self):
        d = _tmpdir(self)
        shutil.copy(run.ROOT / "BENCHMARK.json", d)
        shutil.copytree(run.BENCH, d / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "statics", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=d, capture_output=True, text=True, timeout=170,
        )
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
