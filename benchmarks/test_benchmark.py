"""Self-test of the benchmark: its oracle, its checks and its metadata.

Run from the repository root with the standard library only::

    python3 -m unittest discover -s benchmarks -p "test_*.py"

The corruption tests show that a single wrong value in the program's
output is reported by the same checks the timed runs use.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from calibration import REFERENCE_S, Calibration  # noqa: E402
from workloads import (  # noqa: E402
    CliWorkload,
    FuseWorkload,
    RankWorkload,
    frame_labels,
    random_entries,
)

from evidist import core, distance, pignistic  # noqa: E402
from evidist.combination import combine_all  # noqa: E402


def to_bba(frame, entries):
    return core.build_bba(frame, [(core.FocalSet(frame, b), m) for b, m in entries])


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_metric_tables(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]},
            {name: row[:3] for name, row in metrics.END_TO_END.items()},
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
            {name: row[:2] for name, row in metrics.PER_LAYER.items()},
        )


class HostScalingTest(unittest.TestCase):
    def test_times_scale_by_root_of_unit_ratio(self):
        calibration = Calibration()
        calibration.samples = [4 * REFERENCE_S] * 3
        ops = [("fuse", 0.010, None), ("fuse", 0.030, None), ("fuse", 0.020, None)]
        out = metrics.end_to_end("fuse_64", ops, [(0.5, 0.6)], 50.0, calibration)
        self.assertAlmostEqual(out["op_p50_ms"]["value"], 10.0)
        self.assertAlmostEqual(out["op_p50_ms"]["raw"], 20.0)
        self.assertAlmostEqual(out["ops_per_s"]["value"], 2 * out["ops_per_s"]["raw"])
        self.assertEqual(out["setup_s"]["value"], 0.5)


class OracleAgreesWithProgramTest(unittest.TestCase):
    def test_measures(self):
        rng = random.Random(7)
        for n in (1, 2, 5, 20, 64):
            frame = core.build_frame(frame_labels(n))
            for _ in range(60):
                e1, e2 = random_entries(rng, n), random_entries(rng, n)
                m1, m2 = to_bba(frame, e1), to_bba(frame, e2)
                self.assertAlmostEqual(oracle.red(e1, e2, n), distance.red_distance(m1, m2), delta=1e-12)
                self.assertAlmostEqual(oracle.jousselme(e1, e2), distance.jousselme_distance(m1, m2), delta=1e-12)
                for scope in ("all", "singleton", "focal"):
                    mode = pignistic.BetPMode(scope)
                    self.assertAlmostEqual(oracle.betp(e1, e2, n, scope),
                                           pignistic.dif_betp(m1, m2, mode), delta=1e-12)

    def test_dempster_fold(self):
        workload = FuseWorkload(3, pool=4)
        workload.setup()
        for g in range(4):
            fused = combine_all(workload.groups[g])
            bits, masses = workload.expected(g)[:2]
            self.assertEqual([fs.bits for fs, _ in fused.entries], list(bits))
            for (_, mass), wanted in zip(fused.entries, masses):
                self.assertAlmostEqual(mass, wanted, delta=1e-12)


class CorruptionIsCaughtTest(unittest.TestCase):
    """Each check passes on the program's real output and fails after one
    value in it is changed."""

    def test_rank_output(self):
        workload = RankWorkload(5, HERE / "out", k=300)
        (HERE / "out").mkdir(exist_ok=True)
        try:
            workload.setup()
            workload.prepare()
            status, out, err = workload.op(1)
            self.assertIsNone(workload.check(1, (status, out, err)))
            lines = out.getvalue().splitlines()
            name, shown, rank, tied = lines[150].split(",")
            lines[150] = ",".join([name, f"{float(shown) + 2e-4:.4f}", rank, tied])
            corrupted = type(out)("\n".join(lines) + "\n")
            self.assertIn("distance", workload.check(1, (status, corrupted, err)))
            lines = out.getvalue().splitlines()
            lines[10], lines[200] = lines[200], lines[10]
            swapped = type(out)("\n".join(lines) + "\n")
            self.assertIsNotNone(workload.check(1, (status, swapped, err)))
        finally:
            workload.cleanup()

    def test_fused_output(self):
        workload = FuseWorkload(11, pool=2)
        workload.setup()
        fused, joint, red, betp = workload.op(0)
        self.assertIsNone(workload.check(0, (fused, joint, red, betp)))
        self.assertIn("red", workload.check(0, (fused, joint, red + 1e-6, betp)))
        frame = fused.frame
        entries = [(fs, m) for fs, m in fused.entries]
        (fs0, m0), (fs1, m1) = entries[0], entries[1]
        entries[0], entries[1] = (fs0, m0 + 1e-6), (fs1, m1 - 1e-6)
        shifted = core.build_bba(frame, entries)
        self.assertIn("mass", workload.check(0, (shifted, joint, red, betp)))

    def test_cli_output(self):
        workload = CliWorkload(2, ROOT, run.program_env())
        workload.setup()
        for i in range(len(workload.commands)):
            fmt, argv = workload.command(i)
            result = workload.op(i)
            self.assertIsNone(workload.check(i, result), argv)
            if argv[2] in ("ppt", "dist", "repro") and fmt == "csv":
                rows = oracle.parse_rows(result.stdout, fmt)
                field = next(k for k, v in rows[-1].items() if "." in v)
                rows[-1][field] = f"{float(rows[-1][field]) + 3e-4:.4f}"
                self.assertIsNotNone(workload.check_rows(argv[2:], rows, fmt), argv)


class StandaloneDirectoryTest(unittest.TestCase):
    def test_fails_without_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "cli_small", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
