"""End to end: the correctness gate fails a run with a corrupted expected
answer, passes a clean one, and a checkout without the sources exits
non-zero without printing a result.

Each case runs perfbench/run.py end to end; the whole file takes a few
minutes.  Run from the repository root.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402


def bench(workload, *extra, cwd=None):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", "0", *extra],
        capture_output=True, text=True, cwd=cwd, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class GateTest(unittest.TestCase):
    def test_corrupted_expected_answer_fails_the_run(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = bench(workload, "--corrupt-expected")
                self.assertNotEqual(result.returncode, 0)
                self.assertFalse(last_json(result.stdout)["correct"])
                self.assertIn("check FAILED", result.stdout)

    def test_clean_run_passes(self):
        result = bench("churn_evict")
        self.assertEqual(result.returncode, 0, result.stderr)
        output = last_json(result.stdout)
        self.assertTrue(output["correct"])
        self.assertEqual(output["failed"], 0)
        self.assertGreaterEqual(output["attempted"], 1)

    def test_without_sources_exits_nonzero_and_prints_nothing(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            benchmark_json = BENCH_DIR.parent / "BENCHMARK.json"
            if benchmark_json.exists():
                shutil.copy(benchmark_json, tmp)
            result = subprocess.run(
                [sys.executable, str(Path(BENCH_DIR.name) / "run.py"),
                 "--workload", "cold_bestk", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=180)
        self.assertNotEqual(result.returncode, 0)
        self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
