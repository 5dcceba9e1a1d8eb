"""Seeded inputs: the same seed gives byte-identical files, another seed not.

Builds perfbench through run.py's build step; run from the
repository root.
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402


def generate(binary, workload, seed, directory):
    directory.mkdir()
    subprocess.run([str(binary), "gen", "--workload", workload, "--seed",
                    str(seed), "--out", str(directory)], check=True)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class SeededInputsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()[1]

    def test_same_seed_same_bytes(self):
        expected_files = {
            "cold_bestk": {"graph.txt"},
            "serve_hot": {"mix.txt", "t0-rmat.ckg", "t3-er.ckg"},
            "churn_evict": {"mix.txt", "schedule.txt", "t5-ba.ckg"},
        }
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload), \
                    tempfile.TemporaryDirectory() as tmp:
                first = generate(self.binary, workload, 7, Path(tmp) / "a")
                second = generate(self.binary, workload, 7, Path(tmp) / "b")
                other = generate(self.binary, workload, 8, Path(tmp) / "c")
                self.assertTrue(expected_files[workload] <= set(first))
                self.assertTrue({"control.txt", "control.ckg",
                                 "control_mix.txt", "control_schedule.txt"}
                                <= set(first))
                self.assertEqual(first, second)
                self.assertEqual(set(first), set(other))
                for name in expected_files[workload]:
                    self.assertNotEqual(first[name], other[name], name)

    def test_schedule_restores_every_delete(self):
        with tempfile.TemporaryDirectory() as tmp:
            files = generate(self.binary, "churn_evict", 3, Path(tmp) / "a")
        deleted = None
        reads = batches = 0
        for line in files["schedule.txt"].decode().splitlines():
            fields = line.split()
            if fields[0] == "R":
                reads += 1
                continue
            batches += 1
            edges = fields[2:]
            if fields[1] == "d":
                self.assertIsNone(deleted)
                deleted = edges
            else:
                self.assertEqual(edges, deleted)
                deleted = None
        self.assertIsNone(deleted)
        self.assertGreater(reads, 2 * batches)


if __name__ == "__main__":
    unittest.main()
