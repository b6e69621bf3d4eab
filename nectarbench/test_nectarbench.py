"""The benchmark's own checks: counts repeat, seeds matter, specs agree.

Run from the repository root (about a minute on two CPUs):

    python3 -m unittest nectarbench/test_nectarbench.py
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def sample(workload: str, seed: int, trace: bool) -> dict:
    record = run.run_sample(workload, seed, trace, run.sample_env(),
                            run.SAMPLE_TIMEOUT_S)
    if "error" in record:
        raise AssertionError(record["error"])
    return record


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls) -> None:
        cls.state = run.compile_sources()

    def test_bytecode_cache_is_warm(self) -> None:
        self.assertTrue(self.state["compiled_ok"])
        self.assertEqual(self.state["repro_cached"],
                         self.state["repro_modules"])

    def test_spec_names_the_workloads(self) -> None:
        spec = run.load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))

    def test_cpu_clock_interpolates_between_stamps(self) -> None:
        stamps = [(10.0, 1.0), (12.0, 2.0)]
        self.assertEqual(speed._cpu_at(stamps, 9.0), 0.0)
        self.assertAlmostEqual(speed._cpu_at(stamps, 11.0), 1.5)
        self.assertEqual(speed._cpu_at(stamps, 13.0), 2.0)

    def test_traced_runs_repeat_every_count(self) -> None:
        names = [metric["name"] for metric in run.load_spec()["per_layer"]]
        counted = [name for name in names
                   if name.endswith(run.COUNT_SUFFIXES)]
        self.assertIn("sim.events", counted)
        self.assertIn("scaleout.envelopes", counted)
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (sample(workload, DEFAULT_SEED, True)
                                 for _ in range(2))
                self.assertEqual(first["problems"], [])
                self.assertEqual(second["problems"], [])
                for name in counted:
                    self.assertEqual(first["layers"].get(name),
                                     second["layers"].get(name), name)
                values, problems = run.per_layer([first, second],
                                                  [first], names)
                self.assertEqual(problems, [])
                self.assertEqual(sorted(values), sorted(names))

    def test_default_seed_matches_record_and_other_seed_differs(
            self) -> None:
        expected = json.loads(
            (Path(run.HERE) / "expected.json").read_text())
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                record = sample(workload, DEFAULT_SEED, False)
                self.assertEqual(run.check(record,
                                           dict(expected[workload])), [])
                other = sample(workload, DEFAULT_SEED + 1, False)
                self.assertEqual(other["problems"], [])
                self.assertNotEqual(other["digest"],
                                    expected[workload]["digest"])


if __name__ == "__main__":
    unittest.main()
