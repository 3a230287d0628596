"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They run smoke-sized rounds (a few cheap requests each), so they take
seconds, not the length of a benchmark run.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import orbitrr  # noqa: E402
from run import END_TO_END, PER_LAYER, run_child, schedule_digest  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def smoke_requests(name: str) -> list[dict]:
    """The cheap requests of round 0 of seed 0."""
    round0 = WORKLOADS[name].schedule(orbitrr, 0, 1)[0]
    if name == "fibration-a1":
        cheap = [r for r in round0 if len(r["spins"]) <= 5]
    else:
        cheap = [r for r in round0 if r["group"][1] in "12"]
    return cheap[:6]


class SelfTest(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for name, w in WORKLOADS.items():
            with self.subTest(workload=name):
                a = schedule_digest(w.schedule(orbitrr, 7, 4))
                self.assertEqual(a, schedule_digest(w.schedule(orbitrr, 7, 4)))
                self.assertNotEqual(a, schedule_digest(w.schedule(orbitrr, 8, 4)))

    def test_benchmark_json_lists_what_run_prints(self):
        doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, PER_LAYER)

    def test_orbit_oracle_never_repeats_a_weight_in_one_interpreter(self):
        def drawn(rounds):
            return [(r["group"], tuple(r["k"] * c for c in r["labels"]))
                    for rnd in rounds for r in rnd]

        rounds = WORKLOADS["orbit-oracle"].schedule(orbitrr, 3, 16)
        for rnd in rounds:
            self.assertEqual(len(drawn([rnd])), len(set(drawn([rnd]))))
        # the first two rounds, a run's usual length, share no weight either
        self.assertEqual(len(drawn(rounds[:2])), len(set(drawn(rounds[:2]))))

    def test_smoke_runs_have_no_failures(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                _, res = run_child({"workload": name, "requests": smoke_requests(name)})
                self.assertTrue(res["outcomes"])
                self.assertEqual(res["outcomes"].count("correct"), len(res["outcomes"]),
                                 res["failures"])

    def test_traced_self_times_within_latency_and_counts_repeat(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                job = {"workload": name, "requests": smoke_requests(name), "trace": True}
                first = run_child(job)[1]["trace"]
                second = run_child(job)[1]["trace"]
                self.assertTrue(first["self_within_latency"])
                counts = [k for k, unit in PER_LAYER.items()
                          if unit == "count" and k in first["summary"]]
                self.assertTrue(counts)
                for key in counts:
                    self.assertEqual(first["summary"][key], second["summary"][key], key)

    def test_wrappers_are_gone_after_a_traced_run(self):
        def snapshot():
            owners = [m for n, m in sys.modules.items()
                      if n == "orbitrr" or n.startswith("orbitrr.")]
            owners += [getattr(getattr(orbitrr, mod), cls)
                       for _, mod, cls, _, _ in TARGETS if cls]
            return {(id(o), k): v for o in owners for k, v in vars(o).items()}

        before = snapshot()
        tracer = Tracer()
        tracer.install()
        self.assertTrue(tracer.patched())
        rs = orbitrr.build_root_system("A", 2)
        with tracer.root("request", rid=0):
            orbitrr.weight_count_dimension(rs, (1, 1))
        tracer.uninstall()
        self.assertFalse(tracer.patched())
        after = snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertEqual(tracer.summary()["multiplicities.weight_multiplicities.calls"], 1)


if __name__ == "__main__":
    unittest.main()
