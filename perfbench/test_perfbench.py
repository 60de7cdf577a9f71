"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class OracleTest(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_planted_wrong_answer_is_failed(self):
        w = workloads.Realize(workloads.Program(), 0, "min", self.tmp)
        fname, path, want = w.files[0]
        w.files[0] = (fname, path, [want[0], want[1] + 1])
        _, attempted, failed, findings = run.run_pass(w)
        self.assertEqual((attempted, failed), (len(w.files), 1))
        self.assertIn(fname, findings[0])

    def test_planted_wrong_verdict_is_failed(self):
        w = workloads.CorpusScreen(workloads.Program(), 0, "min", self.tmp)
        key = sorted(w.pairs)[0]
        w.pairs[key] = {"verdict": "undecided", "first_failing": None}
        _, attempted, failed, _ = run.run_pass(w)
        self.assertEqual((attempted, failed), (w.expected_ops, 1))

    def test_raising_pass_fails_every_unchecked_op(self):
        w = workloads.Realize(workloads.Program(), 0, "min", self.tmp)
        w.prog = None  # the first op raises
        _, attempted, failed, findings = run.run_pass(w)
        self.assertEqual((attempted, failed), (2, 2))
        self.assertIn("pass ended", findings[-1])


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ("root", 0.0, 10.0, -1, "op"),
            ("a", 1.0, 4.0, 0, "op"),
            ("b", 2.0, 3.0, 1, "op"),
            ("a", 5.0, 9.0, 0, "op"),
            ("a", 6.0, 7.0, 3, "op"),  # recursive: inclusive time counted once
        ]
        stats = tracer.aggregate(spans)
        self.assertAlmostEqual(stats["root"]["self_s"], 3.0)
        self.assertAlmostEqual(stats["a"]["self_s"], 2.0 + 3.0 + 1.0)
        self.assertAlmostEqual(stats["a"]["s"], 3.0 + 4.0)
        self.assertEqual(stats["a"]["calls"], 3)
        self.assertAlmostEqual(stats["b"]["self_s"], 1.0)
        total = sum(v["self_s"] for v in stats.values())
        self.assertAlmostEqual(total, 10.0)

    def test_children_clipped_to_parent(self):
        spans = [("p", 0.0, 2.0, -1, None), ("c", 1.0, 3.0, 0, None)]
        self.assertAlmostEqual(tracer.aggregate(spans)["p"]["self_s"], 1.0)

    def test_binds_from_imports(self):
        prog = workloads.Program()
        G = prog.groups.abelian_group([2, 2])
        t = tracer.Tracer()
        t.install(prog.namespaces(), prog.traced_modules())
        try:
            self.assertIs(prog.screen.normal_subgroups, prog.groups.normal_subgroups)
            self.assertIs(prog.survey.make_group, prog.groups.make_group)
            prog.screen.rigidity_screen(G)
        finally:
            t.uninstall(prog.namespaces())
        names = [s[0] for s in t.spans]
        self.assertEqual(names[:2], ["screen.rigidity_screen", "groups.normal_subgroups"])
        self.assertEqual(prog.screen.normal_subgroups.__module__, "wittlab.groups")


class MinimalWorkloadTest(unittest.TestCase):
    def test_every_workload_at_minimal_size(self):
        for name in workloads.WORKLOADS:
            for seed in (0, 7):
                for trace in (False, True):
                    with self.subTest(workload=name, seed=seed, trace=trace):
                        result, lines = run.measure(name, seed, 0.01, trace, size="min")
                        self.assertTrue(result["correct"], lines)
                        self.assertEqual(result["failed"], 0)
                        self.assertGreater(result["attempted"], 0)
                        if trace and name == "survey32":
                            m = result["metrics"]
                            self.assertEqual(m["witt.ring_fingerprint.calls"]["value"], 0)
                            self.assertEqual(m["groups.normal_subgroups.calls"]["value"], 0)
                            self.assertGreater(m["groups.make_group.calls"]["value"], 0)

    def test_seed_zero_keeps_corpus_bytes(self):
        for path in sorted((workloads.ROOT / "corpus").iterdir()):
            text = path.read_text(encoding="utf-8")
            self.assertEqual(inputs.rewrite(text, 0, path.name), text)

    def test_refuses_to_run_without_the_program(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("work"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "realize", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
