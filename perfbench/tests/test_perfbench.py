"""Tests of the benchmark itself (stdlib unittest; pytest runs them too):

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import tempfile
import types
import unittest
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FR = run.load_forestrep(with_cli=True)
run.OUT.mkdir(exist_ok=True)


# jobs kept per workload when a test runs a workload through: enough to reach
# every layer, few enough to take a second or two
KEEP = {"scan": 12, "gram": 1, "shift": 10, "arith": 12}


def trimmed(name: str) -> workloads.Workload:
    """The named workload with its job list thinned to about KEEP[name] jobs."""
    keep = KEEP[name]
    original = workloads.WORKLOADS[name]

    def build(fr, rng):
        built = original.build(fr, rng)
        built.jobs = built.jobs[:: max(1, len(built.jobs) // keep)]
        return built

    return workloads.Workload(name, build, ())


def error_rate(jobs) -> float:
    results, _, _ = run.run_pass(FR, jobs)
    verifier = run.Verifier(jobs)
    verifier.record(results)
    return verifier.failed / verifier.attempted


class SeedTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a = workload.build(FR, random.Random(11)).jobs
                b = workload.build(FR, random.Random(11)).jobs
                self.assertEqual([(j.kind, j.args) for j in a], [(j.kind, j.args) for j in b])

    def test_other_seed_gives_other_inputs(self):
        a = workloads.build_arith(FR, random.Random(11)).jobs
        b = workloads.build_arith(FR, random.Random(12)).jobs
        self.assertNotEqual([j.args for j in a], [j.args for j in b])

    def test_same_seed_gives_identical_counts(self):
        """Two traced runs, each in a fresh process, count the same work."""
        code = (
            "import json, sys, types\n"
            f"sys.path.insert(0, {str(BENCH)!r})\n"
            f"sys.path.insert(0, {str(BENCH / 'tests')!r})\n"
            "import run, test_perfbench as t\n"
            "# the untraced cold passes time the whole workload and count nothing\n"
            "run.cold_round = lambda *a, **k: {'wall_s': 1.0, 'alloc_peak_mib': 1.0, 'attempted': 1, 'failed': 0}\n"
            "args = types.SimpleNamespace(seed=3, seconds=1)\n"
            "out = {}\n"
            "for name in ('scan', 'gram', 'arith'):\n"
            "    out[name] = run.traced(args, t.trimmed(name))[3]\n"
            "print(json.dumps(out))\n"
        )

        def counts():
            proc = subprocess.run(
                [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
            )
            runs = json.loads(proc.stdout.splitlines()[-1])
            return {
                (wl, name): value
                for wl, metrics in runs.items()
                for name, (value, unit) in metrics.items()
                if unit not in ("s", "MiB") and name != "trace.overhead_ratio"
            }

        first, second = counts(), counts()
        self.assertEqual(first, second)
        self.assertGreater(first[("scan", "coefficients.phi_alpha.calls")], 0)
        self.assertTrue(0 < first[("scan", "trees.subrooted_trees.hit_ratio")] <= 1)
        self.assertGreater(first[("gram", "coefficients.psd_ldlt.calls")], 0)
        self.assertGreater(first[("arith", "thompson.carets_cancelled")], 0)


class CheckTest(unittest.TestCase):
    def test_correct_results_pass(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                built = trimmed(name).build(FR, random.Random(2))
                self.assertEqual(error_rate(built.jobs), 0)

    def test_corrupted_results_are_caught(self):
        corruptions = {
            "scan": ("coefficients", "phi_alpha_eval", lambda f: lambda g, a: f(g, a) * 2),
            "gram": ("coefficients", "gram_psd_check", lambda f: lambda e, a: f(e, a)._replace(is_psd=False)),
            "shift": ("shiftrep", "almost_invariance", lambda f: lambda g, m: f(g, m) / 2),
            "arith": ("thompson", "inverse", lambda f: lambda g: g),
        }
        for name, (module, attr, corrupt) in corruptions.items():
            with self.subTest(workload=name):
                built = workloads.WORKLOADS[name].build(FR, random.Random(2))
                jobs = [j for j in built.jobs if j.kind == attr][:3]
                target = getattr(FR, module)
                with mock.patch.object(target, attr, corrupt(getattr(target, attr))):
                    self.assertGreater(error_rate(jobs), 0)

    def test_failing_job_counts_as_error(self):
        built = trimmed("shift").build(FR, random.Random(2))
        with mock.patch.object(FR.shiftrep, "almost_invariance", side_effect=RecursionError):
            self.assertGreater(error_rate(built.jobs), 0)

    def test_wrong_cli_output_is_caught(self):
        built = workloads.build_gram(FR, random.Random(2))
        cmd = built.cli(FR, str(run.OUT))[0]
        self.assertTrue(cmd.check(0, "PSD\n", ""))
        self.assertFalse(cmd.check(0, "NOT-PSD {}\n", ""))
        self.assertFalse(cmd.check(1, "PSD\n", ""))


class TracerTest(unittest.TestCase):
    def snapshot(self):
        """Every attribute of every forestrep module and of its classes."""
        out = {}
        for name, mod in sorted(sys.modules.items()):
            if name != "forestrep" and not name.startswith("forestrep."):
                continue
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for member, raw in vars(value).items():
                        out[(name, attr, member)] = raw
        return out

    def test_traced_run_leaves_forestrep_unpatched(self):
        before = self.snapshot()
        tracer = spans.Tracer(FR)
        built = trimmed("arith").build(FR, random.Random(4))
        with tracer.active():
            self.assertIsNot(FR.thompson.multiply, before[("forestrep.thompson", "multiply")])
            self.assertIsNot(FR.ring.RingElem.__mul__, before[("forestrep.ring", "RingElem", "__mul__")])
            run.run_pass(FR, built.jobs)
        with self.assertRaises(KeyError):
            with tracer.active():
                raise KeyError("stop inside the traced region")
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_missing_target_is_an_error(self):
        before = self.snapshot()
        gone = spans.Target("trees.gone", "trees", "no_such_function")
        with mock.patch.object(spans, "TARGETS", spans.TARGETS + (gone,)):
            with self.assertRaises(LookupError):
                spans.Tracer(FR).install()
        after = self.snapshot()
        self.assertEqual([key for key in before if before[key] is not after[key]], [])

    def test_recursive_calls_are_not_spans(self):
        tracer = spans.Tracer(FR)
        g = FR.thompson.family_gn(50)
        with tracer.active():
            FR.thompson.multiply(g, g)
        metrics = tracer.metrics()
        self.assertEqual(metrics["thompson.multiply.calls"], 1)
        self.assertEqual(metrics["trees.merge_trees.calls"], 1)
        self.assertEqual(metrics["thompson.carets_cancelled"], 99)

    def test_self_time_excludes_child_spans(self):
        tracer = spans.Tracer(FR)
        k = FR.thompson.family_kn(1)
        with tracer.active():
            FR.coefficients.phi_alpha_eval(k, 1)
        metrics = tracer.metrics()
        total = tracer.ends[0] - tracer.starts[0]
        layer_self = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        self.assertGreater(len(tracer.hook_s), 0)
        # the hooks' time is charged to no span
        self.assertAlmostEqual(layer_self + sum(tracer.hook_s.values()), total, places=6)
        self.assertLess(metrics["coefficients.phi_alpha_eval.self_s"], total)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, spans.metric_units())

    def test_end_to_end_run_prints_every_metric(self):
        args = types.SimpleNamespace(seed=1, seconds=0.0)
        with mock.patch.object(run, "MIN_ROUNDS", 2):
            report, attempted, failed, metrics = run.end_to_end(args, trimmed("shift"))
        self.assertEqual(report["rounds"], 2)
        self.assertEqual(failed, 0)
        self.assertEqual(report["error_rate"], 0)
        self.assertEqual({k: unit for k, (_, unit) in metrics.items()}, run.END_TO_END)
        self.assertTrue(all(value > 0 for value, _ in metrics.values()))

    def test_without_sources_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / BENCH.name, ignore=shutil.ignore_patterns(".out", "__pycache__"))
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            proc = subprocess.run(
                spec["command"] + ["--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
