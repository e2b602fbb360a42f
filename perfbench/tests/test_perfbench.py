"""Fast checks of the benchmark itself, on tiny systems.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TINY_VERIFY = workloads.Workload(
    "tiny-verify", "verify",
    ("verify", "--suite", "parabolic-lemmas", "--suite", "theorem61-rays",
     "--system", "A2", "--system", "B2"),
)
TINY_SIMULATE = workloads.Workload(
    "tiny-simulate", "simulate",
    ("simulate", "--horizon", "3", "--traces", "2", "--system", "A3"),
)


def cli_report(workload, seed, directory):
    """Run the CLI in this process and return the parsed report."""
    from rootcones.cli import main

    out = Path(directory) / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(workload.cli_args(seed) + ["--out", str(out)])
    return code, json.loads(out.read_text())


def child_report(workload, seed, directory, traced):
    """Run the CLI in a fresh child process, as a benchmark invocation does."""
    directory = Path(directory)
    out, meta, spans = directory / "report.json", directory / "meta.json", directory / "spans.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), str(meta),
         str(spans) if traced else "-", "--", *workload.cli_args(seed), "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    summary = json.loads(spans.read_text())["summary"] if traced else None
    return json.loads(out.read_text()), summary


class TracerTest(unittest.TestCase):
    def test_counts_rref_calls_made_from_cones(self):
        from rootcones import certify, cones, linalg, roots

        rs = roots.build("B3")
        cone = certify.theorem_cone(rs, roots.weight_table(rs), 0, [2])
        original = linalg.rref
        probe = tracer.Tracer()
        probe.install()
        try:
            # cones binds rref by name; the wrapper must replace that binding too.
            self.assertIsNot(cones.rref, original)
            self.assertIs(cones.rref, linalg.rref)
            result = cones.extreme_rays(cone)
        finally:
            probe.uninstall()
        self.assertIs(cones.rref, original)
        self.assertIs(linalg.rref, original)
        names = probe.names
        rref_spans = [s for s in probe.spans if names[s[0]] == "linalg.rref"]
        self.assertGreater(len(rref_spans), 0)
        self.assertEqual(probe.calls["linalg.rref"], len(rref_spans))
        # The outermost span is extreme_rays, so every rref call came from cones.
        self.assertEqual(names[probe.spans[0][0]], "cones.extreme_rays")
        self.assertTrue(all(s[1] >= probe.spans[0][1] and s[2] <= probe.spans[0][2]
                            for s in rref_spans))
        self.assertEqual(probe.calls["cones.extreme_rays"], 1)
        self.assertEqual(probe.counts["cones.extreme_rays.rays"], len(result.rays))

    def test_traced_and_untraced_runs_give_the_same_verdicts(self):
        for workload in (TINY_VERIFY, TINY_SIMULATE):
            with tempfile.TemporaryDirectory() as plain_dir, \
                    tempfile.TemporaryDirectory() as traced_dir:
                plain, _ = child_report(workload, 3, plain_dir, traced=False)
                traced, summary = child_report(workload, 3, traced_dir, traced=True)
            self.assertEqual(
                workloads.digest(workloads.verdicts(workload.kind, plain)),
                workloads.digest(workloads.verdicts(workload.kind, traced)),
            )
            self.assertEqual(summary["calls"]["cli.main"], 1)
            self.assertGreater(summary["calls"]["linalg.rref"], 0)


class CheckTest(unittest.TestCase):
    def assert_tamper_fails_every_op(self, workload, tamper):
        with tempfile.TemporaryDirectory() as directory:
            code, report = cli_report(workload, 7, directory)
        reference = workloads.make_reference(workload, {7: report})
        attempted, failed, problems = workloads.score(workload, reference, report, code, 7)
        self.assertEqual((failed, problems), (0, []))
        self.assertGreater(attempted, 0)
        tamper(report)
        attempted, failed, problems = workloads.score(workload, reference, report, code, 7)
        self.assertEqual(failed / attempted, 1.0)
        self.assertTrue(problems)

    def test_tampered_verify_report_fails_every_op(self):
        def flip_alpha(report):
            row = next(r for r in report["rows"] if r["alpha"] is not None)
            row["alpha"] += 1

        self.assert_tamper_fails_every_op(TINY_VERIFY, flip_alpha)

    def test_tampered_simulate_report_fails_every_op(self):
        def change_series(report):
            trace = next(t for t in report["traces"] if t["status"] == "ok")
            series = next(iter(trace["series"].values()))
            series[-1] = str(int(series[-1]) + 1)

        self.assert_tamper_fails_every_op(TINY_SIMULATE, change_series)

    def test_timing_and_detail_are_not_checked(self):
        with tempfile.TemporaryDirectory() as directory:
            code, report = cli_report(TINY_VERIFY, 0, directory)
        reference = workloads.make_reference(TINY_VERIFY, {0: report})
        for row in report["rows"]:
            row["wall_time"] = 123.0
            row["detail"] = "rewritten"
        self.assertEqual(workloads.score(TINY_VERIFY, reference, report, code, 0)[1:], (0, []))

    def test_crash_fails_every_op(self):
        reference = {"ops": 5}
        self.assertEqual(workloads.score(TINY_VERIFY, reference, None, -9, 0)[:2], (5, 5))

    def test_unreferenced_seed_checks_invariants_only(self):
        with tempfile.TemporaryDirectory() as directory:
            code, report = cli_report(TINY_SIMULATE, 11, directory)
        reference = workloads.make_reference(TINY_SIMULATE, {10: report})
        self.assertEqual(workloads.score(TINY_SIMULATE, reference, report, code, 11)[1:], (0, []))
        report["traces"][0]["status"] = "divergence-failure"
        self.assertTrue(workloads.score(TINY_SIMULATE, reference, report, code, 11)[2])


class SupervisorTest(unittest.TestCase):
    def test_running_time_leaves_out_pauses_and_scales_each_stretch(self):
        stretches = [[0.0, 1.0, run.PROBE_NOMINAL_S], [1.5, 2.5, 2 * run.PROBE_NOMINAL_S]]
        self.assertEqual(run.running_s(stretches, 0.0, 3.0), (2.0, 1.5))
        self.assertEqual(run.running_s(stretches, 0.5, 2.0), (1.0, 0.75))

    def test_a_child_is_paused_and_probed_until_it_exits(self):
        proc = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(0.5)"])
        spawned = time.monotonic()
        ended, _, stretches = run.supervise(proc, spawned, run.probe())
        self.assertEqual(proc.returncode, 0)
        self.assertGreaterEqual(len(stretches), 3)
        self.assertEqual(stretches[-1][1], ended)
        self.assertTrue(all(a[1] <= b[0] for a, b in zip(stretches, stretches[1:])))
        self.assertLess(run.running_s(stretches, spawned, ended)[0], ended - spawned)


class BenchmarkJsonTest(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_the_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["unit"] for m in spec["end_to_end"]], list(run.END_TO_END.values()))
        units = run.per_layer_units()
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, units)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
