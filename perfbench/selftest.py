"""Self-test of the benchmark: a short mode with one small job per
workload, and negative cases that must count as failures.

    python3 perfbench/selftest.py        (from the root of a checkout)

Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import unittest

import check
import run
import workloads as w

SMALL_DOCS = {
    "docs": [("2-6-4", (2, 6, 4), 13, 13), ("3-4-2", (3, 4, 2), 14, 14)],
    "corrupted_from": "2-6-4",
    "malformed_from": "3-4-2",
}
SMALL = {
    "construct-binary": [w.construct_job(2, 6, 4, 13, 13)],
    "construct-qary": [w.construct_job(3, 4, 2, 14, 14)],
    "oracle-exact": [w.oracle_job(2, 4, 2, 5, minsets=True), w.ilp_job(6), w.bounds_job(3)],
}


def runner(name: str) -> run.Runner:
    ledger = run.Ledger(os.path.join(run.WORK, f"selftest-{name}.json"), name)
    return run.Runner(ledger, run.Deadline(run.RUN_DEADLINE_S))


class ShortMode(unittest.TestCase):
    def test_each_workload_passes_untraced_and_traced(self):
        jobs = dict(SMALL)
        jobs["verify-docs"] = [w.verify_job(d) for d in run.make_docs(7, SMALL_DOCS)]
        for name in w.NAMES:
            with self.subTest(workload=name):
                r = runner(name)
                rng = random.Random(7)
                untraced = r.run_pass(jobs[name], rng)
                traced = r.run_pass(jobs[name], rng, traced=True)
                self.assertEqual(r.failures, [])
                self.assertEqual(r.attempted, 2 * len(jobs[name]))
                e2e = run.summarize([untraced])
                self.assertGreater(e2e["peak_rss_mb"], 0)
                self.assertGreater(e2e["cpu_s"], 0)
                layers = run.layer_metrics(traced, e2e["wall_s"])
                self.assertIn("trace.overhead_s", layers)
                self.assertGreater(layers["verifier.points"][0] + layers["bounds.rows"][0], 0)
        self.assertGreater(len(jobs["verify-docs"]), 2)

    def test_verify_docs_expectations(self):
        manifest = run.make_docs(3, SMALL_DOCS)
        self.assertEqual([d["expect_exit"] for d in manifest], [0, 0, 1, 2])
        again = run.make_docs(3, SMALL_DOCS)
        self.assertEqual([d["sha256"] for d in manifest], [d["sha256"] for d in again])


class Negative(unittest.TestCase):
    def test_corrupted_family_counts_as_failed(self):
        job = SMALL["construct-binary"][0]
        out = os.path.join(run.WORK, "selftest-job.out")
        argv = [run.PY, "-m", "recovery_sets.cli", *w.cli_args(job)]
        code = run.spawn(argv, out, 30)["code"]
        with open(out) as fh:
            doc = json.load(fh)
        sets = doc["payload"]["family"]["sets"]
        sets[1].append(sets[0][0])
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
        r = runner("corrupted")
        r.judge(job, code, out)
        self.assertEqual((r.attempted, r.failed), (1, 1))
        self.assertIn("repeats", r.failures[0])

    def test_wrong_oracle_value_counts_as_failed(self):
        r = runner("oracle")
        r.run_pass([w.oracle_job(2, 4, 2, 6), w.oracle_job(3, 3, 2, 5)], random.Random(1))
        self.assertEqual((r.attempted, r.failed), (2, 1))
        self.assertIn("oracle-2-4-2", r.failures[0])

    def test_timeout_counts_as_failed(self):
        out = os.path.join(run.WORK, "selftest-job.out")
        code = run.spawn([run.PY, "-c", "import time; time.sleep(30)"], out, 0.5)["code"]
        self.assertIsNone(code)
        r = runner("timeout")
        r.judge(SMALL["construct-binary"][0], code, out)
        self.assertEqual(r.failures, ["construct-2-6-4: timed out"])

    def test_count_mismatch_counts_as_failed(self):
        r = runner("ledger")
        self.assertEqual(r.ledger.record("job", {"oracle.nodes": 10}), [])
        self.assertEqual(len(r.ledger.record("job", {"oracle.nodes": 11})), 1)

    def test_checks_reject_bad_outputs(self):
        ilp = json.dumps({"payload": {"optimum": 18, "dual_certificate": {}}}).encode()
        self.assertFalse(check.check(w.ilp_job(6), 0, ilp)["ok"])
        rows = [{"q": 2, "k": 1, "d": 1, "lower": 2, "upper": 1, "exact": None}]
        bounds = json.dumps({"payload": {"rows": rows}}).encode()
        self.assertFalse(check.check(dict(w.bounds_job(2), rows=1), 0, bounds)["ok"])
        self.assertFalse(check.check(SMALL["construct-binary"][0], 3, b"")["ok"])

    def test_exits_without_result_when_program_is_missing(self):
        empty = os.path.join(run.WORK, "selftest-empty")
        shutil.rmtree(empty, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [run.PY, "perfbench/run.py", "--workload", "oracle-exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=empty, capture_output=True, timeout=60)
        shutil.rmtree(empty)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    os.makedirs(run.WORK, exist_ok=True)
    try:
        unittest.main(verbosity=2)
    finally:
        run.clean_work("selftest-")
