"""Benchmark of the recovery-sets CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program under test is
`src/recovery_sets`, started as `python -m recovery_sets.cli`.  Stdlib
only.

Each workload is a list of CLI jobs (see workloads.py), run as a closed
loop with one client: every job is a fresh child process and the next one
starts only after the previous one has ended, so there is never more than
one child.  The seed shuffles the job order of every pass and makes the
verify-docs inputs.  Every job's output is checked by check.py.

Times are scaled to a reference speed.  The host's cores change speed by
up to ~1.7x within seconds with load from outside the machine, which no
amount of repetition averages out, so the benchmark pins itself and its
children to one core and, while each child runs, times a fixed
calibration loop on that core every 50 ms.  A child's time multiplied by
REFERENCE_S over the median loop time is its time at the speed where the
loop takes REFERENCE_S.  The raw pass wall time is in the metadata.

--trace 0 runs passes over the job list until --seconds have gone by
(always at least one pass).  Each job's figures are the low median of its
samples over the passes (with two passes, the faster one).  End-to-end
metrics:

  setup_s        fresh interpreter to `import recovery_sets` returning,
                 median of several starts (input generation excluded)
  wall_s         wall time of a pass: the sum over the jobs of their time
                 from spawn to exit, without the benchmark's own checking
  cpu_s          user + sys time of the children (os.wait4), summed
  slowest_job_s  wall time of the slowest job
  peak_rss_mb    largest peak RSS of any child (os.wait4)
  doc_mb         bytes the CLI wrote to stdout in a pass, in 10^6
  pass_ratio     jobs that passed their output check, over jobs attempted;
                 1 - fail_ratio (a metric that can be 0 has no ratio bound)
  exact_share    of the jobs that report a family size or an oracle value,
                 the share that reached the proved N_q(k,d) (for oracles:
                 ended with status exact)

--trace 1 runs one untraced pass and then one pass with every job under
tracer.py, and reports the per-layer metrics: the self time of each
layer's spans summed over the pass, the layer's work counts, and
trace.overhead_s (traced minus untraced pass wall, without the standalone
probes).  Spans go to .perfbench_work/trace-<workload>-seed<N>.json.

Work counts must repeat exactly for one source tree and seed: between
passes, between the untraced and the traced run, and across runs (kept in
.perfbench_work/counts.json).  A mismatch fails the job.  Every run
appends its metadata and result to .perfbench_work/results.jsonl, and
prints the metadata as the line before the result.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Exits 2 without a result when the program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from tracer import LAYERS

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
PY = sys.executable

SETUP_STARTS = 15
# Reference speed: CALIBRATION_LOOP takes REFERENCE_S, as on a quiet core
# of the 2.1 GHz Xeon the benchmark was defined on.
CALIBRATION_LOOP = 20000
REFERENCE_S = 1.0e-3
SAMPLE_EVERY_S = 0.05
JOB_TIMEOUT_S = 60.0
# Every run must end within 180 s; jobs still due after this many seconds
# from the start count as timed out.
RUN_DEADLINE_S = 165.0

E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "slowest_job_s": "s",
    "peak_rss_mb": "MB", "doc_mb": "MB", "pass_ratio": "ratio", "exact_share": "ratio",
}
LAYER_COUNTS = (
    "constructions.sets", "verifier.points", "cli.doc_bytes", "oracle.nodes",
    "oracle.minsets", "bounds.rows",
)
# Spans of tracer.py that do work the CLI does not do.
PROBES = ("geometry.points", "geometry.spread", "oracle.minsets")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RECOVERY_SETS_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = child_env()


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes now on this core."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i * i
    return time.perf_counter() - start


def spawn(argv: list[str], out_path: str, timeout: float) -> dict:
    """Run one child with stdout to a file and reap it with os.wait4.

    While the child runs, the calibration loop is timed every
    SAMPLE_EVERY_S on the same core; `scale` (REFERENCE_S over the median
    sample) turns the child's times into reference-speed seconds.  Returns
    code (None if it timed out), wall and cpu (raw seconds), rss (peak MB)
    and scale."""
    if timeout <= 0:
        return {"code": None, "wall": 0.0, "cpu": 0.0, "rss": 0.0, "scale": 1.0}
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        samples = [calibrate()]
        killed = False
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                if time.perf_counter() - start > timeout:
                    proc.kill()
                    killed = True
                samples.append(calibrate())
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": None if killed else proc.returncode, "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime, "rss": usage.ru_maxrss / 1024,
            "scale": REFERENCE_S / statistics.median(samples)}


def run_checker(job: dict, code: int | None, out_path: str) -> dict:
    argv = [PY, os.path.join(BENCH_DIR, "check.py"), json.dumps(job),
            "timeout" if code is None else str(code), out_path]
    proc = subprocess.run(argv, capture_output=True, timeout=JOB_TIMEOUT_S, env=ENV, cwd=ROOT)
    if proc.returncode != 0:
        return {"ok": False, "reason": "checker crashed: " + proc.stderr.decode()[-300:],
                "exact": None, "counts": {}}
    return json.loads(proc.stdout)


def is_value_job(job: dict) -> bool:
    if job["command"] == "verify":
        return job["expect_exit"] == 0
    return job["command"] in ("construct", "oracle")


class Ledger:
    """Work counts per job, which must repeat exactly for one source tree
    and seed; kept across runs in a file."""

    def __init__(self, path: str, key: str):
        self.path = path
        try:
            with open(path) as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}
        self.counts = self.data.setdefault(key, {})

    def record(self, job_id: str, counts: dict) -> list[str]:
        seen = self.counts.setdefault(job_id, {})
        bad = []
        for name, value in counts.items():
            prev = seen.setdefault(name, value)
            if prev != value:
                bad.append(f"{name} = {value}, earlier {prev}")
        return bad

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.data, fh)
        os.replace(tmp, self.path)


class Runner:
    """Runs and checks jobs one at a time, and counts what passed."""

    def __init__(self, ledger: Ledger, deadline: Deadline):
        self.ledger, self.deadline = ledger, deadline
        self.attempted = self.failed = 0
        self.value_jobs = self.exact_jobs = 0
        self.failures: list[str] = []

    def _tally(self, job: dict, ok: bool, reason: str, exact) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{job['id']}: {reason}")
            print(f"FAIL {job['id']}: {reason}", file=sys.stderr)
        if is_value_job(job):
            self.value_jobs += 1
            self.exact_jobs += bool(exact)

    def _timeout(self) -> float:
        return min(JOB_TIMEOUT_S, self.deadline.left())

    def judge(self, job: dict, code: int | None, out: str) -> None:
        """Check one job's output and count it as passed or failed."""
        verdict = run_checker(job, code, out)
        bad = self.ledger.record(job["id"], verdict["counts"]) if verdict["ok"] else []
        ok = verdict["ok"] and not bad
        self._tally(job, ok, verdict["reason"] or "; ".join(bad), verdict["exact"])

    def run_job(self, job: dict) -> dict:
        out = os.path.join(WORK, "job.out")
        argv = [PY, "-m", "recovery_sets.cli", *workloads.cli_args(job)]
        r = spawn(argv, out, self._timeout())
        self.judge(job, r["code"], out)
        return dict(r, id=job["id"], bytes=os.path.getsize(out))

    def trace_job(self, job: dict) -> dict:
        out, spans = os.path.join(WORK, "job.out"), os.path.join(WORK, "spans.json")
        argv = [PY, os.path.join(BENCH_DIR, "tracer.py"), json.dumps(job), spans]
        r = spawn(argv, out, self._timeout())
        result = {"wall": r["wall"], "scale": r["scale"], "spans": [], "counts": {}, "max_order": 0}
        if r["code"] == 0:
            with open(spans) as fh:
                result.update(json.load(fh))
            expected = job.get("expect_exit", 0)
            bad = self.ledger.record(job["id"], result["counts"])
            reason = "; ".join(bad)
            if result["exit"] != expected:
                reason = f"exit {result['exit']}, expected {expected}"
        elif r["code"] is None:
            reason = "timed out"
        else:
            with open(out + ".err", "rb") as fh:
                reason = f"tracer exit {r['code']}: " + fh.read()[-300:].decode(errors="replace")
        self._tally(job, not reason, reason, None)
        return result

    def run_pass(self, jobs: list[dict], rng: random.Random, traced: bool = False) -> list[dict]:
        order = list(jobs)
        rng.shuffle(order)
        return [self.trace_job(j) if traced else self.run_job(j) for j in order]


def summarize(passes: list[list[dict]]) -> dict:
    """End-to-end figures of a run: per job, the low median of its samples
    over the passes (with two passes, the faster one); then summed, or for
    the slowest job and peak RSS the largest, over the job list.  Times are
    in reference-speed seconds, except raw_wall_s."""
    samples: dict[str, list[dict]] = {}
    for results in passes:
        for r in results:
            samples.setdefault(r["id"], []).append(r)

    def per_job(value) -> list[float]:
        return [statistics.median_low(value(r) for r in rs) for rs in samples.values()]

    walls = per_job(lambda r: r["wall"] * r["scale"])
    return {
        "wall_s": sum(walls),
        "cpu_s": sum(per_job(lambda r: r["cpu"] * r["scale"])),
        "slowest_job_s": max(walls),
        "peak_rss_mb": max(per_job(lambda r: r["rss"])),
        "doc_mb": sum(per_job(lambda r: r["bytes"])) / 1e6,
        "raw_wall_s": sum(per_job(lambda r: r["wall"])),
    }


def layer_metrics(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer self time, counts and rates over one traced pass, in
    reference-speed seconds like the job times."""
    self_time = dict.fromkeys(LAYERS, 0.0)
    probes = 0.0
    for job in traced:
        spans = job["spans"]
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s, child_time in zip(spans, covered):
            if s["name"] in self_time:
                self_time[s["name"]] += (s["end"] - s["start"] - child_time) * job["scale"]
            if s["name"] in PROBES:
                probes += (s["end"] - s["start"]) * job["scale"]
    counts = dict.fromkeys(LAYER_COUNTS, 0)
    for job in traced:
        for name, value in job["counts"].items():
            counts[name] += value

    def rate(count: str, layer: str) -> float:
        return counts[count] / self_time[layer] if self_time[layer] > 0 else 0.0

    m = {f"{name}_s": (v, "s") for name, v in self_time.items()}
    for name, v in counts.items():
        m[name] = (v, "bytes" if name == "cli.doc_bytes" else "count")
    m["field_core.max_order"] = (max(j["max_order"] for j in traced), "count")
    m["constructions.sets_per_s"] = (rate("constructions.sets", "constructions.build"), "1/s")
    m["verifier.points_per_s"] = (rate("verifier.points", "verifier.verify"), "1/s")
    m["oracle.nodes_per_s"] = (rate("oracle.nodes", "oracle.search"), "1/s")
    traced_wall = sum(j["wall"] * j["scale"] for j in traced)
    m["trace.overhead_s"] = (traced_wall - untraced_wall - probes, "s")
    return m


def measure_setup() -> float:
    """Median over SETUP_STARTS fresh interpreters of the time to `import
    recovery_sets` returning, in reference-speed seconds."""
    out = os.path.join(WORK, "setup.out")
    times = []
    for i in range(SETUP_STARTS + 1):
        r = spawn([PY, "-c", "import recovery_sets"], out, JOB_TIMEOUT_S)
        if r["code"] != 0:
            with open(out + ".err") as fh:
                raise SystemExit("cannot import recovery_sets: " + fh.read()[-500:])
        if i:  # the first start may compile bytecode
            times.append(r["wall"] * r["scale"])
    return statistics.median(times)


def make_docs(seed: int, config: dict) -> list[dict]:
    """Generate verify-docs inputs in a child; returns the manifest."""
    cfg = dict(config, seed=seed, out=os.path.join(WORK, "docs"))
    argv = [PY, os.path.join(BENCH_DIR, "gendocs.py"), json.dumps(cfg)]
    proc = subprocess.run(argv, capture_output=True, timeout=120, env=ENV, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit("cannot generate verify-docs inputs: " + proc.stderr.decode()[-500:])
    return json.loads(proc.stdout)


def tree_sha256(*dirs: str) -> str:
    h = hashlib.sha256()
    for top in dirs:
        for base, subdirs, files in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def job_list(workload: str, seed: int) -> tuple[list[dict], list[dict]]:
    """The workload's jobs and, for verify-docs, the document manifest."""
    if workload == "verify-docs":
        manifest = make_docs(seed, workloads.VERIFY_DOCS)
        return [workloads.verify_job(doc) for doc in manifest], manifest
    return workloads.STATIC[workload], []


def run(args) -> tuple[dict, dict]:
    """One benchmark run; returns its metadata and its result line."""
    deadline = Deadline(RUN_DEADLINE_S)
    setup_s = measure_setup()
    jobs, manifest = job_list(args.workload, args.seed)
    sources = tree_sha256(os.path.join(SRC, "recovery_sets"))
    inputs = hashlib.sha256(json.dumps([workloads.cli_args(j) for j in jobs]).encode())
    for doc in manifest:
        inputs.update(doc["sha256"].encode())
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": git_commit(), "source_sha256": sources, "python": platform.python_version(),
        "nproc": os.cpu_count(), "inputs_sha256": inputs.hexdigest(),
        "verify_docs_sha256": {d["name"]: d["sha256"] for d in manifest},
    }
    key = ":".join((sources, tree_sha256(BENCH_DIR), args.workload, str(args.seed)))
    ledger = Ledger(os.path.join(WORK, "counts.json"), key)
    runner = Runner(ledger, deadline)
    rng = random.Random(args.seed)

    if args.trace:
        untraced = runner.run_pass(jobs, rng)
        traced = runner.run_pass(jobs, rng, traced=True)
        metrics = layer_metrics(traced, summarize([untraced])["wall_s"])
        spans = [s for job in traced for s in job["spans"]]
        with open(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"meta": meta, "spans": spans}, fh)
    else:
        passes = []
        start = time.monotonic()
        while not passes or (time.monotonic() - start < args.seconds and deadline.left() > 0):
            passes.append(runner.run_pass(jobs, rng))
        values = summarize(passes)
        meta["raw_wall_s"] = values.pop("raw_wall_s")
        values["setup_s"] = setup_s
        values["pass_ratio"] = (runner.attempted - runner.failed) / runner.attempted
        values["exact_share"] = runner.exact_jobs / max(runner.value_jobs, 1)
        metrics = {name: (v, E2E_UNITS[name]) for name, v in values.items()}
        meta["passes"] = len(passes)
    ledger.save()
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in sorted(metrics.items())},
    }
    meta["failures"] = runner.failures
    return meta, result


SCRATCH = ("docs", "job.out", "job.out.err", "spans.json", "setup.out", "setup.out.err")


def clean_work(prefix: str | None = None) -> None:
    """Remove the run's scratch files (and files starting with `prefix`)."""
    for name in os.listdir(WORK):
        if name in SCRATCH or prefix and name.startswith(prefix):
            path = os.path.join(WORK, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "recovery_sets", "__init__.py")):
        print("error: run from the root of a recovery-sets checkout (no src/recovery_sets)",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    # One core for this process and every child, so that the calibration
    # samples time the core the job runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        meta, result = run(args)
    finally:
        clean_work()
    with open(os.path.join(WORK, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
