"""Output checks for one benchmark job (run as a child process, so that
parsing large documents never raises the benchmark's own memory, which a
spawned job would inherit in its peak-RSS figure).

    python perfbench/check.py <job-json> <exit-code> <stdout-path>

Prints one JSON verdict: {"ok", "reason", "exact", "counts"}.  `exact`
says whether the job reported a proved optimum (None for jobs that report
no value); `counts` are the work counts that must repeat exactly between
runs and between the untraced and traced run of a job.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

# Columns of the binary d=2 packing ILP (uses of first row, internal rows,
# paired internal-row incidences) for X1, X2, X3, Y3, Y22, Y4, Y5.
ILP_COLUMNS = ((2, 0, 0), (1, 2, 2), (1, 3, 0), (0, 3, 4), (0, 4, 4), (0, 4, 2), (0, 5, 0))

# The timing line at the end of a CLI document.
_TIMING = re.compile(rb'"timing_ms": ([-+.eE0-9]+)\n}\n$')


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def doc_bytes(data: bytes) -> int:
    """Bytes of an emitted document, not counting the digits of its
    timing, so that the count repeats exactly."""
    m = _TIMING.search(data[-64:])
    return len(data) - (len(m.group(1)) if m else 0)


def points_processed(cert: dict) -> int:
    return sum(int(size) * count for size, count in cert["set_sizes"].items())


def recount(sets: list, q: int, k: int) -> None:
    """No point repeats and every point is a canonical representative."""
    seen = set()
    for s in sets:
        for p in s:
            require(len(p) == k and all(0 <= c < q for c in p),
                    f"point {p} outside PG({k - 1},{q})")
            lead = next((c for c in p if c), 0)
            require(lead == 1, f"point {p} is not canonical")
            t = tuple(p)
            require(t not in seen, f"point {p} repeats")
            seen.add(t)


def check_family(fam: dict, job: dict) -> None:
    require((fam["q"], fam["k"], fam["d"]) == (job["q"], job["k"], job["d"]), "wrong parameters")
    recount(fam["sets"], job["q"], job["k"])


def check_construct(job, doc):
    fam, cert = doc["payload"]["family"], doc["payload"]["certificate"]
    size = len(fam["sets"])
    require(cert["valid"] is True, "certificate is not valid")
    require(cert["family_size"] == size, "certificate size differs from the set count")
    require(size >= job["min_size"], f"{size} sets, recorded {job['min_size']}")
    require(job["exact"] is None or size <= job["exact"], f"{size} sets exceed N = {job['exact']}")
    check_family(fam, job)
    counts = {"constructions.sets": size, "verifier.points": points_processed(cert)}
    return job["exact"] is not None and size == job["exact"], counts


def check_verify(job, doc):
    cert = doc["payload"]["certificate"]
    size = cert["family_size"]
    require(size == job["sets"], f"family_size {size}, expected {job['sets']}")
    require(cert["valid"] is (job["expect_exit"] == 0),
            "certificate validity contradicts the exit code")
    if job["expect_exit"] == 1:
        require(cert["disjoint_ok"] is False, "duplicated point not reported")
    exact = job["expect_exit"] == 0 and job["exact"] is not None and size == job["exact"]
    return exact, {"verifier.points": points_processed(cert)}


def check_oracle(job, doc):
    pl = doc["payload"]
    value, status = pl["value"], pl["status"]
    if job["node_limit"] is None:
        require(status == "exact", f"status {status}")
        require(value == job["value"], f"value {value}, N = {job['value']}")
    else:
        require(value <= job["value"], f"value {value} exceeds N = {job['value']}")
        require(status != "exact" or value == job["value"], f"exact status with value {value}")
    cert = pl["witness_certificate"]
    require(cert["valid"] is True, "witness certificate is not valid")
    require(len(pl["witness"]["sets"]) == value == cert["family_size"],
            "witness size differs from value")
    check_family(pl["witness"], job)
    counts = {"oracle.nodes": pl["nodes"], "verifier.points": points_processed(cert)}
    return status == "exact", counts


def check_ilp(job, doc):
    pl, k = doc["payload"], job["k"]
    optimum = (3 * 2 ** (k - 1) + 1) // 5
    require(pl["optimum"] == optimum, f"optimum {pl['optimum']}, expected {optimum}")
    dual = pl["dual_certificate"]
    z = [Fraction(v) for v in dual["z"]]
    feasible = all(v >= 0 for v in z) and all(
        sum(c * v for c, v in zip(col, z)) >= 1 for col in ILP_COLUMNS)
    require(feasible and dual["feasible"] is True, "dual is not feasible")
    objective = 3 * z[0] + (2**k - 4) * (z[1] + z[2])
    require(Fraction(dual["objective"]) == objective >= optimum, "dual objective is wrong")
    return None, {}


def check_bounds(job, doc):
    rows = doc["payload"]["rows"]
    require(len(rows) == job["rows"], f"{len(rows)} rows, expected {job['rows']}")
    for r in rows:
        require(r["q"] == job["q"], "row for the wrong q")
        require(r["lower"] <= r["upper"], f"lower > upper at k={r['k']} d={r['d']}")
        if r["exact"] is not None:
            require(r["lower"] <= r["exact"] <= r["upper"],
                    f"exact outside bounds at k={r['k']} d={r['d']}")
    return None, {"bounds.rows": len(rows)}


CHECKS = {"construct": check_construct, "verify": check_verify, "oracle": check_oracle,
          "ilp": check_ilp, "bounds": check_bounds}


def check(job: dict, exit_code: int | None, data: bytes) -> dict:
    """Verdict on one job's exit code (None: timed out) and stdout."""
    verdict = {"ok": False, "reason": "", "exact": None, "counts": {}}
    try:
        require(exit_code is not None, "timed out")
        expected = job.get("expect_exit", 0)
        require(exit_code == expected, f"exit {exit_code}, expected {expected}")
        if expected == 2:
            require(data == b"", "a document was emitted for bad input")
            verdict.update(ok=True)
            return verdict
        doc = json.loads(data)
        exact, counts = CHECKS[job["command"]](job, doc)
        counts["cli.doc_bytes"] = doc_bytes(data)
        verdict.update(ok=True, exact=exact, counts=counts)
    except CheckFailed as exc:
        verdict["reason"] = str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        verdict["reason"] = f"unreadable output: {exc!r}"
    return verdict


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    code = None if sys.argv[2] == "timeout" else int(sys.argv[2])
    with open(sys.argv[3], "rb") as fh:
        print(json.dumps(check(job, code, fh.read())))
