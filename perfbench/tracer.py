"""Traced run of one benchmark job (run as a fresh child process).

    python perfbench/tracer.py <job-json> <spans-path>

Calls the public functions that the job's CLI command calls, in the same
order, and records a span around each call into a layer: name, start,
end, parent span and job id.  The document goes to stdout as the CLI
writes it (stdout must be a regular file).  Spans and work counts stay in
memory and are written to <spans-path> as one JSON object when the job
ends.  A few extra probes time a layer standalone (points, the builder's
spread or partition, minimal-set enumeration); the benchmark subtracts
them when it works out the tracing overhead.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

# Every layer span; a job that does not use a layer still records an empty
# span for it, so that the layer's time reads as the span's own cost
# (about a microsecond) rather than as a constant zero.
LAYERS = (
    "field_core.tables", "geometry.points", "geometry.spread", "constructions.build",
    "verifier.verify", "cli.payload", "cli.emit", "cli.parse", "oracle.search",
    "oracle.minsets", "bounds.table", "ilp.solve",
)


class Spans:
    def __init__(self, job_id: str):
        self.job = job_id
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def __call__(self, name: str):
        rec = {"id": len(self.records), "name": name, "job": self.job,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()


def emit(span: Spans, command: str, parameters: dict, payload: dict, started: float) -> int:
    """The CLI's document, written to stdout as its `_emit` does.  Returns
    the bytes written without the timing digits."""
    from recovery_sets.cli import SCHEMA_VERSION

    timing = round(1000 * (time.monotonic() - started), 3)
    doc = {"schema_version": SCHEMA_VERSION, "command": command, "parameters": parameters,
           "payload": payload, "timing_ms": timing}
    with span("cli.emit"):
        json.dump(doc, sys.stdout, indent=2, sort_keys=False)
        sys.stdout.write("\n")
        sys.stdout.flush()
    return os.fstat(sys.stdout.fileno()).st_size - len(json.dumps(timing))


def spread_calls(q: int, k: int, d: int) -> list:
    """The geometry calls construct(q, k, d) makes for its spread or
    partition, mirroring the builder dispatch; empty when it uses none."""
    from recovery_sets import geometry as g

    if d == k:
        return []
    if q > 2:
        enhanced = (q**d % (d + 1) and d >= 2 and (q + 1) % (d + 2) == 0 and (k - d) % 2 == 0)
        return [(g.full_spread, (q, k - d, 2))] if enhanced else []
    m = k - d
    if d == 2:
        calls = []
        while m > 7:
            calls.append((g.lifted_partial_spread, (2, m, 4)))
            m -= 4
        return calls
    if d == 4 and k >= 7:
        base = {0: 3, 1: 4, 2: 5}[m % 3]
        calls = []
        while m > base:
            calls.append((g.lifted_partial_spread, (2, m, 3)))
            m -= 3
        return calls
    if d == 5:
        return [(g.binary_line_partition, (m,))]
    if d >= 3 and d & (d + 1) == 0:
        return [(g.hamming_partition, ((d + 1).bit_length() - 1,))]
    return []


def warm_tables(span: Spans, q: int, degrees) -> int:
    """Cold field() and extension() for the degrees the job uses; returns
    the largest table order built."""
    from recovery_sets import extension, field

    with span("field_core.tables"):
        fld = field(q)
        orders = [fld.order] + [extension(fld, n).order for n in degrees]
    return max(orders)


def run_construct(span: Spans, job: dict, out: dict) -> int:
    from recovery_sets import construct, enumerate_points, verify_family
    from recovery_sets.cli import family_payload

    q, k, d = job["q"], job["k"], job["d"]
    started = time.monotonic()
    out["max_order"] = warm_tables(span, q, {n for n in (d, k - d) if n})
    with span("geometry.points"):
        enumerate_points(q, k)
    calls = spread_calls(q, k, d)
    if calls:
        with span("geometry.spread"):
            for fn, args in calls:
                fn(*args)
    with span("constructions.build"):
        family = construct(q, k, d)
    with span("verifier.verify"):
        cert = verify_family(family)
    with span("cli.payload"):
        payload = {"family": family_payload(family), "certificate": cert.to_payload()}
    out["counts"] = {
        "constructions.sets": len(family.sets),
        "verifier.points": sum(len(s) for s in family.sets),
        "cli.doc_bytes": emit(span, "construct", {"q": q, "k": k, "d": d}, payload, started),
    }
    return 0 if cert.valid else 3


def run_verify(span: Spans, job: dict, out: dict) -> int:
    from recovery_sets import verify_family
    from recovery_sets.cli import CliError, family_from_payload

    started = time.monotonic()
    out["max_order"] = warm_tables(span, job["q"], ())
    try:
        with span("cli.parse"):
            with open(job["path"]) as fh:
                doc = json.load(fh)
            payload = doc.get("payload", doc)
            family, warnings = family_from_payload(payload.get("family", payload))
    except CliError as exc:
        out["counts"] = {}
        return exc.code
    with span("verifier.verify"):
        cert = verify_family(family)
    with span("cli.payload"):
        body = {"certificate": cert.to_payload(), "warnings": warnings}
    out["counts"] = {
        "verifier.points": sum(len(s) for s in family.sets),
        "cli.doc_bytes": emit(span, "verify", {"path": job["path"]}, body, started),
    }
    return 0 if cert.valid else 1


def run_oracle(span: Spans, job: dict, out: dict) -> int:
    from recovery_sets import (SearchConfig, enumerate_points, exact_N, minimal_recovery_sets,
                               verify_family)
    from recovery_sets.cli import family_payload

    q, k, d = job["q"], job["k"], job["d"]
    started = time.monotonic()
    out["max_order"] = warm_tables(span, q, (d,))
    with span("geometry.points"):
        enumerate_points(q, k)
    counts = {}
    if job["minsets"]:
        with span("oracle.minsets"):
            counts["oracle.minsets"] = len(minimal_recovery_sets(q, k, d))
    cfg = SearchConfig(max_set_size=None, node_limit=job["node_limit"], time_limit=None)
    with span("oracle.search"):
        result = exact_N(q, k, d, cfg)
    with span("verifier.verify"):
        cert = verify_family(result.witness)
    with span("cli.payload"):
        payload = {"value": result.value, "status": result.status, "nodes": result.nodes,
                   "witness": family_payload(result.witness),
                   "witness_certificate": cert.to_payload()}
    params = {"q": q, "k": k, "d": d, "threads": 1}
    counts.update({
        "oracle.nodes": result.nodes,
        "verifier.points": sum(len(s) for s in result.witness.sets),
        "cli.doc_bytes": emit(span, "oracle", params, payload, started),
    })
    out["counts"] = counts
    return 0 if cert.valid else 3


def run_ilp(span: Spans, job: dict, out: dict) -> int:
    from fractions import Fraction

    from recovery_sets import DualSolution, build_ilp_d2, check_dual, solve_ilp

    k = job["k"]
    started = time.monotonic()
    with span("ilp.solve"):
        model = build_ilp_d2(k)
        optimum, assignment = solve_ilp(model)
        dual = DualSolution(Fraction(1, 2), Fraction(1, 5), Fraction(1, 10))
        feasible, objective, violated = check_dual(dual, k)
    with span("cli.payload"):
        payload = {
            "optimum": optimum, "assignment": assignment, "rhs": list(model.rhs),
            "dual_certificate": {"z": [str(dual.z1), str(dual.z2), str(dual.z3)],
                                 "feasible": feasible, "objective": str(objective),
                                 "violated": violated},
        }
    out["counts"] = {"cli.doc_bytes": emit(span, "ilp", {"k": k}, payload, started)}
    return 0


def run_bounds(span: Spans, job: dict, out: dict) -> int:
    from recovery_sets import bound_table

    q, ks = job["q"], range(1, job["k_max"] + 1)
    started = time.monotonic()
    with span("bounds.table"):
        records = bound_table(q, ks, ks, "corrected")
    with span("cli.payload"):
        payload = {"rows": [r.to_payload() for r in records]}
    text = f"1..{job['k_max']}"
    params = {"q": q, "k": text, "d": text, "upper_variant": "corrected"}
    out["counts"] = {"bounds.rows": len(records),
                     "cli.doc_bytes": emit(span, "bounds", params, payload, started)}
    return 0


RUNNERS = {"construct": run_construct, "verify": run_verify, "oracle": run_oracle,
           "ilp": run_ilp, "bounds": run_bounds}


def main(job: dict) -> dict:
    span = Spans(job["id"])
    out: dict = {"max_order": 0, "counts": {}}
    with span("job"):
        with span("import"):
            import recovery_sets  # noqa: F401
        out["exit"] = RUNNERS[job["command"]](span, job, out)
        used = {rec["name"] for rec in span.records}
        for name in LAYERS:
            if name not in used:
                with span(name):
                    pass
    out["spans"] = span.records
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    with open(sys.argv[2], "w") as fh:
        json.dump(result, fh)
