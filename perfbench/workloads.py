"""Workload definitions: the job lists the benchmark runs, and what each
job's output must show.

A job is a plain dict, so that it can be handed to the checker and the
tracer child processes as JSON.  Expected values were recorded from the
library at the commit that introduced this benchmark; they are lower
limits (family sizes) or proved values (N_q(k,d), ILP optima), never
payload hashes, because later work is expected to change the families on
purpose.

Which layer metric should move which end-to-end metric, per workload
(the traced run reports the layer metrics):

  field_core.tables_s, .max_order     -> wall_s   (most in construct-binary,
                                                   little in oracle-exact)
  geometry.points_s, .spread_s        -> wall_s   (construct-qary and
                                                   oracle-exact; ~0 in verify-docs)
  constructions.build_s, .sets(_per_s)-> wall_s, cpu_s (construct-*; none in
                                                   verify-docs, oracle-exact)
  verifier.verify_s, .points(_per_s)  -> wall_s, cpu_s (all family workloads;
                                                   little in oracle-exact)
  cli.payload_s, .emit_s, .doc_bytes  -> wall_s, peak_rss_mb, doc_mb
                                                  (construct-*; little elsewhere)
  cli.parse_s                         -> wall_s   (verify-docs only)
  oracle.search_s, .nodes(_per_s)     -> wall_s, exact_share (oracle-exact only)
  oracle.minsets_s, .minsets          -> wall_s   (oracle-exact only)
  bounds.table_s, .rows, ilp.solve_s  -> wall_s   (oracle-exact, small share)
"""

from __future__ import annotations

# Row count of a `bounds --k 1..64 --d 1..64` table: pairs with 1 <= d <= k.
BOUNDS_K_MAX = 64
BOUNDS_ROWS = BOUNDS_K_MAX * (BOUNDS_K_MAX + 1) // 2

# Budget of the one oracle run that cannot finish: about 2 s of search at
# the commit that introduced this benchmark.  N_2(5,2) = 9.
BUDGETED_NODE_LIMIT = 18000
BUDGETED_VALUE_MAX = 9


def construct_job(q: int, k: int, d: int, min_size: int, exact: int | None = None) -> dict:
    """`construct` at (q,k,d): the family must have at least `min_size`
    sets; `exact` is the proved N_q(k,d) where one is known."""
    return {"id": f"construct-{q}-{k}-{d}", "command": "construct", "q": q, "k": k, "d": d,
            "min_size": min_size, "exact": exact}


def oracle_job(q: int, k: int, d: int, value: int, node_limit: int | None = None,
               minsets: bool = False) -> dict:
    """`oracle` at (q,k,d); `value` is the proved N_q(k,d).  With a node
    limit the run is expected to stop early with a lower bound.  `minsets`
    marks instances where the traced run also times minimal_recovery_sets
    standalone, because it takes well under a second there."""
    job = {"id": f"oracle-{q}-{k}-{d}", "command": "oracle", "q": q, "k": k, "d": d,
           "value": value, "node_limit": node_limit, "minsets": minsets}
    if node_limit is not None:
        job["id"] += "-budgeted"
    return job


def ilp_job(k: int) -> dict:
    return {"id": f"ilp-{k}", "command": "ilp", "k": k}


def bounds_job(q: int) -> dict:
    return {"id": f"bounds-{q}", "command": "bounds", "q": q, "k_max": BOUNDS_K_MAX,
            "rows": BOUNDS_ROWS}


def verify_job(doc: dict) -> dict:
    """`verify` on a generated document (see gendocs.py)."""
    return {"id": f"verify-{doc['name']}", "command": "verify", "path": doc["path"],
            "q": doc["q"], "k": doc["k"], "d": doc["d"], "expect_exit": doc["expect_exit"],
            "sets": doc["sets"], "exact": doc["exact"]}


# construct-binary: one point per binary builder (quintriple d=2, the (3,4)
# pattern d=4, line groups d=5, perfect code d=3 and d=7, tight d=6).  Most
# of the time is char-2 elimination in the verifier and indented emission
# of 1-18 MB documents; ExtField tables up to 2^14 are built and the
# oracle never runs.  A verifier or serialization change should move
# wall_s, cpu_s and (for emission) peak_rss_mb here.
CONSTRUCT_BINARY = [
    construct_job(2, 16, 2, 19661, 19661),
    construct_job(2, 15, 4, 6436, 6436),
    construct_job(2, 15, 5, 5377),
    construct_job(2, 15, 7, 4098, 4098),
    construct_job(2, 14, 6, 2305),
    construct_job(2, 12, 3, 1024, 1024),
]

# construct-qary: the same layers used differently: odd-characteristic and
# log-table arithmetic in field_core and the verifier, full_spread in
# geometry.  (7,6,2) and (9,5,3) are the line-spread-leftover regime;
# (5,8,2) and (3,10,3) are over prime fields; (4,9,2) and (8,5,2) over
# extension scalar fields.  A char-2-only shortcut that slows q > 2 shows
# up here as a rise in wall_s and cpu_s.
CONSTRUCT_QARY = [
    construct_job(7, 6, 2, 6504, 6504),
    construct_job(9, 5, 3, 1852, 1852),
    construct_job(5, 8, 2, 31251),
    construct_job(3, 10, 3, 6562),
    construct_job(4, 9, 2, 27307),
    construct_job(8, 5, 2, 1537),
    construct_job(11, 5, 2, 5326),
]

# verify-docs: the read path.  JSON parse and family_from_payload
# (cli.parse_s), then the verifier against a non-canonical target drawn
# from the seed.  No builder runs and no large document is emitted, so a
# gain that holds only for the canonical target, or that moves cost from
# emitting to parsing, shows up here as a rise in wall_s.
# Documents: name, (q, k, d), recorded family size, proved N or None.
# The corrupted copy (a point duplicated into a second set; exit 1) and
# the malformed copy (a coordinate out of range; exit 2) are made from
# fixed documents, so the work per pass does not depend on the seed; the
# seed picks where the corruption goes.  See gendocs.py.
VERIFY_DOCS = {
    "docs": [
        ("2-15-4", (2, 15, 4), 6436, 6436),
        ("2-15-5", (2, 15, 5), 5377, None),
        ("7-6-2", (7, 6, 2), 6504, 6504),
        ("4-9-2", (4, 9, 2), 27307, None),
        ("3-10-3", (3, 10, 3), 6562, None),
    ],
    "corrupted_from": "7-6-2",
    "malformed_from": "3-10-3",
}

# oracle-exact: search on tiny point sets, where the verifier and the CLI
# do almost nothing.  These instances are proved exact today; the budgeted
# (2,5,2) run is lower-bound-only, which is why exact_share is below 1.
# An oracle rewrite should move wall_s and, if (2,5,2) gets proved,
# exact_share.  `bounds` and `ilp` cost ~40 ms each and ride here so that
# they are measured at all.
ORACLE_EXACT = [
    oracle_job(2, 5, 1, 16),
    oracle_job(2, 5, 5, 6),
    oracle_job(8, 3, 2, 25),
    oracle_job(7, 3, 2, 20),
    oracle_job(3, 4, 4, 10),
    oracle_job(5, 3, 1, 15, minsets=True),
    oracle_job(4, 3, 2, 7, minsets=True),
    oracle_job(2, 4, 2, 5, minsets=True),
    oracle_job(3, 3, 2, 5, minsets=True),
    oracle_job(2, 5, 2, BUDGETED_VALUE_MAX, node_limit=BUDGETED_NODE_LIMIT),
    *(ilp_job(k) for k in (6, 16, 32, 64)),
    *(bounds_job(q) for q in (2, 3, 4, 5, 7, 8, 9)),
]

# Job lists for every workload except verify-docs, whose jobs point at
# documents generated per run.
STATIC = {
    "construct-binary": CONSTRUCT_BINARY,
    "construct-qary": CONSTRUCT_QARY,
    "oracle-exact": ORACLE_EXACT,
}
NAMES = ("construct-binary", "construct-qary", "verify-docs", "oracle-exact")


def cli_args(job: dict) -> list[str]:
    """Arguments after `python -m recovery_sets.cli` for a job."""
    cmd = job["command"]
    if cmd == "construct":
        return ["construct", "--q", str(job["q"]), "--k", str(job["k"]), "--d", str(job["d"])]
    if cmd == "oracle":
        args = ["oracle", "--q", str(job["q"]), "--k", str(job["k"]), "--d", str(job["d"])]
        if job["node_limit"] is not None:
            args += ["--node-limit", str(job["node_limit"])]
        return args
    if cmd == "verify":
        return ["verify", job["path"]]
    if cmd == "ilp":
        return ["ilp", "--k", str(job["k"])]
    if cmd == "bounds":
        span = f"1..{job['k_max']}"
        return ["bounds", "--q", str(job["q"]), "--k", span, "--d", span]
    raise ValueError(f"unknown command {cmd!r}")
