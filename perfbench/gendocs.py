"""Generate the verify-docs input documents (run as a child process).

    python perfbench/gendocs.py <config-json>

The config names the output directory, the seed and the documents:
{"out": dir, "seed": n, "docs": [[name, [q, k, d], sets, exact], ...],
 "corrupted_from": name, "malformed_from": name}.

Each document is the construct() family for (q, k, d), moved by
conjugate_family onto a target subspace drawn from the seed, written as a
construct document with the CLI's indentation.  Two more copies are made:
one with a point duplicated into a second set (verify exits 1) and one
with a coordinate out of range (verify exits 2).  Prints a JSON manifest
with each file's sha256.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import sys

from recovery_sets import Subspace, conjugate_family, construct, field
from recovery_sets.cli import SCHEMA_VERSION, family_payload


def random_target(rng: random.Random, q: int, k: int, d: int) -> Subspace:
    fld = field(q)
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(d)]
        target = Subspace.span(rows, fld, k)
        if target.dim == d:
            return target


def write_doc(path: str, q: int, k: int, d: int, family: dict) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "construct",
        "parameters": {"q": q, "k": k, "d": d},
        "payload": {"family": family},
        "timing_ms": 0.0,
    }
    data = (json.dumps(doc, indent=2) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def generate(cfg: dict) -> list[dict]:
    rng = random.Random(cfg["seed"])
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    manifest = []
    families = {}
    for name, (q, k, d), sets, exact in cfg["docs"]:
        family = construct(q, k, d)
        moved = conjugate_family(family, random_target(rng, q, k, d))
        payload = family_payload(moved)
        if len(payload["sets"]) < sets:
            raise SystemExit(f"construct{(q, k, d)}: {len(payload['sets'])} sets, below {sets}")
        families[name] = (q, k, d, payload)
        path = os.path.join(out, f"{name}.json")
        manifest.append({"name": name, "path": path, "q": q, "k": k, "d": d, "expect_exit": 0,
                         "sets": len(payload["sets"]), "exact": exact,
                         "sha256": write_doc(path, q, k, d, payload)})

    q, k, d, payload = families[cfg["corrupted_from"]]
    bad = copy.deepcopy(payload)
    i, j = rng.sample(range(len(bad["sets"])), 2)
    bad["sets"][j].append(rng.choice(bad["sets"][i]))
    path = os.path.join(out, f"corrupted-{cfg['corrupted_from']}.json")
    manifest.append({"name": f"corrupted-{cfg['corrupted_from']}", "path": path, "q": q, "k": k,
                     "d": d, "expect_exit": 1, "sets": len(bad["sets"]), "exact": None,
                     "sha256": write_doc(path, q, k, d, bad)})

    q, k, d, payload = families[cfg["malformed_from"]]
    bad = copy.deepcopy(payload)
    bad["sets"][-1][-1][-1] = q
    path = os.path.join(out, f"malformed-{cfg['malformed_from']}.json")
    manifest.append({"name": f"malformed-{cfg['malformed_from']}", "path": path, "q": q, "k": k,
                     "d": d, "expect_exit": 2, "sets": len(bad["sets"]), "exact": None,
                     "sha256": write_doc(path, q, k, d, bad)})
    return manifest


if __name__ == "__main__":
    print(json.dumps(generate(json.loads(sys.argv[1]))))
