"""Command-line surface: construct families, verify them, print bound
tables, run the packing bound ILP, run the exact oracle.

Every command emits one JSON document with a fixed schema:
schema_version, command, parameters, payload, timing_ms; `bounds --format
csv` writes CSV instead and `ilp --emit-model` a plain-text listing.
Payloads are deterministic for fixed parameters; timing stays outside
the payload.  Exit codes: 0 success, 1 invalid family, 2 bad input
(including instances past the ceiling on points and field orders), 3 internal
verification failure.

`verify` reads the document straight into packed sets: each point is
packed once (`field_core.pack`), checked and scaled to its canonical
representative on the int, and the packed sets go to
`verifier.verify_packed`; no tuple form of the family is built.
`construct` and `oracle` write a family's sets straight from the packed
points, one set per write, in tuple order and each set as the family
holds it (`_PackedSets`).  The path is chosen by q: in a one-digit field
(q <= 10) the points' bits or bytes fill fixed-width point text,
otherwise each point is one format of its coordinates.

The module imports only the standard library; each command imports the
submodules it runs when it starts, so a fresh process compiles no more of
the package than its command needs (`ilp` loads only `ilp`; `bounds`
loads neither the verifier nor the oracle).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from contextlib import contextmanager
from itertools import accumulate, chain, repeat

SCHEMA_VERSION = "1"

# A `bounds` table's (k, d) pairs times the digits of its largest value,
# ceil(k_max * log10 q): 8.1 * 10^6 at --q 2 --k 1..300 --d 1..300 (about 2 s).
MAX_TABLE_SIZE = 10**7

EXIT_OK = 0
EXIT_INVALID_FAMILY = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_BAD_INPUT):
        super().__init__(message)
        self.code = code


def _document(command: str, parameters: dict, payload: dict, started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "payload": payload,
        "timing_ms": round(1000 * (time.monotonic() - started), 3),
    }


# a str as json renders it (ASCII)
_encode_str = json.encoder.encode_basestring_ascii


@contextmanager
def _chunked_stdout():
    """stdout's `write`, filling the stream's own C buffer a chunk at a
    time.  Under `python -u` or PYTHONUNBUFFERED stdout writes through, one
    system call per write; it is switched to buffered for the scope, and
    switching back flushes."""
    out = sys.stdout
    through = getattr(out, "write_through", False)
    if through:
        out.reconfigure(write_through=False)
    try:
        yield out.write
    finally:
        if through:
            out.reconfigure(write_through=True)


def _emit(doc: dict) -> None:
    """Write `doc` to stdout, byte for byte as `json.dump(doc, indent=2)`,
    then a newline.  The two bulk arrays, a family's sets (`_PackedSets`)
    and a bounds table's rows (`_Rows`), write themselves one element per
    write; json writes every other value."""
    with _chunked_stdout() as write:
        _write_json(doc, "\n", write)
        write("\n")


def _write_json(o, nl: str, write) -> None:
    """Write `o` whose opening line is indented as `nl` ("\\n" + spaces).
    A bulk value writes itself; a non-empty dict with str keys is written
    key by key, so that a bulk value inside it still streams; json writes
    anything else.  json escapes every newline inside a string, so each
    "\\n" in its text starts a line and takes the indent."""
    if isinstance(o, (_PackedSets, _Rows)):
        o.write_json(nl, write)
    elif isinstance(o, dict) and o and all(isinstance(key, str) for key in o):
        inner = nl + "  "
        sep = "{" + inner
        for key, value in o.items():
            write(sep + _encode_str(key) + ": ")
            _write_json(value, inner, write)
            sep = "," + inner
        write(nl + "}")
    else:
        # a scalar takes json's C encoder, which leaves no cycles while gc is paused
        write(json.dumps(o, indent=2 if isinstance(o, (dict, list, tuple)) else None).replace("\n", nl))


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


class _PackedSets:
    """A family's sets as a document value that `_write_json` has write
    itself, one set per write.  Every producer gives its sets as ascending
    tuples of packed points, and packed points sort as their coordinates
    do, so the sets go in tuple order, `family_payload`'s order, and each
    set is written as the family holds it: no sorted copy of a set is
    made, and no text is kept from one set to the next.

    Where q <= 10 every coordinate is one digit, so every point's text has
    one width: 64 sets at a time, the points' digits (a binary point's
    bits, otherwise its bytes read through the slot table) are filled into
    a run of copies of one point's text, one coordinate at a time, and
    each set is a slice of the run.  Otherwise each point is one format of
    its coordinates."""

    def __init__(self, family: RecoveryFamily):
        self.family = family

    def write_json(self, nl: str, write) -> None:
        from .field_core import _slots, unpack

        q, k, sets = self.family.q, self.family.k, self.family.sets
        ordered = sorted(sets)
        si, pi, ci = nl + "  ", nl + "    ", nl + "      "  # how a set, a point and a coordinate indent
        sep = "[" + si
        if q <= 10:
            block = (pi + "[" + ci + ("," + ci).join("0" * k) + pi + "],").encode()  # a point's text
            width, start, step = len(block), len(pi) + 1 + len(ci), len(ci) + 2  # digit j at start + j * step
            if q > 2:
                table = bytes.maketrans(bytes(map(_slots(q).spread, range(q))), b"0123456789"[:q])
            for i in range(0, len(ordered), 64):
                run = ordered[i:i + 64]
                points = list(chain.from_iterable(run))
                if q == 2:
                    digits = "".join(map(format, points, repeat(f"0{k}b"))).encode()
                else:
                    digits = b"".join(map(int.to_bytes, points, repeat(k), repeat("big"))).translate(table)
                buf = bytearray(block * len(points))
                for j in range(k):
                    buf[start + j * step::width] = digits[j::k]
                text = buf.decode()
                a = 0
                for b in accumulate(map(len, run)):
                    write(sep + ("[" + text[a * width:b * width - 1] + si + "]" if b > a else "[]"))
                    sep, a = "," + si, b
        else:
            point = "[" + ci + ("," + ci).join(["%d"] * k) + pi + "]"
            for s in ordered:
                write(sep + ("[" + pi + ("," + pi).join([point % unpack(v, q, k) for v in s]) + si + "]" if s else "[]"))
                sep = "," + si
        write(nl + "]" if sets else "[]")


class _Rows:
    """A bounds table as a document value that `_write_json` has write
    itself, one row per write, as `BoundsRecord.to_payload` lays it out: keys
    in `_fields` order, ints or None, then the provenance tags (never none:
    `bound` tags its upper bound).  One %-format per count of tags."""

    def __init__(self, records: list):
        self.records = records

    def write_json(self, nl: str, write) -> None:
        from .bounds import BoundsRecord

        ri, fi, ti = nl + "  ", nl + "    ", nl + "      "  # how a row, a field and a tag indent
        *keys, tags = map(_encode_str, BoundsRecord._fields)
        head = "{" + "".join(fi + key + ": %s," for key in keys) + fi + tags + ": [" + ti
        formats = {}
        sep = "[" + ri
        for r in self.records:
            n = len(r.provenance)
            if n not in formats:
                formats[n] = head + ("," + ti).join(["%s"] * n) + fi + "]" + ri + "}"
            values = ["null" if v is None else v for v in r[:-1]]
            write(sep + formats[n] % (*values, *map(_encode_str, r.provenance)))
            sep = "," + ri
        write(nl + "]" if self.records else "[]")


def _family_document(family: RecoveryFamily, sets) -> dict:
    """The family's fields as JSON values, with `sets` as its sets."""
    from .field_core import extension, field, prime_power

    fld = field(family.q)
    p, e = prime_power(family.q)
    return {
        "q": family.q,
        "k": family.k,
        "d": family.d,
        "field": {
            "p": p,
            "e": e,
            "base_modulus": list(fld.modulus),
            "column_modulus": list(extension(fld, family.d).modulus),
        },
        "target": [list(row) for row in family.target.basis],
        "method": family.method,
        "formula_size": family.formula_size,
        "notes": list(family.notes),
        "sets": sets,
    }


def family_payload(family: RecoveryFamily) -> dict:
    """The family as JSON values, each point a list of its coordinates, in
    sorted order (packed points sort as their coordinates do).  No command
    calls it: it stays for perfbench/gendocs.py and perfbench/tracer.py
    (ROADMAP item 1 step B) and as the tests' reference form."""
    from .field_core import unpack

    q, k = family.q, family.k
    return _family_document(family, [[list(unpack(v, q, k)) for v in s] for s in sorted(map(sorted, family.sets))])


def _parse_family(payload: dict) -> tuple:
    """Check a family document and read its sets as packed points:
    (q, k, d, target subspace, sets, method, warnings).  Each set is a
    set of ints as `field_core.pack` lays them out, each point packed
    once and scaled to its canonical representative."""
    from .field_core import Subspace, field, pack, point_bit_lengths
    from .geometry import canonical_point, canonical_target

    warnings = []
    try:
        q, k, d = payload["q"], payload["k"], payload["d"]
        # JSON integers only: type() is int refuses bools, floats and strings
        if not all(type(x) is int for x in (q, k, d)):
            raise ValueError("q, k and d must be integers")
        _check_instance(q, k, d)
        fld = field(q)
        raw_target = [tuple(row) for row in payload["target"]]
        if any(type(c) is not int or not 0 <= c < q for row in raw_target for c in row):
            raise ValueError(f"target coordinates must be integers in 0..{q - 1}")
        target = Subspace.span(raw_target, fld, k) if raw_target else canonical_target(q, k, d)
        if target.dim != d:
            raise ValueError("target basis does not have dimension d")
        raw_sets = payload["sets"]
        # JSON integers only, in 0..q-1: pack refuses the rest but bools.  One
        # scan of every coordinate looks for bools; only if it finds one, or
        # something that is not a list, does the loop check each point.
        try:
            bools = bool in map(type, chain.from_iterable(chain.from_iterable(raw_sets)))
        except TypeError:
            bools = True
        canonical = point_bit_lengths(q, k)
        sets = []
        for raw_set in raw_sets:
            vs = set()
            for raw_pt in raw_set:
                vec = tuple(raw_pt)
                try:
                    if len(vec) != k or bools and bool in map(type, vec):
                        raise ValueError
                    v = pack(vec, q)
                except (TypeError, ValueError):
                    raise ValueError(f"bad point {raw_pt}") from None
                if v.bit_length() not in canonical:  # zero, or first nonzero coordinate not 1
                    v = pack(canonical_point(vec, fld), q)
                    warnings.append(f"normalized non-canonical representative {list(vec)}")
                if v in vs:
                    raise ValueError(f"point {raw_pt} repeats a point of its set")
                vs.add(v)
            sets.append(vs)
        method = str(payload.get("method", "external"))
        return q, k, d, target, sets, method, warnings
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"malformed family document: {exc}") from exc


def family_from_payload(payload: dict) -> tuple[RecoveryFamily, list[str]]:
    """The family a document holds, read as `verify` reads it, and the
    warnings.  Only perfbench/tracer.py calls it; delete it with ROADMAP
    item 1 step B."""
    from .constructions import RecoveryFamily

    q, k, d, target, sets, method, warnings = _parse_family(payload)
    return RecoveryFamily(q, k, d, target, [tuple(sorted(s)) for s in sets], method), warnings


def _check_instance(q: int, k: int, d: int) -> None:
    """Refuse bad parameters and instances past the ceiling before any
    tables are built.  One number, `field_core.MAX_FIELD_ORDER`, bounds the
    points of PG(k-1,q) and every field a builder builds: F_{q^n} with n < k
    has q^n <= q^(k-1) <= num_points, so only F_{q^d} at d = k needs a check."""
    from .field_core import MAX_FIELD_ORDER, prime_power
    from .geometry import num_points

    try:
        prime_power(q)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not 1 <= d <= k:
        raise CliError("need 1 <= d <= k")
    # min(k, 64): the count only grows with k, and 2^64 is past the ceiling
    if num_points(q, min(k, 64)) > MAX_FIELD_ORDER:
        raise CliError(f"PG({k - 1},{q}) has more points than the ceiling {MAX_FIELD_ORDER}")
    if q**d > MAX_FIELD_ORDER:
        raise CliError(f"field order {q}^{d} exceeds the ceiling {MAX_FIELD_ORDER}")


def _check_digits(q: int, k: int) -> None:
    """Refuse a table or model whose values, all below q^k, could pass
    Python's limit on the digits of an int written out as text."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    if limit and k * math.log10(q) >= limit:
        raise CliError(f"values up to {q}^{k} pass the ceiling of {limit} digits per written int")


def cmd_construct(args) -> int:
    from .constructions import construct
    from .verifier import verify_family

    started = time.monotonic()
    _check_instance(args.q, args.k, args.d)
    family = construct(args.q, args.k, args.d)
    cert = verify_family(family)
    payload = {
        "family": _family_document(family, _PackedSets(family)),
        "certificate": cert.to_payload(),
    }
    doc = _document("construct", {"q": args.q, "k": args.k, "d": args.d}, payload, started)
    _emit(doc)
    return EXIT_OK if cert.valid else EXIT_INTERNAL


def cmd_bounds(args) -> int:
    from .bounds import bound_table
    from .field_core import prime_power

    started = time.monotonic()
    try:
        prime_power(args.q)
        k_range = _parse_range(args.k)
        d_range = _parse_range(args.d)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    # stop - start, not len(), which overflows past 2^63
    digits = max(1, math.ceil((k_range.stop - 1) * math.log10(args.q)))
    size = (k_range.stop - k_range.start) * (d_range.stop - d_range.start) * digits
    if size > MAX_TABLE_SIZE:
        raise CliError(f"table size {size} (pairs times digits per value) passes the ceiling {MAX_TABLE_SIZE}")
    _check_digits(args.q, k_range.stop - 1)
    records = bound_table(args.q, k_range, d_range)
    if not records:
        raise CliError("empty parameter range")
    if args.format == "csv":
        with _chunked_stdout() as write:
            write("q,k,d,lower,upper,exact,provenance\n")
            for r in records:
                exact = "" if r.exact is None else r.exact
                write(f"{r.q},{r.k},{r.d},{r.lower},{r.upper},{exact},{';'.join(r.provenance)}\n")
        return EXIT_OK
    payload = {"rows": _Rows(records)}
    # "upper_variant" stays for perfbench/tracer.py until ROADMAP item 1 step B
    doc = _document(
        "bounds",
        {"q": args.q, "k": args.k, "d": args.d, "upper_variant": "corrected"},
        payload,
        started,
    )
    _emit(doc)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .field_core import pack
    from .verifier import verify_packed

    started = time.monotonic()
    try:
        with open(args.path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError: bytes that are not UTF-8, or text that is not JSON;
    # RecursionError: arrays or objects nested past the parser's depth
    except (OSError, ValueError, RecursionError) as exc:
        raise CliError(f"cannot read family document: {exc}") from exc
    for key in ("payload", "family"):
        if not isinstance(doc, dict):
            raise CliError("malformed family document: not a JSON object")
        doc = doc.get(key, doc)
    q, k, d, target, sets, method, warnings = _parse_family(doc)
    cert = verify_packed(q, k, d, [pack(row, q) for row in target.basis], sets, method)
    out = {"certificate": cert.to_payload(), "warnings": warnings}
    _emit(_document("verify", {"path": args.path}, out, started))
    return EXIT_OK if cert.valid else EXIT_INVALID_FAMILY


def cmd_ilp(args) -> int:
    from fractions import Fraction

    from .ilp import DualSolution, build_ilp_d2, check_dual, export_model, solve_ilp

    started = time.monotonic()
    if args.k < 2:
        raise CliError("need k >= 2")
    _check_digits(2, args.k)
    model = build_ilp_d2(args.k)
    if args.emit_model:
        print(export_model(model))
        return EXIT_OK
    optimum, assignment = solve_ilp(model)
    dual = DualSolution(Fraction(1, 2), Fraction(1, 5), Fraction(1, 10))
    feasible, objective, violated = check_dual(dual, args.k)
    payload = {
        "optimum": optimum,
        "assignment": assignment,
        "rhs": list(model.rhs),
        "dual_certificate": {
            "z": [str(dual.z1), str(dual.z2), str(dual.z3)],
            "feasible": feasible,
            "objective": str(objective),
            "violated": violated,
        },
    }
    _emit(_document("ilp", {"k": args.k}, payload, started))
    return EXIT_OK


def cmd_oracle(args) -> int:
    from .oracle import SearchConfig, exact_N
    from .verifier import verify_family

    started = time.monotonic()
    _check_instance(args.q, args.k, args.d)
    limit = args.node_limit  # parsed as a float, so that 1e6 reads as 10^6
    try:
        if limit is not None and not limit.is_integer():
            raise ValueError(f"node_limit must be a positive integer, not {limit}")
        cfg = SearchConfig(node_limit=None if limit is None else int(limit))
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    result = exact_N(args.q, args.k, args.d, cfg)
    cert = verify_family(result.witness)
    payload = {
        "value": result.value,
        "status": result.status,
        "nodes": result.nodes,
        "witness": _family_document(result.witness, _PackedSets(result.witness)),
        "witness_certificate": cert.to_payload(),
    }
    # "threads" stays for perfbench/tracer.py until ROADMAP item 1 step B
    doc = _document(
        "oracle",
        {"q": args.q, "k": args.k, "d": args.d, "threads": 1},
        payload,
        started,
    )
    _emit(doc)
    return EXIT_OK if cert.valid else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recovery-sets",
        description="Disjoint recovery sets for subspaces over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build and certify a recovery family")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", help="tabulate lower/upper/exact bounds")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=str, required=True, help="value or range lo..hi")
    p.add_argument("--d", type=str, required=True, help="value or range lo..hi")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="re-verify a family JSON document")
    p.add_argument("path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("ilp", help="solve the binary d=2 packing bound ILP")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--emit-model", action="store_true")
    p.set_defaults(func=cmd_ilp)

    p = sub.add_parser("oracle", help="exact maximum by exhaustive packing")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--node-limit", type=float, default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command makes no cycle per object (the oracle one closure cycle per
    # minimal-set enumeration, parsed JSON none), so the cyclic collector
    # would only re-walk its sets, tuples and lists: it runs paused, and the
    # caller's setting comes back after.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
