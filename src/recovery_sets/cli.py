"""Command-line surface: construct families, verify them, print bound
tables, run the packing bound ILP, run the exact oracle.

Every command emits one JSON document (CSV optionally for tables) with a
fixed schema: schema_version, command, parameters, payload, timing_ms.
Payloads are deterministic for fixed parameters; timing stays outside
the payload.  Exit codes: 0 success, 1 invalid family, 2 bad input
(including instances past the point or field-order ceilings), 3 internal
verification failure.

`verify` reads the document straight into packed sets: each point is
packed once (`field_core.pack`), checked and scaled to its canonical
representative on the int, and the packed sets go to
`verifier.verify_packed`; no tuple form of the family is built.

The module imports only the standard library; each command imports the
submodules it runs when it starts, so a fresh process compiles no more of
the package than its command needs (`ilp` loads only `ilp`; `bounds`
loads neither the verifier nor the oracle).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import chain

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


# str, float, bool and None as json.dump renders them (ASCII, NaN allowed)
_encode = json.JSONEncoder().encode


def _emit(doc: dict) -> None:
    """Write `doc` to stdout, byte for byte as `json.dump(doc, indent=2)`,
    then a newline.  The document streams out in small chunks, never as
    one string; a list of plain ints, such as a point, is one join."""
    write = sys.stdout.write
    _write_json(doc, "\n", write)
    write("\n")


def _write_json(o, nl: str, write) -> None:
    """Write `o` whose opening line is indented as `nl` ("\\n" + spaces)."""
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            write("{}")
            return
        sep = "{" + inner
        for key, value in o.items():
            write(sep + _json_key(key) + ": ")
            _write_json(value, inner, write)
            sep = "," + inner
        write(nl + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            write("[]")
        elif all(type(x) is int for x in o):  # not bool: JSON spells it true/false
            write("[" + inner + ("," + inner).join(map(repr, o)) + nl + "]")
        else:
            sep = "[" + inner
            for item in o:
                write(sep)
                _write_json(item, inner, write)
                sep = "," + inner
            write(nl + "]")
    else:
        write(_encode(o))


def _json_key(key) -> str:
    """A dict key as json renders it: a str as a JSON string, an int,
    float, bool or None as its JSON text in quotes ({1: x} -> "1": x)."""
    if isinstance(key, str):
        return _encode(key)
    if key is None or isinstance(key, (int, float)):
        return _encode(_encode(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    v = int(text)
    return range(v, v + 1)


def family_payload(family: RecoveryFamily) -> dict:
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
        "sets": sorted(sorted(map(list, s)) for s in family.sets),
    }


def _parse_family(payload: dict) -> tuple:
    """Check a family document and read its sets as packed points:
    (q, k, d, target subspace, sets, method, warnings).  Each set is a
    set of ints as `field_core.pack` lays them out, each point packed
    once and scaled to its canonical representative."""
    from .constructions import canonical_target
    from .field_core import Subspace, field, pack, point_bit_lengths
    from .geometry import canonical_point

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
    from .constructions import RecoveryFamily

    q, k, d, target, sets, method, warnings = _parse_family(payload)
    return RecoveryFamily(q, k, d, target, _unpack(sets, q, k), method), warnings


def _unpack(sets: list[set[int]], q: int, k: int) -> list[frozenset]:
    """Packed sets back as sets of tuples, the points that `field_core.pack`
    laid out.  Only family_from_payload needs it, for perfbench/tracer.py;
    delete both with ROADMAP item 1 step B."""
    from .field_core import _slots, prime_power, slot_bits

    bits = slot_bits(q)
    mask = (1 << bits) - 1
    shifts = range(bits * (k - 1), -1, -bits)
    p, e = prime_power(q)
    if p > 2 and e > 1:  # base-p digits in sub-slots; elsewhere a slot holds the element
        gather = _slots(q).gather
        return [frozenset(tuple(gather(v >> sh & mask) for sh in shifts) for v in vs) for vs in sets]
    return [frozenset(tuple([v >> sh & mask for sh in shifts]) for v in vs) for vs in sets]


def _check_instance(q: int, k: int, d: int) -> None:
    """Refuse bad parameters and instances past the point or field-order
    ceilings before any tables are built.  The column field F_{q^d} is the
    largest field a builder or payload needs once the points fit."""
    from .field_core import MAX_FIELD_ORDER, prime_power
    from .geometry import DEFAULT_POINT_LIMIT, num_points

    try:
        prime_power(q)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if not 1 <= d <= k:
        raise CliError("need 1 <= d <= k")
    # min(k, 64): the count only grows with k, and 2^64 is past the ceiling
    if num_points(q, min(k, 64)) > DEFAULT_POINT_LIMIT:
        raise CliError(f"PG({k - 1},{q}) has more points than the ceiling {DEFAULT_POINT_LIMIT}")
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
        "family": family_payload(family),
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
        print("q,k,d,lower,upper,exact,provenance")
        for r in records:
            exact = "" if r.exact is None else r.exact
            print(f"{r.q},{r.k},{r.d},{r.lower},{r.upper},{exact},{';'.join(r.provenance)}")
        return EXIT_OK
    payload = {"rows": [r.to_payload() for r in records]}
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
        cfg = SearchConfig(
            node_limit=None if limit is None else int(limit),
            time_limit=args.time_limit,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    result = exact_N(args.q, args.k, args.d, cfg)
    cert = verify_family(result.witness)
    payload = {
        "value": result.value,
        "status": result.status,
        "nodes": result.nodes,
        "witness": family_payload(result.witness),
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
    if not cert.valid:
        return EXIT_INTERNAL
    return EXIT_OK


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
    p.add_argument("--time-limit", type=float, default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
