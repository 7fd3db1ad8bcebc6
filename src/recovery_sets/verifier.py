"""Independent certification of recovery-set families.

Everything is recomputed from the raw point sets: spans by fresh
elimination, disjointness by canonical-representative equality, universe
membership against the ambient projective space.  No construction
bookkeeping is trusted; this module is the oracle of record for the
acceptance tests.

`verify_family` makes one pass over the family.  It checks and packs
every point once (length k, coordinates in F_q, first nonzero
coordinate 1), records it for the disjointness count and runs the span
check on each set's well-formed points; `verify_recovery_set` runs the
same check on one set.  The span check has one kernel per kind of field:

  q = 2   A point becomes its coordinate bitmask, first coordinate in
          the highest bit.  The span is an XOR basis sorted by decreasing
          leading bit, so a vector reduces by v = min(v, v ^ b) over it.
  q > 2   Points are coordinate lists, row-reduced with the mul, sub and
          inv tables of F_q.  The tables are built on first use for each
          q; past order 256 they fill in entry by entry instead.

Either way a set spans the target iff adding the target's basis rows
leaves the rank unchanged.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from .field_core import Subspace, field
from .geometry import Point, num_points
from .constructions import RecoveryFamily

# bytes 0 and 1 become the digits "0" and "1"; every other byte becomes
# "2", which int(..., 2) rejects
_BITS = bytes.maketrans(bytes(range(256)), b"01" + b"2" * 254)

# F_q tables up to this order are built whole (2 x 65,536 entries at most)
_FULL_TABLE_ORDER = 256


@dataclass(frozen=True)
class Certificate:
    q: int
    k: int
    d: int
    family_size: int
    disjoint_ok: bool
    spanning_ok: bool
    universe_ok: bool
    points_used: int
    points_total: int
    method: str
    set_sizes: tuple[tuple[int, int], ...]

    @property
    def valid(self) -> bool:
        return self.disjoint_ok and self.spanning_ok and self.universe_ok

    def to_payload(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "d": self.d,
            "family_size": self.family_size,
            "disjoint_ok": self.disjoint_ok,
            "spanning_ok": self.spanning_ok,
            "universe_ok": self.universe_ok,
            "points_used": self.points_used,
            "points_total": self.points_total,
            "method": self.method,
            "set_sizes": {str(size): count for size, count in self.set_sizes},
            "valid": self.valid,
        }


def _mask(row) -> int:
    """The bitmask of a binary vector; ValueError unless every coordinate is 0 or 1."""
    return int(bytes(row).translate(_BITS), 2)


def _packed(p, q: int, k: int):
    """A point of PG(k-1,q) in its kernel's form: the bitmask for q = 2,
    the tuple itself for q > 2.  None if p is not such a point: wrong
    length, a coordinate outside F_q, or a first nonzero coordinate
    other than 1 (the zero vector included)."""
    if q == 2:
        try:
            v = _mask(p)
        except (TypeError, ValueError):
            return None
        return v if v and len(p) == k else None
    if len(p) == k and min(p) >= 0 and max(p) < q and next(filter(None, p), 0) == 1:
        return p
    return None


def _xor_rank(masks, basis: list[int]) -> int:
    """Insert the masks into an XOR basis sorted by decreasing leading bit."""
    for v in masks:
        for b in basis:
            if v ^ b < v:
                v ^= b
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return len(basis)


class _Memo(dict):
    """A table that computes each entry on first lookup."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@functools.lru_cache(maxsize=None)
def _tables(q: int):
    """mul, sub and inv tables of F_q, indexed [a][b] and [a]."""
    fld = field(q)
    if q > _FULL_TABLE_ORDER:
        return (_Memo(lambda a: _Memo(functools.partial(fld.mul, a))),
                _Memo(lambda a: _Memo(functools.partial(fld.sub, a))),
                _Memo(fld.inv))
    elems = range(q)
    mul = [[fld.mul(a, b) for b in elems] for a in elems]
    sub = [[fld.sub(a, b) for b in elems] for a in elems]
    return mul, sub, [0] + [fld.inv(a) for a in elems[1:]]


def _table_rank(vectors, rows: list, tables) -> int:
    """Insert the vectors into a list of (pivot, row) with unit pivots."""
    mul, sub, inv = tables
    for v in vectors:
        for pivot, row in rows:
            c = v[pivot]
            if c:
                mc = mul[c]
                v = [sub[x][mc[y]] for x, y in zip(v, row)]
        lead = next(filter(None, v), 0)
        if lead == 1:
            rows.append((v.index(1), v))
        elif lead:
            scale = mul[inv[lead]]
            rows.append((v.index(lead), [scale[x] for x in v]))
    return len(rows)


def _target_rows(target: Subspace, q: int):
    """The target's basis rows in the kernel's form, packed once per family."""
    return [_mask(row) for row in target.basis] if q == 2 else target.basis


def _spans(vectors: list, target_rows, q: int) -> bool:
    """True iff the span of the packed points contains the target rows."""
    if q == 2:
        basis: list[int] = []
        rank = _xor_rank(vectors, basis)
        return _xor_rank(target_rows, basis) == rank
    tables = _tables(q)
    echelon: list = []
    rank = _table_rank(vectors, echelon, tables)
    return _table_rank(target_rows, echelon, tables) == rank


def verify_recovery_set(points, target: Subspace, fld) -> bool:
    """True iff the span of the points contains the target subspace.

    Anything that is not a point of PG(k-1,q) (see `_packed`) is left out
    of the span, as in `verify_family`.
    """
    q, k = fld.order, target.ambient
    vectors = [v for v in (_packed(p, q, k) for p in points) if v is not None]
    return _spans(vectors, _target_rows(target, q), q)


def verify_family(family: RecoveryFamily) -> Certificate:
    q, k, d = family.q, family.k, family.d
    target_rows = _target_rows(family.target, q)
    universe_ok = True
    spanning_ok = True
    seen: dict[Point, None] = {}
    occurrences = 0
    sizes: Counter[int] = Counter()
    for s in family.sets:
        sizes[len(s)] += 1
        occurrences += len(s)
        vectors = []
        for p in s:
            seen[p] = None
            v = _packed(p, q, k)
            if v is None:
                universe_ok = False
            else:
                vectors.append(v)
        # malformed points cannot participate in the span computation
        if not _spans(vectors, target_rows, q):
            spanning_ok = False
    return Certificate(
        q=q,
        k=k,
        d=d,
        family_size=len(family.sets),
        disjoint_ok=occurrences == len(seen),
        spanning_ok=spanning_ok,
        universe_ok=universe_ok,
        points_used=len(seen),
        points_total=num_points(q, k),
        method=family.method,
        set_sizes=tuple(sorted(sizes.items())),
    )
