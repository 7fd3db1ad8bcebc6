"""Independent certification of recovery-set families.

Everything is recomputed from the raw point sets: spans by fresh
elimination, disjointness by canonical-representative equality, universe
membership against the ambient projective space.  No construction
bookkeeping is trusted; this module is the oracle of record for the
acceptance tests.

`verify_family` makes one pass over the family.  It packs every point
once into the int form of `field_core.pack`, whose layout doubles as
the check that every coordinate lies in F_q; a point of the universe
also has length k and first nonzero coordinate 1.  It records every
point for the disjointness count and runs the span check on each set's
well-formed points: one `field_core.Echelon.reduce` call adds them to a
fresh echelon and must leave no residue of any basis row of the target.
The universe and disjointness checks are this module's own; the span
kernel is the one the builders and the oracle use, tested against
`rref` in `tests/test_verifier.py`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .field_core import Echelon, pack
from .geometry import Point, num_points
from .constructions import RecoveryFamily

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


def verify_family(family: RecoveryFamily) -> Certificate:
    q, k, d = family.q, family.k, family.d
    target_rows = [pack(row, q) for row in family.target.basis]
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
            # a point of PG(k-1,q): length k, coordinates in F_q (pack
            # checks them), first nonzero coordinate 1
            try:
                v = pack(p, q)
            except (TypeError, ValueError):
                v = 0
            if v and len(p) == k and next(filter(None, p)) == 1:
                vectors.append(v)
            else:
                universe_ok = False
        # malformed points cannot participate in the span computation
        if Echelon(q).reduce(vectors, target_rows):
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
