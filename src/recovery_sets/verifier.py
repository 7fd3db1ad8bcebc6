"""Independent certification of recovery-set families.

Everything is recomputed from the raw point sets: spans by fresh
elimination, disjointness by canonical-representative equality, universe
membership against the ambient projective space.  No construction
bookkeeping is trusted; this module is the oracle of record for the
acceptance tests.

`verify_packed` is the one certification pass.  It reads points in the
int form of `field_core.pack` (the Boothby–Bradshaw slot layout,
arXiv:0901.1413), each packed once by its caller: `verify_family` packs
a family's tuples, and the `verify` command packs a document's points as
it parses them.  A packed point lies in PG(k-1,q) when it is nonzero,
fits in k slots and has 1 in its leading slot, all read off its bit
length; disjointness is a set of ints; the span check adds each set's
well-formed points to a fresh echelon in one `field_core.Echelon.reduce`
call, which must leave no residue of any basis row of the target.  The
universe and disjointness checks are this module's own; the span kernel
is the one the builders and the oracle use, tested against `rref` in
`tests/test_verifier.py`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable
from typing import NamedTuple

from .field_core import Echelon, pack, point_bit_lengths, slot_bits
from .geometry import num_points
from .constructions import RecoveryFamily

class Certificate(NamedTuple):
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


def verify_packed(q: int, k: int, d: int, target: list[int], sets: Iterable[Collection[int]],
                  method: str) -> Certificate:
    """Certify `sets` of nonnegative ints, the points packed as by
    `field_core.pack` with no int twice in one set, against the packed
    basis rows `target`.  `sets` is read once, so it may be a generator."""
    lengths = point_bit_lengths(q, k)
    universe_ok = True
    spanning_ok = True
    seen: set[int] = set()
    occurrences = 0
    sizes: Counter[int] = Counter()
    for vs in sets:
        sizes[len(vs)] += 1
        occurrences += len(vs)
        seen.update(vs)
        if not lengths.issuperset(map(int.bit_length, vs)):
            universe_ok = False
            # malformed points cannot participate in the span computation
            vs = [v for v in vs if v.bit_length() in lengths]
        if Echelon(q).reduce(vs, target):
            spanning_ok = False
    return Certificate(
        q=q,
        k=k,
        d=d,
        family_size=sum(sizes.values()),
        disjoint_ok=occurrences == len(seen),
        spanning_ok=spanning_ok,
        universe_ok=universe_ok,
        points_used=len(seen),
        points_total=num_points(q, k),
        method=method,
        set_sizes=tuple(sorted(sizes.items())),
    )


def verify_family(family: RecoveryFamily) -> Certificate:
    """Pack each point of the family once and certify the packed sets."""
    q, k = family.q, family.k
    # A tuple that pack refuses, or of another length than k, takes an id
    # past every packed vector of F_q^k, one per distinct tuple: it fails
    # the universe check and keeps its identity in the disjointness count.
    # The length is checked here because pack cannot see it: at k = 3,
    # (1, 1) packs as (0, 1, 1) does.
    past = 1 << slot_bits(q) * k
    bad: dict = {}

    def packed():  # one set at a time, so no packed copy of the family piles up
        for s in family.sets:
            vs = []
            for p in s:
                try:
                    v = pack(p, q) if len(p) == k else None
                except (TypeError, ValueError):
                    v = None
                vs.append(bad.setdefault(p, past + len(bad)) if v is None else v)
            yield vs

    target = [pack(row, q) for row in family.target.basis]
    return verify_packed(q, k, family.d, target, packed(), family.method)
