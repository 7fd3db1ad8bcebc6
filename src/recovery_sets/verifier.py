"""Independent certification of recovery-set families.

Everything is recomputed from the raw point sets: spans by fresh
elimination, disjointness by canonical-representative equality, universe
membership against the ambient projective space.  No construction
bookkeeping is trusted; this module is the oracle of record for the
acceptance tests.

`verify_packed` is the one certification pass.  It reads points in the
int form of `field_core.pack` (the Boothby–Bradshaw slot layout,
arXiv:0901.1413), the form a `RecoveryFamily` holds them in:
`verify_family` hands it a family's sets after checking that each point
is such an int, and the `verify` command packs a document's points as it
parses them.  A packed point lies in PG(k-1,q) when it is nonzero, fits
in k slots and has 1 in its leading slot, all read off its bit length;
disjointness is a set of ints; the span check adds each set's
well-formed points to a fresh echelon in one `field_core.Echelon.reduce`
call, which must leave no residue of any basis row of the target.  The
universe and disjointness checks are this module's own; the span kernel
is the one the builders and the oracle use, tested against `rref` in
`tests/test_verifier.py`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable
from itertools import chain, islice, repeat
from typing import NamedTuple

from .field_core import Echelon, _slots, pack, point_bit_lengths, slot_bits
from .geometry import num_points


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
        """The fields in order, set sizes keyed by str, then `valid`."""
        payload = self._asdict()
        payload["set_sizes"] = {str(size): count for size, count in self.set_sizes}
        payload["valid"] = self.valid
        return payload


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


def _slot_test(q: int, k: int):
    """A test of a set of ints in 1..2^(k slots)-1: does every slot of
    every one hold the slot value `pack` gives an element of F_q?"""
    s = _slots(q)
    if s.nbytes == 1:
        valid = bytes(map(s.spread, range(q)))
        return lambda vs: not b"".join(map(int.to_bytes, vs, repeat(k), repeat("big"))).translate(None, valid)
    # wider slots: no bit above the digits of a slot is set, and adding
    # 2^w - p to a w-bit digit carries out of it iff the digit is p or more
    lows = range(0, s.e * s.w, s.w) if s.p > 2 else ()
    every = sum(1 << j * s.bits for j in range(k))
    pad = (s.mask >> s.e * s.w << s.e * s.w) * every
    bias = sum((1 << s.w) - s.p << i for i in lows) * every
    carry = sum(1 << i + s.w for i in lows) * every
    return lambda vs: not any(v & pad or (v + bias ^ v ^ bias) & carry for v in vs)


def verify_family(family: RecoveryFamily) -> Certificate:
    """Certify an in-memory family of packed ints.  A point is in the
    universe iff it is an int (not a bool), positive, passes the bit-length
    test and holds an element of F_q in every slot, tested for 64 sets at
    once, then for each set of a run that fails.  In a set that fails, each
    point that fails takes an id past every packed vector, one per type and
    value: it fails the bit-length test and keeps its identity."""
    q, k = family.q, family.k
    past = 1 << slot_bits(q) * k
    slots_ok = (lambda vs: True) if q == 2 else _slot_test(q, k)
    bad: dict = {}

    def well_formed(vs) -> bool:
        return set(map(type, vs)) <= {int} and (not vs or 0 < min(vs) and max(vs) < past) and slots_ok(vs)

    def checked():  # 64 sets at a time, so no checked copy of the family piles up
        sets = iter(family.sets)
        while run := list(islice(sets, 64)):
            ok = well_formed(list(chain.from_iterable(run)))
            for vs in run:
                yield vs if ok or well_formed(vs) else [
                    v if well_formed((v,)) else bad.setdefault((type(v), v), past + len(bad)) for v in vs]

    return verify_packed(q, k, family.d, [pack(r, q) for r in family.target.basis], checked(), family.method)
