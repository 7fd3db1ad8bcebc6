"""Independent certification of recovery-set families.

Everything is recomputed from the raw point sets: spans by fresh
elimination, disjointness by canonical-representative equality, universe
membership against the ambient projective space.  No construction
bookkeeping is trusted; this module is the oracle of record for the
acceptance tests.

`verify_packed` is the one certification pass.  It reads points in the
int form of `field_core.pack` (the Boothby–Bradshaw slot layout,
arXiv:0901.1413), the form a `RecoveryFamily` holds them in, 256 sets at
a time: `verify_family` hands it a family's sets after checking that each
point is such an int, and the `verify` command packs a document's points
as it parses them.  A packed point lies in PG(k-1,q) when it is nonzero,
fits in k slots and has 1 in its leading slot, all read off its bit
length, and holds an element of F_q in every slot; disjointness is one
list of every point, sorted in place, in which a point listed twice sits
next to itself; a set spans the target when adding its well-formed points
to a fresh echelon in one `field_core.Echelon.reduce` call leaves no
residue of any basis row of the target.  The universe and disjointness
checks are this module's own; the span kernel is the one the builders and
the oracle use, tested against `rref` in `tests/test_verifier.py`.

A set is one-row when its points are v_i = a_i x + u_i for one x outside
the target U, scalars a_i != 0 and u_i in U.  Then sum c_i v_i lies in U
iff sum c_i a_i = 0, and then it is sum c_i a_i (u_i / a_i), so U lies in
the span of the set iff the differences u_i/a_i - u_1/a_1 span U: the
verdict depends on the u_i/a_i alone, and every set with the same ones
shares it.  Each field class takes one path:

  q = 2      Against the canonical target U, the span of the low d slots,
             a point (x | y) is x + y with y in U, so a set whose points
             share one nonzero high part x is reduced once per distinct
             set {y_i} of column parts.  The test reads x off the points
             (min and max share it, and `v >> low` is monotone).  Every
             other set, and every set against another target, takes its
             own reduction.
  one byte   (2 < q, slots one byte wide) Every target takes a frame
             change, a run of sets of one size at a time in byte columns.
             The RREF of the target rows, taken here, gives pivot columns
             P and free columns Q.  A point's pivot coordinates v_P are
             its coordinates along the RREF rows, and its quotient part
             w = v_Q - sum_i v_{p_i} R_i[Q] is v modulo U; w = a x with x
             led by 1, u = v - a x in U has coordinates v_P, so u/a has
             v_P / a.  Both are byte-column arithmetic: `_Slots.neg`
             tables and the slot add clear the pivots out of Q, and one
             `_Slots.unit` table per lead value a, under a mask of the
             points it leads, divides by a.  A set whose normalised
             quotient parts are equal and nonzero is one-row; its key is
             the bytes of its normalised pivot coordinates, in the order
             the set lists its points, and each distinct key is reduced
             once as the points (x0 | y_i) against the low slots, the
             same verdict by the argument above.  The canonical target is
             the identity frame.  A set with several rows, a point in U or
             a malformed point takes its own reduction.
  wider      (slots of two bytes or more) Every set takes its own
             reduction.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable
from itertools import chain, islice, repeat
from operator import eq
from typing import NamedTuple

from .field_core import Echelon, _slots, pack, point_bit_lengths, rref, slot_bits, unpack
from .geometry import num_points

from_bytes = int.from_bytes


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
    `field_core.pack`, against the packed basis rows `target`.  `sets` is
    read once, 256 sets at a time, so it may be a generator, and each set
    may be any collection.  A point listed twice, in two sets or in one,
    fails `disjoint_ok`; `points_used` counts distinct points."""
    lengths = point_bit_lengths(q, k)
    slots_ok = (lambda vs: True) if q == 2 else _slot_test(q, k)

    def well_formed(vs) -> bool:
        return lengths.issuperset(map(int.bit_length, vs)) and slots_ok(vs)

    check = _plain(q, target, well_formed)
    if q == 2:
        check = _binary(d, target, lengths, check)
    elif _slots(q).nbytes == 1:
        check = _byte_frame(q, k, target, lengths, check)
    universe_ok = spanning_ok = True
    points: list[int] = []
    sizes: Counter[int] = Counter()
    sets = iter(sets)
    while run := list(islice(sets, 256)):
        sizes.update(map(len, run))
        points += chain.from_iterable(run)
        spans, ok = check(run)
        spanning_ok &= spans
        universe_ok &= ok
    points.sort()
    repeats = sum(map(eq, points, islice(points, 1, None)))
    return Certificate(
        q=q,
        k=k,
        d=d,
        family_size=sum(sizes.values()),
        disjoint_ok=not repeats,
        spanning_ok=spanning_ok,
        universe_ok=universe_ok,
        points_used=len(points) - repeats,
        points_total=num_points(q, k),
        method=method,
        set_sizes=tuple(sorted(sizes.items())),
    )


def _plain(q: int, target: list[int], well_formed):
    """The check of a run in which every set takes its own reduction:
    (every set spans, every point is well formed)."""
    def check(run) -> tuple[bool, bool]:
        spanning_ok = universe_ok = True
        for vs in run:
            if not well_formed(vs):
                universe_ok = False
                # malformed points cannot participate in the span computation
                vs = [v for v in vs if well_formed((v,))]
            if Echelon(q).reduce(vs, target):
                spanning_ok = False
        return spanning_ok, universe_ok
    return check


def _binary(d: int, target: list[int], lengths: frozenset[int], plain):
    """The check of a binary run: one reduction per distinct set of
    column parts of the one-row sets against the canonical target, and
    `plain` for every other set."""
    if sorted(target) != [1 << i for i in range(d)]:
        return plain
    memo: dict[frozenset[int], bool] = {}

    def check(run) -> tuple[bool, bool]:
        spanning_ok = True
        rest = []
        for vs in run:
            # a one-row set: every point has the high part x, so one bit length
            if vs and 0 < (x := min(vs) >> d) == max(vs) >> d and x.bit_length() + d in lengths:
                key = frozenset(map((x << d).__xor__, vs))
                if (spans := memo.get(key)) is None:
                    spans = memo[key] = not Echelon(2).reduce(vs, target)
                spanning_ok = spanning_ok and spans
            else:
                rest.append(vs)
        spans, universe_ok = plain(rest)
        return spanning_ok and spans, universe_ok
    return check


def _byte_frame(q: int, k: int, target: list[int], lengths: frozenset[int], plain):
    """The check of a run where slots are one byte: the frame change of
    the module docstring, one reduction per distinct key of the one-row
    sets, and `plain` for every other set."""
    s = _slots(q)
    basis = rref([unpack(t, q, k) for t in target], s.field)
    pivots = [next(j for j, c in enumerate(row) if c) for row in basis]
    free = [j for j in range(k) if j not in pivots]
    if not basis or not free:
        return plain
    # per free column, the pivot columns to clear out of it and the table
    # that scales each by minus the row's entry there
    clears = [[(i, s.neg[s.spread(row[j])]) for i, row in zip(pivots, basis) if row[j]] for j in free]
    r = len(pivots)
    x0 = 1 << 8 * r
    lows = [1 << 8 * i for i in range(r)]
    valid = bytes(map(s.spread, range(q)))
    # marks[c]: the table that sends the slot value c to 255 and every other byte to 0
    marks = {c: bytes(c) + b"\xff" + bytes(255 - c) for c in valid}
    zero = marks[0]
    p, w1 = s.p, s.w - 1
    memo: dict[bytes, bool] = {}

    def joined(group) -> bytes:
        # 64 sets to a join: a join holds a buffer view of each of its parts
        return b"".join([b"".join(map(int.to_bytes, chain.from_iterable(group[i:i + 64]), repeat(k), repeat("big")))
                         for i in range(0, len(group), 64)])

    def check(run) -> tuple[bool, bool]:
        spanning_ok = True
        rest = []
        groups: dict[int, list] = {}
        for vs in run:
            groups.setdefault(len(vs), []).append(vs)
        for m, group in groups.items():
            ok = m and lengths.issuperset(map(int.bit_length, chain.from_iterable(group)))
            buf = joined(group) if ok else b""  # the slot test below reads it too
            if not buf or buf.translate(None, valid):
                rest += group  # an empty set or a malformed point sends its size group to `plain`
                continue
            n = len(group)
            size = n * m
            cols = [buf[j::k] for j in range(k)]
            # the quotient columns: each free column less its pivots' multiples
            if p > 2 and any(clears):
                bias, ones = from_bytes(s.bias * size, "big"), from_bytes(s.ones * size, "big")
            quotient = []
            for j, ops in zip(free, clears):
                if ops:
                    w = from_bytes(cols[j], "big")
                    for i, t in ops:
                        t = from_bytes(cols[i].translate(t), "big")
                        if p == 2:
                            w ^= t
                        else:
                            w += t
                            w -= ((w + bias) >> w1 & ones) * p
                    quotient.append(w.to_bytes(size, "big"))
                else:
                    quotient.append(cols[j])
            # each point's lead, its first nonzero quotient slot, is 0 for a
            # point in U
            lead, unled = 0, (1 << 8 * size) - 1
            for col in quotient:
                lead |= from_bytes(col, "big") & unled
                unled &= from_bytes(col.translate(zero), "big")
            lead = lead.to_bytes(size, "big")
            scales = [(s.unit[c], from_bytes(lead.translate(marks[c]), "big")) for c in set(lead) - {0, 1}]
            pivot_cols = [cols[i] for i in pivots]
            if scales:
                keep = (1 << 8 * size) - 1
                for _, mask in scales:
                    keep ^= mask

                def normalised(col: bytes) -> bytes:
                    v = from_bytes(col, "big") & keep
                    for table, mask in scales:
                        v |= from_bytes(col.translate(table), "big") & mask
                    return v.to_bytes(size, "big")

                quotient = list(map(normalised, quotient))
                pivot_cols = list(map(normalised, pivot_cols))
            # a set is one-row iff its first point has a lead and every
            # other point the first one's normalised quotient part
            other = from_bytes(lead[::m].translate(zero), "big")
            for col in quotient:
                first = from_bytes(col[::m], "big")
                for j in range(1, m):
                    other |= from_bytes(col[j::m], "big") ^ first
            keys = bytearray(size * r)
            for i, col in enumerate(pivot_cols):
                keys[i::r] = col
            keys = bytes(keys)
            span = m * r
            for at, vs, multi in zip(range(0, size * r, span), group, other.to_bytes(n, "big")):
                if multi:  # several rows, or a point in U
                    spans = not Echelon(q).reduce(vs, target)
                elif (spans := memo.get(key := keys[at:at + span])) is None:
                    ys = [x0 | from_bytes(key[i:i + r], "big") for i in range(0, span, r)]
                    spans = memo[key] = not Echelon(q).reduce(ys, lows)
                spanning_ok = spanning_ok and spans
        spans, universe_ok = plain(rest)
        return spanning_ok and spans, universe_ok
    return check


def _slot_test(q: int, k: int):
    """A test of a set of ints in 1..2^(k slots)-1: does every slot of
    every one hold the slot value `pack` gives an element of F_q?"""
    s = _slots(q)
    # no bit above the digits of a slot is set, and adding 2^w - p to a
    # w-bit digit carries out of it iff the digit is p or more
    lows = range(0, s.e * s.w, s.w) if s.p > 2 else ()
    every = sum(1 << j * s.bits for j in range(k))
    pad = (s.mask >> s.e * s.w << s.e * s.w) * every
    bias = sum((1 << s.w) - s.p << i for i in lows) * every
    carry = sum(1 << i + s.w for i in lows) * every
    return lambda vs: not any(v & pad or (v + bias ^ v ^ bias) & carry for v in vs)


def verify_family(family: RecoveryFamily) -> Certificate:
    """Certify an in-memory family of packed ints.  A point that is an
    int (not a bool) in 1..2^(k slots)-1, tested for 64 sets at once, then
    for each set of a run that fails, goes to `verify_packed` as it is,
    which tests the rest.  In a set that fails, each point that fails
    takes an id past every packed vector, one per type and value: it fails
    the bit-length test and keeps its identity."""
    q, k = family.q, family.k
    past = 1 << slot_bits(q) * k
    bad: dict = {}

    def in_range(vs) -> bool:
        return set(map(type, vs)) <= {int} and (not vs or 0 < min(vs) and max(vs) < past)

    def checked():  # 64 sets at a time, so no checked copy of the family piles up
        sets = iter(family.sets)
        while run := list(islice(sets, 64)):
            ok = in_range(list(chain.from_iterable(run)))
            for vs in run:
                yield vs if ok or in_range(vs) else [
                    v if in_range((v,)) else bad.setdefault((type(v), v), past + len(bad)) for v in vs]

    return verify_packed(q, k, family.d, [pack(r, q) for r in family.target.basis], checked(), family.method)
