import random
import tracemalloc
from collections import Counter
from itertools import chain, product

import pytest

from recovery_sets.field_core import Echelon, Subspace, field, pack, prime_power, rref, slot_bits, unpack
from recovery_sets.constructions import RecoveryFamily, canonical_target, conjugate_family, construct
from recovery_sets.geometry import enumerate_points, num_points
from recovery_sets import verifier
from recovery_sets.verifier import Certificate, verify_family, verify_packed

from spans import span_contains


class TestVerifyRecoverySet:
    """One recovery set at a time, checked with span_contains."""

    def test_basis_points(self):
        target = canonical_target(2, 4, 2)
        assert span_contains([(0, 0, 1, 0), (0, 0, 0, 1)], target, field(2))

    def test_zero_column_plus_run(self):
        # (x,0) together with d consecutive powers spans the target
        from recovery_sets.constructions import _row_layout
        from recovery_sets.geometry import Layout

        # the row (1, 0) of F_2^2
        lay = Layout(2, 5, 3)
        sets = [[lay.pt(1, c) for c in cs] for cs in _row_layout(lay, ())]
        target = canonical_target(2, 5, 3)
        f2 = field(2)
        assert all(span_contains(s, target, f2) for s in sets)

    def test_single_point_fails(self):
        target = canonical_target(2, 4, 2)
        assert not span_contains([(0, 0, 1, 0)], target, field(2))


class TestVerifyFamily:
    def test_valid_construction(self):
        cert = verify_family(construct(2, 4, 2))
        assert cert.valid and cert.family_size == 5
        assert cert.points_total == 15
        assert dict(cert.set_sizes) == {2: 1, 3: 3, 4: 1}

    def test_large_q(self):
        cert = verify_family(construct(7, 4, 2))
        assert cert.valid and cert.family_size == 134
        assert cert.points_used == cert.points_total == 400

    def test_duplicate_point_detected(self):
        fam = construct(2, 4, 2)
        p = next(iter(fam.sets[1]))
        fam.sets[0] = frozenset(set(fam.sets[0]) | {p})
        cert = verify_family(fam)
        assert not cert.disjoint_ok and not cert.valid

    def test_non_spanning_detected(self):
        fam = construct(2, 4, 2)
        fam.sets[0] = frozenset(list(fam.sets[0])[:1])
        cert = verify_family(fam)
        assert not cert.spanning_ok

    def test_foreign_point_detected(self):
        fam = construct(2, 4, 2)
        fam.sets[0] = frozenset(set(fam.sets[0]) | {pack((1, 0, 0, 1, 1), 2)})
        cert = verify_family(fam)
        assert not cert.universe_ok

    def test_non_canonical_rep_detected(self):
        fam = construct(3, 3, 2)
        s = set(fam.sets[0])
        p = s.pop()
        f3 = field(3)
        s.add(pack(tuple(f3.mul(2, c) for c in unpack(p, 3, 3)), 3))
        fam.sets[0] = frozenset(s)
        cert = verify_family(fam)
        assert not cert.universe_ok

    def test_point_usage_bounded(self):
        cert = verify_family(construct(2, 6, 4))
        assert cert.points_used <= cert.points_total == 63

    def test_holds_no_hash_set_of_the_points(self):
        # disjointness is one sorted list of the points: the pass costs less
        # memory than a set of them would take alone
        family = construct(5, 6, 2)
        assert len(family.sets) >= 1000
        verify_family(family)  # field tables and the like are built once, untraced
        points = list(chain.from_iterable(family.sets))
        tracemalloc.start()
        try:
            as_set = set(points)
            set_size = tracemalloc.get_traced_memory()[0]
            del as_set
            tracemalloc.reset_peak()
            assert verify_family(family).valid
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < set_size


class TestPointCount:
    """`verify_packed` counts points in one sorted list: equal neighbours
    are a point listed more than once."""

    FAMILY = construct(2, 4, 2)
    TARGET = [pack(row, 2) for row in FAMILY.target.basis]

    def _cert(self, sets):
        return verify_packed(2, 4, 2, self.TARGET, sets, "test")

    def _shared(self):
        # the first point of the second set is also in the first and third,
        # and the first point of the fifth also in the fourth
        sets = list(self.FAMILY.sets)
        p = sets[1][0]
        sets[0] += (p,)
        sets[2] += (p,)
        sets[3] += sets[4][:1]
        return sets

    def test_distinct(self):
        cert = self._cert(self.FAMILY.sets)
        assert cert.disjoint_ok and cert.points_used == 15

    def test_a_point_in_two_sets_and_one_in_three(self):
        sets = self._shared()
        cert = self._cert(sets)
        assert sum(map(len, sets)) == 18
        assert not cert.disjoint_ok and cert.points_used == 15

    def test_sets_from_a_generator(self):
        cert = self._cert(s for s in self._shared())
        assert not cert.disjoint_ok and cert.points_used == 15 and cert.family_size == 5

    def test_a_point_twice_in_one_tuple(self):
        sets = list(self.FAMILY.sets)
        sets[0] += sets[0][:1]
        cert = self._cert(sets)
        assert not cert.disjoint_ok and cert.points_used == 15


def _decode(v, q: int, k: int):
    """The coordinates of a packed point, read with this module's own
    shifts: k slots of whole bytes (one bit at q = 2), first coordinate
    highest, base-p digit i of an element in the i-th w-bit sub-slot.
    None unless v is an int, not a bool, in 0..2^(k slots)-1 and every
    slot holds an element of F_q with its padding bits clear."""
    if type(v) is not int or v < 0:
        return None
    p, e = prime_power(q)
    w = 1 if p == 2 else p.bit_length() + 1
    bits = 1 if q == 2 else -(-e * w // 8) * 8
    if v >> bits * k:
        return None
    coords = []
    for i in reversed(range(k)):
        slot = v >> i * bits & (1 << bits) - 1
        digits = [slot >> j * w & (1 << w) - 1 for j in range(e)]
        if slot >> e * w or max(digits) >= p:
            return None
        coords.append(sum(x * p**j for j, x in enumerate(digits)))
    return tuple(coords)


def _reference(fam: RecoveryFamily) -> Certificate:
    """The certificate recomputed point by point, spans by rank with rref.
    A point is itself in the disjointness count, told apart by type and
    value, so a bool or a float never counts as the int it equals."""
    q, k = fam.q, fam.k
    fld = field(q)
    counts: Counter = Counter()
    universe_ok = spanning_ok = True
    for s in fam.sets:
        ok = []
        for v in s:
            counts[type(v), v] += 1
            p = _decode(v, q, k)
            if p is not None and any(p) and next(c for c in p if c) == 1:
                ok.append(p)
            else:
                universe_ok = False
        spanning_ok &= len(rref(ok + list(fam.target.basis), fld)) == len(rref(ok, fld))
    return Certificate(
        q=q, k=k, d=fam.d, family_size=len(fam.sets),
        disjoint_ok=all(c == 1 for c in counts.values()),
        spanning_ok=spanning_ok, universe_ok=universe_ok,
        points_used=len(counts), points_total=num_points(q, k), method=fam.method,
        set_sizes=tuple(sorted(Counter(map(len, fam.sets)).items())),
    )


def _random_target(rng, q, k, d) -> Subspace:
    """A random d-subspace, half the time with a basis that is not in RREF."""
    fld = field(q)
    while True:
        rows = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(d)]
        target = Subspace.span(rows, fld, k)
        if target.dim == d:
            return Subspace(k, tuple(rows)) if rng.random() < 0.5 else target


def _random_family(rng, q, k, d) -> list[frozenset]:
    """Random disjoint sets of points; some span the target, most do not."""
    pts = [pack(p, q) for p in enumerate_points(q, k)]
    rng.shuffle(pts)
    sets = []
    while len(pts) > d and len(sets) < 40:
        size = rng.randint(1, min(len(pts), 2 * d + 1))
        sets.append(frozenset(pts[:size]))
        del pts[:size]
    return sets


def _corruptions(rng, fam: RecoveryFamily):
    """Copies of the family's sets, each broken in one way.  A point of a
    family is an int, so a point of k-1 slots is no corruption: it is the
    vector of F_q^k with a leading zero coordinate."""
    q, k = fam.q, fam.k
    p, e = prime_power(q)
    w = 1 if p == 2 else p.bit_length() + 1
    bits = slot_bits(q)
    sets = [set(s) for s in fam.sets]
    i = rng.randrange(len(sets))
    v = rng.choice(sorted(sets[i]))

    def replaced(bad):
        out = [frozenset(s) for s in sets]
        out[i] = frozenset(sets[i] - {v} | {bad})
        return out

    sh = rng.randrange(k) * bits  # the slot to break
    slot = v >> sh & (1 << bits) - 1

    def with_slot(x):
        return v ^ slot << sh | x << sh

    yield "dropped", [frozenset(s - {v}) if n == i else frozenset(s) for n, s in enumerate(sets)]
    if len(sets) > 1:
        other = rng.choice([n for n in range(len(sets)) if n != i])
        yield "duplicated", [frozenset(s | {v}) if n == other else frozenset(s) for n, s in enumerate(sets)]
    top = pack((q - 1,), q)  # the largest slot value of an element
    if top + 3 < 1 << bits:
        yield "too large", replaced(with_slot(top + 1 + rng.randrange(3)))
    if p > 2 and e > 1:  # a base-p digit of p or more in one sub-slot
        at = rng.randrange(e) * w
        yield "digit", replaced(with_slot(slot & ~((1 << w) - 1 << at) | p + rng.randrange(p) << at))
    if e * w < bits:
        yield "padding", replaced(with_slot(slot | 1 << rng.randrange(e * w, bits)))
    yield "negative", replaced(-v)
    yield "zero", replaced(0)
    yield "too long", replaced(1 << bits * k | v)  # the vector (1, v) of k+1 slots
    yield "float", replaced(float(v))
    yield "bool", replaced(v == 1)  # True takes the place of 1; False equals no point
    if q > 2:
        fld = field(q)
        c = rng.randrange(2, q)
        yield "scaled", replaced(pack(tuple(fld.mul(c, x) for x in unpack(v, q, k)), q))


# the check each corruption must fail; a dropped point may leave the set spanning
_BREAKS = {"duplicated": "disjoint_ok", **dict.fromkeys(
    ["too large", "digit", "padding", "negative", "zero", "too long", "float", "bool", "scaled", "scaled row"],
    "universe_ok")}


def _one_row_family(rng, q, k, d) -> list[frozenset]:
    """Disjoint sets, each on one row (x | *) against the canonical target,
    on a few random rows.  Every row takes one of three random partitions
    of the same sample of columns into parts of 1..d+2 points, so column
    sets repeat across rows; a part of d points or fewer never spans, and
    most parts of d+1 or more do."""
    low = slot_bits(q) * d
    cols = [pack(y, q) for y in product(range(q), repeat=d)]
    sample = rng.sample(cols, min(len(cols), 24))
    partitions = []
    for _ in range(3):
        ys = rng.sample(sample, len(sample))
        parts = []
        while ys:
            size = rng.randint(1, d + 2)
            parts.append(ys[:size])
            del ys[:size]
        partitions.append(parts)
    rows = [pack(x, q) for x in enumerate_points(q, k - d)]
    return [frozenset(x << low | y for y in part)
            for x in rng.sample(rows, min(len(rows), 6)) for part in rng.choice(partitions)]


def _scaled_row(q, k, d, sets, c) -> list[frozenset]:
    """The sets with every point of the first one-row set times c != 1:
    no point of it has 1 in its leading slot."""
    fld = field(q)
    low = slot_bits(q) * d
    i = next(i for i, s in enumerate(sets) if min(s) >> low and len({v >> low for v in s}) == 1)
    out = list(sets)
    out[i] = frozenset(pack(tuple(fld.mul(c, x) for x in unpack(v, q, k)), q) for v in sets[i])
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_matches_echelon_reference(q):
    """The span kernel gives the rref certificate, field for field, on
    construct() families moved to random targets and left on the
    canonical one, where one-row sets share span verdicts by column set;
    on random families, random one-row families (some sets spanning, some
    not), corrupted copies, and a copy with one one-row set scaled."""
    rng = random.Random(q)
    verdicts = set()
    for k in range(1, 6):
        for d in range(1, k + 1):
            fam = construct(q, k, d)
            moved = conjugate_family(fam, _random_target(rng, q, k, d))
            variants = [(moved.target, "moved", moved.sets), (fam.target, "unmoved", fam.sets),
                        (moved.target, "random", _random_family(rng, q, k, d))]
            for base in (moved, fam):
                # corrupt a few sets only: the reference is slow at (9,5,d)
                part = RecoveryFamily(q, k, d, base.target, base.sets[:40], base.method)
                variants += [(base.target, name, sets) for name, sets in _corruptions(rng, part)]
            if k > d:
                rows = _one_row_family(rng, q, k, d)
                variants.append((fam.target, "one-row", rows))
                verdicts.update(verify_family(RecoveryFamily(q, k, d, fam.target, [s], "")).spanning_ok
                                for s in rows)
                if q > 2:
                    variants.append((fam.target, "scaled row", _scaled_row(q, k, d, fam.sets, rng.randrange(2, q))))
            for target, name, sets in variants:
                sub = RecoveryFamily(q, k, d, target, sets, fam.method)
                cert = verify_family(sub)
                assert cert == _reference(sub), (q, k, d, name)
                if name in _BREAKS:
                    assert not getattr(cert, _BREAKS[name]), (q, k, d, name)
                # a set with no well-formed point spans nothing
                assert name != "scaled row" or not cert.spanning_ok, (q, k, d)
            assert verify_family(moved).valid and verify_family(fam).valid
    assert verdicts == {True, False}


@pytest.mark.parametrize("qkd", [(257, 2, 1), (257, 2, 2), (512, 2, 1), (27, 3, 2), (121, 2, 1), (131, 2, 2),
                                 (25, 3, 2)],
                         ids=["257-2-1", "257-2-2", "512-2-1", "27-3-2", "121-2-1", "131-2-2", "25-3-2"])
def test_large_field_matches_echelon_reference(qkd):
    """Every slot layout `pack` picks gives the rref certificates: slots
    wider than a byte, scaled coordinate by coordinate, for p = 2 (512),
    odd extensions (27, 121) and primes past 127 (131, 257); and two
    base-5 digits in one byte (25)."""
    q, k, d = qkd
    rng = random.Random(q + d)
    moved = conjugate_family(construct(q, k, d), _random_target(rng, q, k, d))
    for name, sets in [("moved", moved.sets), *_corruptions(rng, moved)]:
        fam = RecoveryFamily(q, k, d, moved.target, sets, moved.method)
        assert verify_family(fam) == _reference(fam), name
    assert verify_family(moved).valid


def _one_row_sets(q, k, d, sets) -> RecoveryFamily:
    """A family on the canonical target from sets of (row, column) pairs."""
    low = slot_bits(q) * d
    packed = [frozenset(pack(x, q) << low | pack(y, q) for x, y in s) for s in sets]
    return RecoveryFamily(q, k, d, canonical_target(q, k, d), packed, "memo")


class TestSpanMemo:
    """The per-call memo of `verify_packed`: against the canonical target a
    set whose points share one nonzero row part x is reduced once per
    distinct set of column parts."""

    @staticmethod
    def _certify(monkeypatch, fam):
        """The certificate, checked against the reference, and the number
        of `Echelon.reduce` calls it took."""
        calls = []

        class Counting(Echelon):
            def reduce(self, *args):
                calls.append(args)
                return super().reduce(*args)

        monkeypatch.setattr(verifier, "Echelon", Counting)
        cert = verify_family(fam)
        assert cert == _reference(fam)
        return cert, len(calls)

    def test_bad_set_on_a_row_of_good_sets(self, monkeypatch):
        """A set of d+1 points on a row whose other sets span, its columns
        on one line through 0, fails the family."""
        good = [[((1, 1), (0, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 2))],
                [((1, 1), (0, 2)), ((1, 1), (2, 0)), ((1, 1), (2, 1))]]
        assert self._certify(monkeypatch, _one_row_sets(3, 4, 2, good))[0].valid
        bad = good + [[((1, 1), (0, 0)), ((1, 1), (1, 1)), ((1, 1), (2, 2))]]
        cert, calls = self._certify(monkeypatch, _one_row_sets(3, 4, 2, bad))
        assert not cert.spanning_ok and cert.universe_ok and cert.disjoint_ok and calls == 3

    def test_two_rows_take_the_plain_path(self, monkeypatch):
        """(0,1 | 0) and (1,1 | 1) have the column parts of the spanning
        one-row set on row (1,0), yet their span meets the target in 0."""
        one_row = [((1, 0), (0,)), ((1, 0), (1,))]
        two_rows = [((0, 1), (0,)), ((1, 1), (1,))]
        assert self._certify(monkeypatch, _one_row_sets(3, 3, 1, [one_row]))[0].valid
        for sets in ([one_row, two_rows], [two_rows, one_row]):
            cert, calls = self._certify(monkeypatch, _one_row_sets(3, 3, 1, sets))
            assert not cert.spanning_ok and cert.universe_ok and calls == 2

    def test_rows_with_one_column_set_share_a_verdict(self, monkeypatch):
        """Four rows with the columns {00, 10, 01} take one reduction; a
        row with other columns takes its own."""
        cols = [(0, 0), (1, 0), (0, 1)]
        rows = [(1, 0), (0, 1), (1, 2), (1, 1)]
        cert, calls = self._certify(monkeypatch, _one_row_sets(3, 4, 2, [[(x, y) for y in cols] for x in rows]))
        assert cert.valid and calls == 1
        sets = [[(x, y) for y in cols] for x in rows[1:]] + [[((1, 0), y) for y in [(1, 1), (2, 1), (1, 2)]]]
        cert, calls = self._certify(monkeypatch, _one_row_sets(3, 4, 2, sets))
        assert cert.valid and calls == 2

    def test_a_smaller_column_set_is_another_entry(self, monkeypatch):
        """{00, 10} is a subset of the spanning {00, 10, 01} but not its key."""
        big = [((1, 0), (0, 0)), ((1, 0), (1, 0)), ((1, 0), (0, 1))]
        small = [((0, 1), (0, 0)), ((0, 1), (1, 0))]
        for sets in ([big, small], [small, big]):
            cert, calls = self._certify(monkeypatch, _one_row_sets(3, 4, 2, sets))
            assert not cert.spanning_ok and cert.universe_ok and calls == 2

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_non_unit_basis_of_the_canonical_target(self, monkeypatch, q):
        """The canonical target spanned by combined rows takes the plain
        path, one reduction per set, and gets the same certificate."""
        fam = construct(q, 4, 2)
        canonical, memo_calls = self._certify(monkeypatch, fam)
        cert, calls = self._certify(monkeypatch, fam._replace(target=Subspace(4, ((0, 0, 1, 1), (0, 0, 0, 1)))))
        assert cert == canonical and cert.valid
        assert calls == len(fam.sets) > memo_calls
