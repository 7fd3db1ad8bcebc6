import random
import tracemalloc
from collections import Counter
from itertools import chain, product

import pytest

from recovery_sets.field_core import Echelon, Subspace, field, pack, prime_power, rref, slot_bits, unpack
from recovery_sets.constructions import RecoveryFamily, canonical_target, conjugate_family, construct
from recovery_sets.geometry import enumerate_points, num_points
from recovery_sets import field_core, verifier
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
        _peak_below_a_set_of_its_points(construct(5, 6, 2))

    def test_holds_no_hash_set_of_the_points_on_a_moved_target(self):
        # the frame change works on runs of at most 256 sets, so it keeps
        # the same bound
        family = construct(5, 6, 2)
        _peak_below_a_set_of_its_points(conjugate_family(family, _random_target(random.Random(56), 5, 6, 2)))


@pytest.mark.parametrize("q", [3, 4, 8, 9, 16, 25, 256])
def test_slot_test_on_one_byte_slots(q):
    """The slot test's pad-bit and carry arithmetic passes exactly the
    slot values of the elements, on every one-slot value."""
    s = field_core._slots(q)
    valid = set(map(s.spread, range(q)))
    test = verifier._slot_test(q, 1)
    assert s.nbytes == 1
    assert [v for v in range(256) if test((v,))] == sorted(valid)


def _peak_below_a_set_of_its_points(family: RecoveryFamily) -> None:
    """`verify_family` certifies the family, its traced peak below what a
    set of the family's points takes."""
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
    ["too large", "digit", "padding", "negative", "zero", "too long", "float", "bool", "scaled", "scaled row",
     "moved scaled row"],
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


def _first_one_row(q, d, sets) -> int:
    """The index of the first set on one row against the canonical target."""
    low = slot_bits(q) * d
    return next(i for i, s in enumerate(sets) if min(s) >> low and len({v >> low for v in s}) == 1)


def _scaled(q, k, sets, i, c) -> list[frozenset]:
    """The sets with every point of set i times c != 1: no point of it has
    1 in its leading slot."""
    fld = field(q)
    out = list(sets)
    out[i] = frozenset(pack(tuple(fld.mul(c, x) for x in unpack(v, q, k)), q) for v in sets[i])
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_matches_echelon_reference(q):
    """The span kernel gives the rref certificate, field for field, on
    construct() families moved to random targets and left on the
    canonical one, where one-row sets share span verdicts by column set;
    on random families, random one-row families (some sets spanning, some
    not) on the canonical target and moved to a random one, corrupted
    copies, and copies with one one-row set scaled."""
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
                # conjugation keeps the order of the sets, and each stays on one row
                moved_rows = conjugate_family(RecoveryFamily(q, k, d, fam.target, rows, ""), moved.target).sets
                variants += [(fam.target, "one-row", rows), (moved.target, "moved one-row", moved_rows)]
                verdicts.update(verify_family(RecoveryFamily(q, k, d, fam.target, [s], "")).spanning_ok
                                for s in rows)
                if q > 2:
                    i = _first_one_row(q, d, fam.sets)
                    variants += [(fam.target, "scaled row", _scaled(q, k, fam.sets, i, rng.randrange(2, q))),
                                 (moved.target, "moved scaled row", _scaled(q, k, moved_rows, 0, rng.randrange(2, q)))]
            for target, name, sets in variants:
                sub = RecoveryFamily(q, k, d, target, sets, fam.method)
                cert = verify_family(sub)
                assert cert == _reference(sub), (q, k, d, name)
                if name in _BREAKS:
                    assert not getattr(cert, _BREAKS[name]), (q, k, d, name)
                # a set with no well-formed point spans nothing
                assert "scaled row" not in name or not cert.spanning_ok, (q, k, d, name)
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
    """A family on the canonical target from sets of (row, column) pairs,
    each set an ascending tuple."""
    low = slot_bits(q) * d
    packed = [tuple(sorted(pack(x, q) << low | pack(y, q) for x, y in s)) for s in sets]
    return RecoveryFamily(q, k, d, canonical_target(q, k, d), packed, "memo")


def _moved_sets(q, basis, sets) -> RecoveryFamily:
    """A family on the span of `basis` from sets of (row, column) pairs in
    the frame of its RREF rows R with pivot columns P: the pair (x, y) is
    the point sum_j x_j e_j over the other columns j plus sum_i y_i R_i,
    scaled to its canonical representative.  Its quotient part is x and
    its pivot coordinates y, both times the scale.  Each set is a tuple
    in the order of its pairs."""
    fld = field(q)
    k, d = len(basis[0]), len(basis)
    rows = rref(basis, fld)
    pivots = [next(j for j, c in enumerate(r) if c) for r in rows]
    free = [j for j in range(k) if j not in pivots]

    def point(x, y):
        v = [0] * k
        for j, c in zip(free, x):
            v[j] = c
        for c, r in zip(y, rows):
            v = [fld.add(a, fld.mul(c, b)) for a, b in zip(v, r)]
        lead = next(c for c in v if c)
        return pack(tuple(fld.mul(fld.inv(lead), c) for c in v), q)

    packed = [tuple(point(x, y) for x, y in s) for s in sets]
    return RecoveryFamily(q, k, d, Subspace(k, tuple(basis)), packed, "moved")


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
        """The canonical target spanned by combined rows gets the same
        certificate.  For q > 2 the verifier takes the RREF of the rows
        itself, so the memo calls are the same; for q = 2 it takes the
        plain path, one reduction per set."""
        fam = construct(q, 4, 2)
        canonical, memo_calls = self._certify(monkeypatch, fam)
        cert, calls = self._certify(monkeypatch, fam._replace(target=Subspace(4, ((0, 0, 1, 1), (0, 0, 0, 1)))))
        assert cert == canonical and cert.valid
        if q == 2:
            assert calls == len(fam.sets) > memo_calls
        else:
            assert calls == memo_calls < len(fam.sets)

    # a moved target of F_3^4 with pivot columns 0 and 2: a point whose
    # pivot coordinate 0 is 2 has the lead 2 in its quotient part once it
    # is scaled to its canonical representative
    MOVED = ((1, 1, 0, 2), (0, 0, 1, 1))
    # the third set lists the second one's columns on another row
    GOOD = [[((1, 1), (0, 1)), ((1, 1), (1, 0)), ((1, 1), (1, 2))],
            [((1, 1), (0, 2)), ((1, 1), (2, 0)), ((1, 1), (2, 1))],
            [((1, 0), (0, 2)), ((1, 0), (2, 0)), ((1, 0), (2, 1))]]

    def test_moved_set_on_a_line_fails_the_family(self, monkeypatch):
        """On a moved target, a one-row set of d+1 points whose normalised
        columns lie on one line through 0 fails a family whose other
        one-row sets span; each key takes one reduction."""
        cert, calls = self._certify(monkeypatch, _moved_sets(3, self.MOVED, self.GOOD))
        assert cert.valid and calls == 2
        line = [((1, 2), (0, 0)), ((1, 2), (1, 1)), ((1, 2), (2, 2))]
        for sets in (self.GOOD + [line], [line] + self.GOOD):
            cert, calls = self._certify(monkeypatch, _moved_sets(3, self.MOVED, sets))
            assert not cert.spanning_ok and cert.universe_ok and cert.disjoint_ok and calls == 3

    def test_moved_rows_with_one_key_share_a_verdict(self, monkeypatch):
        """On a moved target, one-row sets on four rows with the same
        normalised columns take one reduction."""
        cols = [(0, 0), (1, 0), (0, 1)]
        rows = [(1, 0), (0, 1), (1, 2), (1, 1)]
        cert, calls = self._certify(monkeypatch, _moved_sets(3, self.MOVED, [[(x, y) for y in cols] for x in rows]))
        assert cert.valid and calls == 1

    def test_moved_two_rows_take_the_plain_path(self, monkeypatch):
        """(0,1 | 0) and (1,1 | 1) in the frame of a moved target have the
        normalised column parts of the spanning one-row set on row (1,0),
        yet their span meets the target in 0."""
        basis = ((1, 0, 2),)
        one_row = [((1, 0), (0,)), ((1, 0), (1,))]
        two_rows = [((0, 1), (0,)), ((1, 1), (1,))]
        assert self._certify(monkeypatch, _moved_sets(3, basis, [one_row]))[0].valid
        for sets in ([one_row, two_rows], [two_rows, one_row]):
            cert, calls = self._certify(monkeypatch, _moved_sets(3, basis, sets))
            assert not cert.spanning_ok and cert.universe_ok and calls == 2

    def test_moved_set_off_one_row_takes_the_plain_path(self, monkeypatch):
        """A set of d+1 points whose normalised columns would span, one of
        them on a row that differs from the others' in its last quotient
        coordinate only, fails wherever the set lists that point."""
        on_row = [((1, 0), (0, 0)), ((1, 0), (1, 0))]
        off_row = ((1, 1), (0, 1))
        for i in range(3):
            cert, calls = self._certify(monkeypatch, _moved_sets(3, self.MOVED, [on_row[:i] + [off_row] + on_row[i:]]))
            assert not cert.spanning_ok and cert.universe_ok and calls == 1, i

    def test_moved_point_inside_the_target_takes_the_plain_path(self, monkeypatch):
        """A set with a point of the target is not one-row, whether its
        other points share a row or lie in the target too."""
        inside = [((0, 0), (1, 0)), ((0, 0), (0, 1))]
        mixed = [((0, 0), (1, 1)), ((1, 2), (0, 0)), ((1, 2), (0, 1))]
        cert, calls = self._certify(monkeypatch, _moved_sets(3, self.MOVED, self.GOOD[:1] + [inside, mixed]))
        assert cert.valid and calls == 3
        # less its second point on the row, the mixed set spans one line of the target
        cert, calls = self._certify(monkeypatch, _moved_sets(3, self.MOVED, [inside, mixed[:2]]))
        assert not cert.spanning_ok and cert.universe_ok and calls == 2

    @pytest.mark.parametrize("q", [3, 4, 5])
    def test_non_rref_basis_of_a_moved_target(self, monkeypatch, q):
        """A moved family certified against other bases of its target,
        combined and scaled rows, gets the same certificate and takes the
        same reductions."""
        fld = field(q)
        fam = conjugate_family(construct(q, 5, 2), _random_target(random.Random(q), q, 5, 2))
        a, b = rref(fam.target.basis, fld)
        cert, calls = self._certify(monkeypatch, fam._replace(target=Subspace(5, (a, b))))
        assert cert.valid and calls < len(fam.sets)
        for basis in ((b, a), (tuple(map(fld.add, a, b)), tuple(fld.mul(q - 1, x) for x in b))):
            assert self._certify(monkeypatch, fam._replace(target=Subspace(5, basis))) == (cert, calls)

    @pytest.mark.parametrize("qkd", [(2, 6, 2), (27, 3, 2)], ids=["2-6-2", "27-3-2"])
    def test_binary_and_wide_moved_families_take_the_plain_path(self, monkeypatch, qkd):
        """Against a moved target, q = 2 and slots wider than a byte take
        one reduction per set."""
        q, k, d = qkd
        fam = conjugate_family(construct(q, k, d), _random_target(random.Random(q), q, k, d))
        cert, calls = self._certify(monkeypatch, fam)
        assert cert.valid and calls == len(fam.sets)
