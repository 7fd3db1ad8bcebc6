import random
from collections import Counter

import pytest

from recovery_sets.field_core import Subspace, field, pack, prime_power, rref, slot_bits, unpack
from recovery_sets.constructions import RecoveryFamily, canonical_target, conjugate_family, construct
from recovery_sets.geometry import enumerate_points, num_points
from recovery_sets.verifier import Certificate, verify_family

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
    ["too large", "digit", "padding", "negative", "zero", "too long", "float", "bool", "scaled"],
    "universe_ok")}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_matches_echelon_reference(q):
    """The span kernel gives the rref certificate, field for field, on
    moved construct() families, random families and corrupted copies."""
    rng = random.Random(q)
    for k in range(1, 6):
        for d in range(1, k + 1):
            target = _random_target(rng, q, k, d)
            moved = conjugate_family(construct(q, k, d), target)
            # corrupt a few sets only: the reference is slow at (9,5,d)
            part = RecoveryFamily(q, k, d, target, moved.sets[:40], moved.method)
            variants = [("moved", moved.sets), ("random", _random_family(rng, q, k, d))]
            variants += list(_corruptions(rng, part))
            for name, sets in variants:
                fam = RecoveryFamily(q, k, d, target, sets, moved.method)
                cert = verify_family(fam)
                assert cert == _reference(fam), (q, k, d, name)
                if name in _BREAKS:
                    assert not getattr(cert, _BREAKS[name]), (q, k, d, name)
            assert verify_family(moved).valid


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
