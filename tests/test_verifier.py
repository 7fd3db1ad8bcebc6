import random
from collections import Counter

import pytest

from recovery_sets.field_core import Subspace, field, rref, span_contains
from recovery_sets.constructions import RecoveryFamily, canonical_target, conjugate_family, construct
from recovery_sets.geometry import enumerate_points, num_points
from recovery_sets.verifier import Certificate, verify_family


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
        fam.sets[0] = frozenset(set(fam.sets[0]) | {(0, 1, 1)})
        cert = verify_family(fam)
        assert not cert.universe_ok

    def test_non_canonical_rep_detected(self):
        fam = construct(3, 3, 2)
        s = set(fam.sets[0])
        p = s.pop()
        f3 = field(3)
        s.add(tuple(f3.mul(2, c) for c in p))
        fam.sets[0] = frozenset(s)
        cert = verify_family(fam)
        assert not cert.universe_ok

    def test_point_usage_bounded(self):
        cert = verify_family(construct(2, 6, 4))
        assert cert.points_used <= cert.points_total == 63


def _reference(fam: RecoveryFamily) -> Certificate:
    """The certificate recomputed point by point, spans by rank with rref."""
    q, k = fam.q, fam.k
    fld = field(q)
    counts: Counter = Counter()
    universe_ok = spanning_ok = True
    for s in fam.sets:
        ok = []
        for p in s:
            counts[p] += 1
            if len(p) == k and all(type(c) is int and 0 <= c < q for c in p) and any(p) and next(c for c in p if c) == 1:
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
    pts = enumerate_points(q, k)
    rng.shuffle(pts)
    sets = []
    while len(pts) > d and len(sets) < 40:
        size = rng.randint(1, min(len(pts), 2 * d + 1))
        sets.append(frozenset(pts[:size]))
        del pts[:size]
    return sets


def _corruptions(rng, fam: RecoveryFamily):
    """Copies of the family's sets, each broken in one way."""
    q, k = fam.q, fam.k
    sets = [set(s) for s in fam.sets]
    i = rng.randrange(len(sets))
    p = rng.choice(sorted(sets[i]))

    def replaced(bad):
        out = [frozenset(s) for s in sets]
        out[i] = frozenset(sets[i] - {p} | {bad})
        return out

    j = rng.randrange(k)
    yield "dropped", [frozenset(s - {p}) if n == i else frozenset(s) for n, s in enumerate(sets)]
    if len(sets) > 1:
        other = rng.choice([n for n in range(len(sets)) if n != i])
        yield "duplicated", [frozenset(s | {p}) if n == other else frozenset(s) for n, s in enumerate(sets)]
    yield "too large", replaced(p[:j] + (q + rng.randrange(3),) + p[j + 1:])
    yield "negative", replaced(p[:j] + (-1 - rng.randrange(3),) + p[j + 1:])
    yield "too short", replaced(p[:-1])
    yield "too long", replaced(p + (rng.randrange(q),))
    yield "zero", replaced((0,) * k)
    yield "float", replaced(p[:j] + (float(p[j]),) + p[j + 1:])
    if q > 2:
        fld = field(q)
        c = rng.randrange(2, q)
        yield "scaled", replaced(tuple(fld.mul(c, x) for x in p))


# the check each corruption must fail; a dropped point may leave the set spanning
_BREAKS = {"duplicated": "disjoint_ok", "too large": "universe_ok", "negative": "universe_ok",
           "too short": "universe_ok", "too long": "universe_ok", "zero": "universe_ok",
           "float": "universe_ok", "scaled": "universe_ok"}


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
