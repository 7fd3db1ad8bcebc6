import pytest
from hypothesis import given, settings, strategies as st

from recovery_sets.field_core import (
    Echelon,
    PrimeField,
    Subspace,
    extension,
    factorize,
    field,
    find_primitive_poly,
    left_nullspace,
    nullspace,
    pack,
    prime_power,
    rref,
    solve_linear,
    span_contains,
)


def brute_span_size(vectors, fld):
    """Independent rank oracle: count the vectors reachable as combinations."""
    span = {tuple([0] * len(vectors[0]))}
    for v in vectors:
        new = set(span)
        for c in range(1, fld.order):
            cv = tuple(fld.mul(c, x) for x in v)
            for s in span:
                new.add(tuple(fld.add(a, b) for a, b in zip(s, cv)))
        while new != span:
            span = new
            new = set(span)
            for s1 in list(span):
                for s2 in list(span):
                    new.add(tuple(fld.add(a, b) for a, b in zip(s1, s2)))
    return len(span)


class TestPrimitivePolys:
    def test_pinned_binary_polys(self):
        assert find_primitive_poly(2, 4) == (1, 1, 0, 0, 1)
        assert find_primitive_poly(2, 5) == (1, 0, 1, 0, 0, 1)
        assert find_primitive_poly(2, 6) == (1, 1, 0, 0, 0, 0, 1)

    def test_degree_one(self):
        assert find_primitive_poly(2, 1) == (1, 1)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_primitive_poly(2, 0)

    def test_factor_ceiling(self):
        with pytest.raises(ValueError):
            # a Mersenne prime: no factor below the default ceiling
            factorize((1 << 61) - 1)

    def test_prime_power(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(49) == (7, 2)
        with pytest.raises(ValueError):
            prime_power(6)

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 15])
    def test_prime_field_rejects_non_primes(self, p):
        with pytest.raises(ValueError):
            PrimeField(p)


class TestExtField:
    @pytest.mark.parametrize("q,n", [(2, 4), (2, 5), (2, 6), (3, 2), (5, 2), (4, 2), (7, 1)])
    def test_antilog_enumerates_all_nonzero(self, q, n):
        f = extension(q, n)
        size = f.order - 1
        assert len(set(f.antilog)) == size
        assert f.alpha_pow(size) == 1
        assert all(f.alpha_pow(m) != 1 for m in range(1, size))

    def test_alpha_relation_f16(self):
        f = extension(2, 4)
        assert f.alpha_pow(4) == f.add(f.alpha_pow(0), f.alpha_pow(1))

    def test_alpha_relation_f64(self):
        f = extension(2, 6)
        assert f.alpha_pow(0) == f.add(f.alpha_pow(1), f.alpha_pow(6))

    def test_additive_identity(self):
        f = extension(3, 2)
        for a in f.elements():
            assert f.add(a, 0) == a

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (5, 2)])
    def test_field_axioms_sampled(self, q, n):
        f = extension(q, n)
        els = list(f.elements())
        for a in els:
            if a:
                assert f.mul(a, f.inv(a)) == 1
            assert f.add(a, f.neg(a)) == 0
        for a in els[:: max(1, len(els) // 8)]:
            for b in els[:: max(1, len(els) // 8)]:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)

    def test_inverse_of_zero(self):
        f = extension(2, 4)
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_vector_roundtrip(self):
        f = extension(3, 3)
        for a in f.elements():
            assert f.from_vector(f.to_vector(a)) == a

    def test_nested_field(self):
        f16 = extension(field(4), 2)
        assert f16.order == 16
        for a in range(1, 16):
            assert f16.mul(a, f16.inv(a)) == 1


def echelon(vecs, fld):
    return Echelon(fld.order, [pack(v, fld.order) for v in vecs])


class TestRank:
    def test_consecutive_powers_independent(self):
        f2 = field(2)
        f16 = extension(2, 4)
        for i in range(15):
            vecs = [f16.to_vector(f16.alpha_pow(i + j)) for j in range(4)]
            assert echelon(vecs, f2).rank == 4

    def test_empty(self):
        assert Echelon(2).rank == 0

    def test_alpha_0_5_10(self):
        f2 = field(2)
        f16 = extension(2, 4)
        vecs = [f16.to_vector(f16.alpha_pow(i)) for i in (0, 5, 10)]
        assert brute_span_size(vecs, f2) == 4
        assert echelon(vecs, f2).rank == 2

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Subspace.span([(1, 0), (1, 0, 0)], field(2))
        with pytest.raises(ValueError):
            span_contains([(1, 0)], [(1, 0, 0)], field(2))

    @given(st.permutations(range(4)), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_rank_invariance(self, perm, scalar):
        f5 = field(5)
        rows = [(1, 2, 0, 4), (0, 1, 1, 1), (3, 0, 0, 2), (4, 3, 1, 2)]
        base = echelon(rows, f5).rank
        shuffled = [rows[i] for i in perm]
        shuffled[0] = tuple(f5.mul(scalar, x) for x in shuffled[0])
        assert echelon(shuffled, f5).rank == base

    @given(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_rank_matches_brute_span(self, rows):
        f3 = field(3)
        r = echelon(rows, f3).rank
        assert 3**r == brute_span_size(rows, f3) if any(any(v) for v in rows) else r == 0


class TestRref:
    def test_idempotent_and_canonical(self):
        f2 = field(2)
        rows = [(1, 1, 0, 1), (0, 1, 1, 0), (1, 0, 1, 1)]
        first = rref(rows, f2)
        assert rref(first, f2) == first
        # row-op equivalent generating sets share the canonical form
        other = [(1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 0, 1)]
        assert rref(other, f2) == rref([rows[0], rows[2]], f2)

    def test_pivots_increasing(self):
        f3 = field(3)
        rows = rref([(0, 2, 1), (2, 1, 0), (1, 0, 2)], f3)
        pivots = [next(j for j, c in enumerate(r) if c) for r in rows]
        assert pivots == sorted(pivots)
        for r in rows:
            assert r[next(j for j, c in enumerate(r) if c)] == 1


class TestSpan:
    def test_target_is_own_recovery_set(self):
        f2 = field(2)
        s = Subspace.span([(0, 0, 1, 0), (0, 0, 0, 1)], f2)
        assert span_contains(s.basis, s, f2)

    def test_consecutive_columns_recover(self):
        # d+1 consecutive powers in a fixed nonzero row span the target
        f2 = field(2)
        f8 = extension(2, 3)
        target = Subspace.span([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], f2)
        for i in range(7):
            gens = [(1,) + f8.to_vector(f8.alpha_pow(i + j)) for j in range(4)]
            assert span_contains(gens, target, f2)

    def test_dimension_shortfall(self):
        f2 = field(2)
        target = Subspace.span([(1, 0, 0), (0, 1, 0)], f2)
        assert not span_contains([(0, 0, 1), (1, 1, 1)], target, f2)

    def test_scaling_invariance(self):
        f5 = field(5)
        gens = [(1, 2, 3), (0, 1, 4)]
        target = Subspace.span(gens, f5)
        scaled = [tuple(f5.mul(3, x) for x in gens[0]), gens[1]]
        assert span_contains(scaled, target, f5)


class TestSolvers:
    def test_nullspace(self):
        f2 = field(2)
        ns = nullspace([(1, 1, 0), (0, 1, 1)], 3, f2)
        assert ns == [(1, 1, 1)]

    def test_left_nullspace(self):
        f2 = field(2)
        basis = left_nullspace([(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)], f2)
        assert all(c[3] == 0 for c in basis)
        assert len(basis) == 1 and basis[0][:3] == (1, 1, 1)

    def test_solve_linear(self):
        f3 = field(3)
        sol = solve_linear([(1, 2), (0, 1)], (2, 1), f3)
        assert sol is not None
        assert (sol[0] + 2 * sol[1]) % 3 == 2 and sol[1] % 3 == 1

    def test_solve_inconsistent(self):
        f2 = field(2)
        assert solve_linear([(1, 0), (1, 0)], (1, 0), f2) is None

    def test_echelon_incremental(self):
        ech = Echelon(2)
        assert ech.add(pack((1, 1, 0), 2))
        assert ech.add(pack((0, 1, 1), 2))
        assert not ech.add(pack((1, 0, 1), 2))
        assert ech.rank == 2

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_echelon_copy_is_independent(self, q):
        fld = field(q)
        ech = echelon([(1, 1, 0)], fld)
        grown = ech.copy()
        assert grown.add(pack((0, 1, 1), q))
        assert ech.rank == 1 and not ech.contains(pack((0, 1, 1), q))
        assert grown.rank == 2 and grown.contains(pack((1, 0, fld.neg(1)), q))
