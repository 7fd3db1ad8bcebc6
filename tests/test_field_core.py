import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from recovery_sets import field_core
from recovery_sets.field_core import (
    Echelon,
    ExtField,
    PrimeField,
    Subspace,
    extension,
    factorize,
    field,
    find_primitive_poly,
    pack,
    pivot_clearing,
    prime_power,
    rref,
    slot_bits,
    unpack,
)

from spans import span_contains


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


def coefficient_list_search(n: int) -> tuple[int, ...]:
    """The first monic degree-n polynomial over F_2, in the order of its
    coefficient encoding, whose root x has order 2^n - 1; powers of x are
    taken on coefficient lists, as `find_primitive_poly` does over larger
    bases."""
    f2, group = field(2), 2**n - 1
    one = [1] + [0] * (n - 1)
    for enc in range(1, 2**n, 2):
        mod = tuple(enc >> i & 1 for i in range(n)) + (1,)
        if field_core._poly_pow_x(group, mod, f2) == one and all(
                field_core._poly_pow_x(group // r, mod, f2) != one for r in factorize(group)):
            return mod
    raise AssertionError(f"no primitive polynomial of degree {n}")


class TestPrimitivePolys:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_binary_matches_coefficient_list_search(self, n):
        # over F_2 powers of x are taken by shift-and-XOR on bitmasks
        assert find_primitive_poly(field(2), n) == coefficient_list_search(n)

    def test_pinned_binary_polys(self):
        assert find_primitive_poly(field(2), 4) == (1, 1, 0, 0, 1)
        assert find_primitive_poly(field(2), 5) == (1, 0, 1, 0, 0, 1)
        assert find_primitive_poly(field(2), 6) == (1, 1, 0, 0, 0, 0, 1)

    def test_degree_one(self):
        assert find_primitive_poly(field(2), 1) == (1, 1)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            find_primitive_poly(field(2), 0)

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
        for a in range(f.order):
            assert f.add(a, 0) == a

    @pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (5, 2)])
    def test_field_axioms_sampled(self, q, n):
        f = extension(q, n)
        els = list(range(f.order))
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
        for a in range(f.order):
            assert f.from_vector(f.to_vector(a)) == a

    def test_nested_field(self):
        f16 = extension(field(4), 2)
        assert f16.order == 16
        for a in range(1, 16):
            assert f16.mul(a, f16.inv(a)) == 1


def gf2_mulmod(a: int, b: int, m: int) -> int:
    """a * b mod m for GF(2) polynomials held as bitmasks: carry-less
    multiplication, then long division by m."""
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a <<= 1
        b >>= 1
    while prod.bit_length() >= m.bit_length():
        prod ^= m << prod.bit_length() - m.bit_length()
    return prod


class TestBinaryTables:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_match_polynomial_reference(self, n):
        # x^i for i < n is a monomial; each later power is x^(i-n) times x^n
        f = extension(2, n)
        m = sum(c << j for j, c in enumerate(f.modulus))
        assert m.bit_length() == n + 1
        x_n = gf2_mulmod(1 << n - 1, 2, m)
        antilog = [1 << i for i in range(min(n, 2**n - 1))]
        while len(antilog) < 2**n - 1:
            antilog.append(gf2_mulmod(antilog[-n], x_n, m))
        assert f.antilog == tuple(antilog)
        log = [-1] * 2**n
        for i, a in enumerate(antilog):
            log[a] = i
        assert f.log == tuple(log)

    @pytest.mark.parametrize("base, modulus", [
        (2, (1, 1, 1, 1, 1)),  # x^4+x^3+x^2+x+1: irreducible, x has order 5
        (2, (0, 1, 1)),        # x^2+x: x is a zero divisor
        (2, (1, 0, 0, 1)),     # x^3+1 = (x+1)(x^2+x+1): x has order 3
        (3, (1, 0, 1)),        # x^2+1 over F_3: irreducible, x has order 4
    ])
    def test_modulus_not_primitive_refused(self, monkeypatch, base, modulus):
        monkeypatch.setattr(field_core, "find_primitive_poly", lambda b, n: modulus)
        with pytest.raises(ValueError, match="not primitive"):
            ExtField(field(base), len(modulus) - 1)


def echelon(vecs, fld):
    return Echelon(fld.order, [pack(v, fld.order) for v in vecs])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27, 131])
def test_echelon_matches_rref(q):
    """Echelon on packed ints against rref, on every slot layout: the rank
    and the membership of a random target; then, on independent vectors
    widened by the oracle's tag slots, the residue of a combination of
    them, which must hold minus its coefficients in the tags."""
    fld = field(q)
    rng = random.Random(q)
    for _ in range(40):
        k = rng.randint(1, 6)
        vecs = [tuple(rng.choice((0, rng.randrange(q))) for _ in range(k)) for _ in range(rng.randint(1, k + 1))]
        if len(vecs) > 2:  # a dependent vector
            c = rng.randrange(1, q)
            vecs.append(tuple(fld.add(x, fld.mul(c, y)) for x, y in zip(vecs[0], vecs[1])))
        rank = len(rref(vecs, fld))
        ech = echelon(vecs, fld)
        assert len(ech.rows) == rank
        t = tuple(rng.randrange(q) for _ in range(k))
        assert (ech.reduce((), [pack(t, q)]) == 0) == (len(rref(vecs + [t], fld)) == rank)
    bits = slot_bits(q)
    for _ in range(20):
        k = rng.randint(2, 6)
        basis = rref([tuple(rng.randrange(q) for _ in range(k)) for _ in range(rng.randint(1, k))], fld)
        w = len(basis)
        if not w:
            continue
        coeffs = [rng.randrange(q) for _ in range(w)]
        t = tuple(0 for _ in range(k))
        for a, row in zip(coeffs, basis):
            t = tuple(fld.add(x, fld.mul(a, y)) for x, y in zip(t, row))
        # member j's unit tag sits in slot j, counted from the lowest
        tagged = Echelon(q, [pack(row, q) << w * bits | 1 << j * bits for j, row in enumerate(basis)])
        assert len(tagged.rows) == w
        residue = tagged.reduce((), [pack(t, q) << w * bits])
        assert residue == pack(tuple(fld.neg(coeffs[j]) for j in reversed(range(w))), q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27])
def test_pivot_clearing_matches_one_row_echelon(q):
    """pivot_clearing's row is the row `Echelon` stores, and clearing it
    from random packed vectors leaves what a one-row echelon's reduce
    leaves: on one-byte slots, two-byte slots (q = 27) and q = 2."""
    row, clear = pivot_clearing(q)
    fld = field(q)
    rng = random.Random(q)
    for _ in range(60):
        k = rng.randint(1, 6)
        v = pack(tuple(rng.randrange(q) for _ in range(k)), q)
        if not v:
            continue
        xs = [pack(tuple(rng.choice((0, rng.randrange(q))) for _ in range(k)), q) for _ in range(8)]
        # multiples of v, which clear to 0
        c = rng.randrange(1, q)
        xs.append(pack(tuple(fld.mul(c, x) for x in unpack(v, q, k)), q))
        ech = Echelon(q, [v])
        assert ech.rows == [row(v)]
        cleared = clear(row(v), xs)
        assert cleared == [ech.reduce((), [x]) for x in xs] and cleared[-1] == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 25, 27, 131, 257, 512])
def test_pack_order_is_coordinate_order(q):
    """On every slot layout, sorting packed vectors sorts their coordinate
    tuples, and unpack inverts pack both ways."""
    rng = random.Random(q)
    for k in range(1, 5):
        vecs = set(product(sorted({0, 1, q - 2, q - 1}), repeat=k))
        vecs |= {tuple(rng.randrange(q) for _ in range(k)) for _ in range(100)}
        vecs = sorted(vecs)
        packed = [pack(v, q) for v in vecs]
        assert packed == sorted(set(packed))
        assert [unpack(v, q, k) for v in packed] == vecs
        assert [pack(unpack(v, q, k), q) for v in packed] == packed


class TestRank:
    def test_consecutive_powers_independent(self):
        f2 = field(2)
        f16 = extension(2, 4)
        for i in range(15):
            vecs = [f16.to_vector(f16.alpha_pow(i + j)) for j in range(4)]
            assert len(echelon(vecs, f2).rows) == 4

    def test_empty(self):
        assert Echelon(2, ()).rows == []

    def test_alpha_0_5_10(self):
        f2 = field(2)
        f16 = extension(2, 4)
        vecs = [f16.to_vector(f16.alpha_pow(i)) for i in (0, 5, 10)]
        assert brute_span_size(vecs, f2) == 4
        assert len(echelon(vecs, f2).rows) == 2

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Subspace.span([(1, 0), (1, 0, 0)], field(2), 2)
        with pytest.raises(ValueError):
            span_contains([(1, 0)], Subspace.span([(1, 0, 0)], field(2), 3), field(2))

    @given(st.permutations(range(4)), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_rank_invariance(self, perm, scalar):
        f5 = field(5)
        rows = [(1, 2, 0, 4), (0, 1, 1, 1), (3, 0, 0, 2), (4, 3, 1, 2)]
        base = len(echelon(rows, f5).rows)
        shuffled = [rows[i] for i in perm]
        shuffled[0] = tuple(f5.mul(scalar, x) for x in shuffled[0])
        assert len(echelon(shuffled, f5).rows) == base

    @given(st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_rank_matches_brute_span(self, rows):
        f3 = field(3)
        r = len(echelon(rows, f3).rows)
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
        s = Subspace.span([(0, 0, 1, 0), (0, 0, 0, 1)], f2, 4)
        assert span_contains(s.basis, s, f2)

    def test_consecutive_columns_recover(self):
        # d+1 consecutive powers in a fixed nonzero row span the target
        f2 = field(2)
        f8 = extension(2, 3)
        target = Subspace.span([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], f2, 4)
        for i in range(7):
            gens = [(1,) + f8.to_vector(f8.alpha_pow(i + j)) for j in range(4)]
            assert span_contains(gens, target, f2)

    def test_dimension_shortfall(self):
        f2 = field(2)
        target = Subspace.span([(1, 0, 0), (0, 1, 0)], f2, 3)
        assert not span_contains([(0, 0, 1), (1, 1, 1)], target, f2)

    def test_scaling_invariance(self):
        f5 = field(5)
        gens = [(1, 2, 3), (0, 1, 4)]
        target = Subspace.span(gens, f5, 3)
        scaled = [tuple(f5.mul(3, x) for x in gens[0]), gens[1]]
        assert span_contains(scaled, target, f5)


class TestSolvers:
    def test_echelon_incremental(self):
        ech = Echelon(2, ())
        assert ech.add(pack((1, 1, 0), 2))
        assert ech.add(pack((0, 1, 1), 2))
        assert not ech.add(pack((1, 0, 1), 2))
        assert len(ech.rows) == 2

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_echelon_add_grows_the_span(self, q):
        # add is reduce-and-compare on every q: True only for a vector
        # outside the span, which it then holds
        fld = field(q)
        ech = echelon([(1, 1, 0)], fld)
        assert ech.reduce((), [pack((0, 1, 1), q)])
        assert ech.add(pack((0, 1, 1), q))
        assert not ech.add(pack((1, 0, fld.neg(1)), q))
        assert len(ech.rows) == 2 and not ech.reduce((), [pack((1, 0, fld.neg(1)), q)])
