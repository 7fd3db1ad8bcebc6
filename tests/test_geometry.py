import pytest
from itertools import product

from recovery_sets.field_core import field, pack, slot_bits
from recovery_sets.geometry import (
    Layout,
    binary_line_partition,
    canonical_point,
    enumerate_points,
    full_spread,
    hamming_partition,
    lifted_ladder,
    lifted_partial_spread,
    num_points,
)

from spans import vector_span


def brute_points(q, k):
    """Canonical representatives by raw enumeration of all nonzero vectors."""
    fld = field(q)
    return {canonical_point(v, fld) for v in product(range(q), repeat=k) if any(v)}


def spread_cover(parts, q, n, t):
    """(cover set, True-if-disjoint) over the nonzero vectors the bases of
    a partial spread of F_q^n span; each part holds t vectors and spans
    q^t vectors."""
    cover = set()
    disjoint = True
    for basis in parts:
        assert len(basis) == t
        els = vector_span(basis, q, n)
        assert len(els) == q**t
        els.discard(0)
        if cover & els:
            disjoint = False
        cover |= els
    return cover, disjoint


class TestPoints:
    def test_counts(self):
        assert len(enumerate_points(2, 3)) == 7
        assert enumerate_points(3, 2) == [(0, 1), (1, 0), (1, 1), (1, 2)]
        assert len(enumerate_points(7, 4)) == 400

    @pytest.mark.parametrize("q,k", [(2, 4), (3, 3), (4, 2), (5, 2)])
    def test_matches_raw_enumeration(self, q, k):
        pts = enumerate_points(q, k)
        assert len(pts) == num_points(q, k)
        assert set(pts) == brute_points(q, k)
        assert pts == sorted(pts)

    def test_limit(self):
        with pytest.raises(ValueError):
            enumerate_points(2, 30)

    def test_canonical_scaling(self):
        f7 = field(7)
        v = (0, 3, 5, 1)
        p = canonical_point(v, f7)
        assert p[1] == 1
        for c in range(1, 7):
            assert canonical_point(tuple(f7.mul(c, x) for x in v), f7) == p

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            canonical_point((0, 0), field(2))


def packed(points, q):
    return {pack(p, q) for p in points}


def layout_points(lay):
    """The target points pt(0, alpha^e), then pt(row, col) over every row
    and every column, as packed ints."""
    r = num_points(lay.q, lay.d)
    pts = [lay.pt(0, lay.col.alpha_pow(e)) for e in range(r)]
    pts += [lay.pt(x, y) for x in lay.rows for y in range(lay.col.order)]
    return pts


class TestLayout:
    def test_binary_2_4_2(self):
        lay = Layout(2, 4, 2)
        assert (list(lay.rows), lay.col.order) == ([1, 2, 3], 4)
        pts = layout_points(lay)
        assert len(pts) == 15 and set(pts) == packed(enumerate_points(2, 4), 2)

    def test_333_counts(self):
        lay = Layout(3, 3, 2)
        assert (list(lay.rows), lay.col.order) == ([1], 9)
        pts = layout_points(lay)
        assert len(pts) == 13 == num_points(3, 3)
        assert set(pts) == packed(enumerate_points(3, 3), 3)

    def test_degenerate_k_equals_d(self):
        lay = Layout(3, 2, 2)
        assert list(lay.rows) == []
        assert set(layout_points(lay)) == packed(enumerate_points(3, 2), 3)

    def test_zero_slot_rejected(self):
        with pytest.raises(ValueError):
            Layout(2, 3, 2).pt(0, 0)

    def test_row_encoding(self):
        # a row is packed once, shifted up past the d column slots
        assert Layout(2, 5, 2).row_bits[6] == pack((0, 1, 1), 2) << 2
        lay = Layout(3, 5, 2)
        assert lay.row_bits[lay.rows[-1]] == pack((1, 2, 2), 3) << 2 * slot_bits(3)
        assert lay.rows[-1] == 1 + 2 * 3 + 2 * 9

    @pytest.mark.parametrize("q", [3, 4, 5, 7, 9, 11])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_rows_encode_enumerate_points(self, q, m):
        # the rows are the canonical points of PG(m-1,q), encoded first
        # coordinate lowest, in the order of enumerate_points
        k, d = m + 1, 1
        expected = [sum(c * q**i for i, c in enumerate(p)) for p in enumerate_points(q, k - d)] if m else []
        lay = Layout(q, k, d)
        assert lay.rows == expected
        # the packed rows ascend along `rows`; `_line_leftovers` reads a model's rows so
        bits = [lay.row_bits[x] for x in lay.rows]
        assert bits == sorted(bits)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_bijection_grid(self, q):
        # every point appears exactly once over the target and the rows
        for k in range(1, 7):
            for d in range(1, k + 1):
                if q**k > 20000:
                    continue
                lay = Layout(q, k, d)
                pts = layout_points(lay)
                assert len(pts) == num_points(q, k), (q, k, d)
                assert set(pts) == packed(brute_points(q, k), q), (q, k, d)
                if q > 2 and k > d:
                    rows = [lay.row_bits[x] >> d * slot_bits(q) for x in lay.rows]
                    assert rows == [pack(p, q) for p in enumerate_points(q, k - d)]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Layout(2, 3, 4)
        with pytest.raises(ValueError):
            Layout(6, 3, 2)


class TestSpreads:
    def test_coset_spread_17_parts(self):
        s = full_spread(2, 8, 4)
        assert len(s) == 17
        cover, disjoint = spread_cover(s, 2, 8, 4)
        assert disjoint and cover == set(range(1, 256))

    def test_whole_space(self):
        s = full_spread(2, 4, 4)
        assert len(s) == 1
        assert vector_span(s[0], 2, 4) == set(range(16))

    def test_21_lines(self):
        s = full_spread(2, 6, 2)
        assert len(s) == 21
        cover, disjoint = spread_cover(s, 2, 6, 2)
        assert disjoint and cover == set(range(1, 64))

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            full_spread(2, 5, 2)

    @pytest.mark.parametrize("q,n,t", [(2, 8, 4), (3, 4, 2), (2, 6, 2)])
    def test_part_isomorphisms_linear(self, q, n, t):
        # each basis of t vectors maps F_{q^t} onto q^t distinct vectors, and
        # the (q^n-1)/(q^t-1) images partition the nonzero vectors
        s = full_spread(q, n, t)
        assert len(s) == (q**n - 1) // (q**t - 1)
        cover, disjoint = spread_cover(s, q, n, t)
        assert disjoint and cover == set(range(1, q**n))

    def test_lifted_2_8_4(self):
        s = lifted_partial_spread(2, 8, 4)
        assert len(s) == 16
        cover, disjoint = spread_cover(s, 2, 8, 4)
        residual_els = {e for e in range(1, 256) if e % 16 == 0}
        assert disjoint and cover == set(range(1, 256)) - residual_els
        # together with the residual as a 17th part this matches the coset count
        assert len(s) + 1 == len(full_spread(2, 8, 4))

    def test_lifted_2_7_3(self):
        s = lifted_partial_spread(2, 7, 3)
        assert len(s) == 16
        cover, disjoint = spread_cover(s, 2, 7, 3)
        # what is left over is the 4-subspace with the 3 low bits zero
        assert disjoint and cover == {e for e in range(1, 128) if e % 8}

    def test_lifted_zero_codeword(self):
        # a = 0 lifts [I_2 | 0]: the unit vectors, spanning the 2 low coordinates
        s = lifted_partial_spread(3, 4, 2)
        assert s[0] == (1, 3)
        assert vector_span(s[0], 3, 4) == set(range(9))

    def test_lifted_requires_room(self):
        with pytest.raises(ValueError):
            lifted_partial_spread(2, 7, 4)

    def test_lifted_isomorphisms(self):
        # the 64 bases each span 8 vectors; the leftover is the vectors
        # with the 3 low bits zero
        s = lifted_partial_spread(2, 9, 3)
        assert len(s) == 64
        cover, disjoint = spread_cover(s, 2, 9, 3)
        assert disjoint and cover == {e for e in range(1, 512) if e % 8}


class TestLinePartition:
    @pytest.mark.parametrize("n,lines,residual", [(2, 1, None), (4, 5, None), (6, 21, None),
                                                  (3, 0, 3), (5, 8, 3), (7, 40, 3)])
    def test_counts_and_cover(self, n, lines, residual):
        lp, basis = binary_line_partition(n)
        assert len(lp) == lines
        cover, disjoint = spread_cover(lp, 2, n, 2)
        assert disjoint
        if residual is None:
            assert n % 2 == 0 and basis == ()
            assert cover == set(range(1, 2**n))
        else:
            # the lines leave out the subspace on the top `residual` bits,
            # handed back as lifted_ladder hands back its residual
            assert basis == lifted_ladder(n, 2, 3)[1] == tuple(1 << i for i in range(n - residual, n))
            res = vector_span(basis, 2, n)
            assert not (cover & (res - {0}))
            assert cover | res == set(range(2**n))

    def test_too_small(self):
        with pytest.raises(ValueError):
            binary_line_partition(1)


def syndrome(word):
    """XOR of j + 1 over the set bits j of a word."""
    s, j = 0, 0
    while word:
        if word & 1:
            s ^= j + 1
        word >>= 1
        j += 1
    return s


def centre(ball):
    """The one word of a radius-1 ball with zero syndrome."""
    (c,) = [w for w in ball if syndrome(w) == 0]
    return c


def reference_balls(m):
    """Balls around the words of zero syndrome, found among all 2^n words."""
    n = (1 << m) - 1
    codewords = [w for w in range(1 << n) if syndrome(w) == 0]
    return [frozenset([c] + [c ^ (1 << j) for j in range(n)]) for c in codewords]


class TestHamming:
    def test_m2_repetition(self):
        balls = hamming_partition(2)
        assert [centre(b) for b in balls] == [0, 7]
        assert all(len(b) == 4 for b in balls)

    def test_m3_partition(self):
        balls = hamming_partition(3)
        assert len(balls) == 16
        seen = set()
        for b in balls:
            assert len(b) == 8 and not (seen & b)
            seen |= b
        assert seen == set(range(128))

    def test_ball_structure(self):
        balls = hamming_partition(3)
        codewords = [centre(b) for b in balls]
        assert codewords == sorted(codewords)
        for c, ball in zip(codewords, balls):
            assert ball == frozenset([c] + [c ^ (1 << j) for j in range(7)])

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_parity_check_kernel(self, m):
        assert list(hamming_partition(m)) == reference_balls(m)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            hamming_partition(1)
        with pytest.raises(ValueError):
            hamming_partition(5)
