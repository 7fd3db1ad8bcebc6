import os
import subprocess
import sys

import pytest

from recovery_sets.field_core import Echelon, Subspace, extension, field, pack, rref

from spans import span_contains
from recovery_sets.constructions import (
    RecoveryFamily,
    basic_sets_from_Td,
    canonical_target,
    conjugate_family,
    construct,
    _base_pattern,
    _carried,
    _row_layout,
)
from recovery_sets.geometry import (
    Layout,
    binary_line_partition,
    full_spread,
    hamming_partition,
    lifted_ladder,
    num_points,
)
from recovery_sets.verifier import verify_family

from quintriple_search import find_quintriple_partition_m7, quintriple_partition

import recovery_sets

SRC = os.path.dirname(os.path.dirname(os.path.abspath(recovery_sets.__file__)))


def assert_valid(family, size=None):
    cert = verify_family(family)
    assert cert.valid, cert
    if size is not None:
        assert cert.family_size == size, (cert.family_size, size)
    return cert


def leftovers(sets, row_points):
    """The points of a row that no set uses, in row order."""
    used = set().union(*sets)
    return [p for p in row_points if p not in used]


def target_points(lay):
    return [lay.pt(0, lay.col.alpha_pow(e)) for e in range(num_points(lay.q, lay.d))]


def basic_sets(lay):
    """`basic_sets_from_Td`'s sets, every cell on row 0, as packed points."""
    cells = basic_sets_from_Td(lay)
    assert {r for s in cells for r, _ in s} <= {0}
    return [tuple(sorted(lay.pt(r, c) for r, c in s)) for s in cells]


def row_one_sets(lay, leftover=()):
    """`_row_layout`'s sets of columns, placed on row 1."""
    return [frozenset(lay.pt(1, c) for c in cs) for cs in _row_layout(lay, leftover)]


def row_points(lay, x):
    """Row x in column order: the zero column, then alpha^0, alpha^1, ..."""
    return [lay.pt(x, 0)] + [lay.pt(x, lay.col.alpha_pow(e)) for e in range(lay.col.order - 1)]


class TestBasicSets:
    def test_binary_d3(self):
        lay = Layout(2, 3, 3)
        sets = basic_sets(lay)
        f8 = extension(2, 3)
        exp = lambda e: pack(f8.to_vector(f8.alpha_pow(e)), 2)
        assert sets[0] == tuple(sorted(exp(e) for e in (0, 1, 2)))
        assert sets[1] == tuple(sorted(exp(e) for e in (3, 4, 5)))
        assert leftovers(sets, target_points(lay)) == [exp(6)]

    def test_binary_d1(self):
        lay = Layout(2, 1, 1)
        sets = basic_sets(lay)
        assert len(sets) == 1 and not leftovers(sets, target_points(lay))

    def test_q3_d2(self):
        lay = Layout(3, 2, 2)
        sets = basic_sets(lay)
        assert len(sets) == 2 and not leftovers(sets, target_points(lay))
        for s in sets:
            assert len(s) == 2 and len(Echelon(3, s).rows) == 2


class TestRowSets:
    @pytest.mark.parametrize(
        "q,d,nsets,size,nleft",
        [(2, 4, 3, 5, 1), (2, 5, 5, 6, 2), (3, 2, 3, 3, 0)],
    )
    def test_shapes(self, q, d, nsets, size, nleft):
        # the row (1, 0) of F_q^2
        lay = Layout(q, 2 + d, d)
        sets = row_one_sets(lay)
        lo = leftovers(sets, row_points(lay, 1))
        assert len(sets) == nsets and len(lo) == nleft
        assert all(len(s) == size for s in sets)
        fld = field(q)
        target = canonical_target(q, 2 + d, d)
        for s in sets:
            assert span_contains(list(s), target, fld)
        # disjoint and consuming the whole row
        all_pts = [p for s in sets for p in s] + lo
        assert len(set(all_pts)) == len(all_pts) == q**d

    def test_leftover_positions(self):
        # the zero column heading a one-power run, a two-power run, and a
        # run that wraps from the last power to alpha^0
        f32 = extension(2, 5)
        a = f32.alpha_pow
        lay, x = Layout(2, 7, 5), (1, 0)
        for cols in ({0, a(3)}, {a(7), a(8)}, {a(30), a(0)}):
            lo = leftovers(row_one_sets(lay, cols), row_points(lay, 1))
            assert sorted(lo) == sorted(lay.pt(1, c) for c in cols)
        assert lo == [pack(x + f32.to_vector(c), 2) for c in (a(0), a(30))]
        # t = 2 columns at d = 5: one is too few, and a gap is not a run
        for cols in ({a(3)}, {a(3), a(5)}):
            with pytest.raises(ValueError):
                _row_layout(lay, cols)


class TestQuintriples:
    @pytest.mark.parametrize("m", range(4, 13))
    def test_partition_validates(self, m):
        part = quintriple_partition(m)
        part.validate()
        expected = {0: (2**m - 1) // 5, 1: (2**m - 7) // 5,
                    2: (2**m - 4) // 5, 3: (2**m - 8) // 5}[m % 4]
        assert len(part.quintriples) == expected

    def test_remainder_shapes(self):
        assert quintriple_partition(4).spare == ()
        p5 = quintriple_partition(5)
        assert p5.dependent_four is not None and len(p5.spare) == 2
        p6 = quintriple_partition(6)
        a, b, c = sorted(p6.spare)
        assert a ^ b == c and p6.dependent_four is None
        p7 = quintriple_partition(7)
        assert p7.dependent_four is not None and len(p7.spare) == 3

    def test_multiplicative_closure_base_cases(self):
        # alpha * S is again a quintriple, for each base quintriple
        for m in (4, 5, 6, 7):
            f = extension(2, m)
            part = quintriple_partition(m)
            for x1, x2, x3, x4, x5 in part.quintriples[:5]:
                for i in (1, 3):
                    s = f.alpha_pow(i)
                    sx = [f.mul(s, e) for e in (x1, x2, x3, x4, x5)]
                    assert sx[0] == sx[1] ^ sx[2] == sx[3] ^ sx[4]

    def test_m7_search_matches_pinned(self):
        part = find_quintriple_partition_m7()
        part.validate()
        assert part == quintriple_partition(7)

    def test_small_m_rejected(self):
        for m in (1, 8):
            with pytest.raises(ValueError):
                _base_pattern(m)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_base_patterns(self, m):
        sets, spare = _base_pattern(m)
        lay = Layout(2, m + 2, 2)
        u, v, w = map(lay.col.alpha_pow, range(3))
        for s in sets:
            if all(r for r, _ in s):
                assert len(s) == 5
                (x1, c1), (x2, c2), (x3, c3), (x4, c4), (x5, c5) = s
                assert x1 == x2 ^ x3 == x4 ^ x5
                assert (c1, c2, c3, c4, c5) == (0, u, w, v, w)
        rows = [r for s in sets for r, _ in s if r] + [r for r, _ in spare]
        assert sorted(rows) == list(range(1, 2**m))
        target = canonical_target(2, m + 2, 2)
        units = tuple(1 << i for i in range(m))
        for s in _carried(lay, [units], sets):
            assert span_contains([lay.pt(r, c) for r, c in s], target, lay.fld), s

    def test_no_partition_outlives_its_family(self):
        # in a fresh interpreter, where no partition is built yet: once the
        # (2,16,2) family is dropped, what stays traced is the field tables
        body = ("import gc, tracemalloc\n"
                "from recovery_sets.constructions import construct\n"
                "tracemalloc.start()\n"
                "construct(2, 16, 2)\n"
                "gc.collect()\n"
                "print(tracemalloc.get_traced_memory()[0])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", body], env=env,
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert int(out) < 250_000


class TestD2:
    @pytest.mark.parametrize("k", range(2, 15))
    def test_exact_sizes_certified(self, k):
        fam = construct(2, k, 2)
        assert_valid(fam, (3 * 2 ** (k - 1) + 1) // 5)

    def test_pinned_small_values(self):
        assert len(construct(2, 4, 2).sets) == 5
        assert len(construct(2, 5, 2).sets) == 9
        assert len(construct(2, 6, 2).sets) == 19


class TestD4:
    @pytest.mark.parametrize("k,size", [(4, 3), (5, 6), (6, 13)])
    def test_pinned(self, k, size):
        assert_valid(construct(2, k, 4), size)

    @pytest.mark.parametrize("k", range(7, 15))
    def test_formula_sizes(self, k):
        assert_valid(construct(2, k, 4), (11 * 2 ** (k - 3) - 1) // 7)

    def test_seven_point_pattern(self):
        # the cross-row 7-sets really recover all four basis vectors
        fam = construct(2, 7, 4)
        seven = [s for s in fam.sets if len(s) == 7]
        assert seven
        fld = field(2)
        for s in seven:
            assert span_contains(list(s), fam.target, fld)


class TestD5:
    @pytest.mark.parametrize("k", range(7, 14))
    def test_formula_sizes(self, k):
        assert_valid(construct(2, k, 5), 21 * 2 ** (k - 7) + 1)

    def test_eight_point_sets_span(self):
        fam = construct(2, 9, 5)
        eights = [s for s in fam.sets if len(s) == 8]
        assert len(eights) == 3 * ((2 ** (9 - 7) - 1) // 3) == 3
        fld = field(2)
        for s in eights:
            assert span_contains(list(s), fam.target, fld)

    def test_too_small(self):
        # line groups need k >= 7; below that the baseline family applies
        fam = construct(2, 6, 5)
        assert fam.method == "consecutive-powers"
        assert_valid(fam, 11)


class TestCarried:
    """`_carried` maps a pattern on a model into every block: each mapped
    row is a row of the layout, no cell repeats, and each mapped set
    spans the target."""

    @staticmethod
    def check(lay, sets):
        assert {r for s in sets for r, _ in s} <= {0, *lay.rows}
        cells = [cell for s in sets for cell in s]
        assert len(set(cells)) == len(cells)
        target = canonical_target(lay.q, lay.k, lay.d)
        for s in sets:
            assert span_contains([lay.pt(r, c) for r, c in s], target, lay.fld), s

    @pytest.mark.parametrize("q, d", [(3, 2), (4, 3), (5, 1), (7, 2), (9, 3)])
    def test_line_groups_on_echelon_lines(self, q, d):
        # the model's q+1 rows, the points of PG(1,q), in groups of d+2:
        # d rows on alpha^0..alpha^(d-1) and two on the zero column
        model = Layout(q, d + 2, d)
        a = model.col.alpha_pow
        rows = model.rows
        pattern = [[(x, a(j)) for j, x in enumerate(rows[g: g + d])] + [(x, 0) for x in rows[g + d: g + d + 2]]
                   for g in range(0, q + 1, d + 2)]
        lay = Layout(q, d + 4, d)
        amb = extension(lay.fld, 4)
        spread = full_spread(q, 4, 2)
        lines = [tuple(map(amb.from_vector, rref(map(amb.to_vector, line), lay.fld))) for line in spread]
        sets = _carried(lay, lines, pattern)
        assert len(sets) == len(spread) * (q + 1) // (d + 2)
        self.check(lay, sets)
        # the spread's own bases are not echelon: some image is not canonical
        assert not {r for s in _carried(lay, spread, pattern) for r, _ in s} <= set(lay.rows)

    def test_three_subspace_pattern_on_a_ladder(self):
        lay = Layout(2, 10, 4)
        a, add = lay.col.alpha_pow, lay.col.add
        u1, u2, u3, u4 = a(0), a(1), a(2), a(3)
        fano = [(1, u1), (2, add(u1, u2)), (4, add(u1, u3)), (3, 0), (5, 0),
                (6, add(add(u2, u3), u4)), (7, add(u2, u3))]
        bases, residual = lifted_ladder(6, 3, 3)
        assert (len(bases), residual) == (8, (8, 16, 32))
        self.check(lay, _carried(lay, bases + [residual], [fano]))

    def test_quintriples_on_a_four_subspace_ladder(self):
        # the m = 4 cells on the 16 parts of the ladder of F_2^8 and on its
        # residual F_2^4: 17 blocks of three 5-sets
        lay = Layout(2, 10, 2)
        cells = _base_pattern(4)[0]
        bases, residual = lifted_ladder(8, 4, 7)
        assert residual == (16, 32, 64, 128)
        sets = _carried(lay, bases + [residual], cells)
        assert len(sets) == 51
        self.check(lay, sets)

    def test_four_line_pattern_on_dependent_rows(self):
        # four lines of F_2^4 give eight dependent basis vectors; the map is
        # injective only on the twelve rows the pattern uses
        lay = Layout(2, 9, 5)
        u1, u2, u3, u4, u5 = map(lay.col.alpha_pow, range(5))
        pattern = [[(x, 0), (x, u1), (2 * x, 0), (2 * x, u2), (3 * x, u3), (3 * x, u4), (z, 0), (z, u5)]
                   for x, z in ((1, 64), (4, 128), (16, 192))]
        block = sum(binary_line_partition(4)[0][:4], ())
        assert len(block) == 8
        sets = _carried(lay, [block], pattern)
        assert len({r for s in sets for r, _ in s}) == 12
        self.check(lay, sets)


class TestPerfect:
    @pytest.mark.parametrize("k,d", [(6, 3), (9, 3), (3, 3), (14, 7)])
    def test_sizes(self, k, d):
        fam = construct(2, k, d)
        want = (2**d - 1) // d + (2**k - 2**d) // (d + 1)
        assert_valid(fam, want)

    @pytest.mark.parametrize("k,d,size", [(6, 3, 16), (9, 3, 128), (14, 7, 2050), (16, 15, 4232)])
    def test_hamming_balls(self, k, d, size):
        # the paper's construction for d = 2^m - 1: each row splits into the
        # translates of the Hamming-code balls, each spanning the target;
        # rows leave nothing over, so consecutive powers reach the same count
        lay = Layout(2, k, d)
        sets = basic_sets(lay)
        balls = [[lay.col_bits[w] for w in ball] for ball in hamming_partition(d.bit_length())]
        for x in lay.rows:
            sets.extend(frozenset(map(lay.row_bits[x].__or__, ball)) for ball in balls)
        balls_family = RecoveryFamily(2, k, d, canonical_target(2, k, d), sets, "hamming-balls")
        assert_valid(balls_family, size)
        assert len(construct(2, k, d).sets) == size


class TestGeneralQ:
    @pytest.mark.parametrize("q,k,d,size", [
        (3, 4, 2, 14), (5, 5, 4, 164), (7, 4, 2, 134),
        # d = 1: line-spread leftovers in groups of three rows reach N_q(k,1)
        (5, 3, 1, 15), (5, 5, 1, 365), (11, 3, 1, 65), (17, 3, 1, 151),
        (125, 3, 1, 7855),  # column slots wider than a byte
    ])
    def test_exact_regimes(self, q, k, d, size):
        fam = construct(q, k, d)
        assert_valid(fam, size)
        assert not fam.notes

    def test_unsupported_regime_reported(self):
        fam = construct(5, 4, 2)  # 4 does not divide 6
        assert fam.notes
        assert_valid(fam)

    def test_odd_codimension_reported(self):
        fam = construct(7, 3, 2)
        assert fam.notes
        assert_valid(fam)

    def test_tight_binary(self):
        fam = construct(2, 8, 6)
        rows = 2 ** (8 - 6) - 1
        assert_valid(fam, 10 + 9 * rows)


class TestDispatcher:
    def test_whole_space(self):
        fam = construct(2, 7, 7)
        assert_valid(fam, 18)
        assert fam.method == "consecutive-powers" and not fam.notes

    def test_routes(self):
        assert construct(2, 6, 3).method == "consecutive-powers"
        assert construct(2, 6, 2).method == "quintriple-rows"
        assert construct(2, 8, 4).method == "three-subspace-rows"
        assert construct(2, 8, 5).method == "line-group-rows"
        assert construct(3, 4, 2).method.startswith("consecutive-powers")

    def test_d1_binary_exact(self):
        fam = construct(2, 5, 1)
        assert_valid(fam, 16)  # 1 + (2^5 - 2)/2

    def test_formula_size_recorded(self):
        fam = construct(2, 4, 2)
        assert fam.formula_size == 5 == len(fam.sets)

    def test_invalid(self):
        with pytest.raises(ValueError):
            construct(2, 3, 4)
        with pytest.raises(ValueError):
            construct(6, 3, 2)


class TestConjugation:
    def test_arbitrary_target(self):
        f2 = field(2)
        target = Subspace.span([(1, 1, 0, 0), (0, 1, 1, 0)], f2, 4)
        fam = conjugate_family(construct(2, 4, 2), target)
        cert = assert_valid(fam, 5)
        assert fam.target == target
        assert all(type(s) is tuple and list(s) == sorted(set(s)) for s in fam.sets)

    def test_q3_target(self):
        f3 = field(3)
        target = Subspace.span([(1, 2, 0), (0, 0, 1)], f3, 3)
        fam = conjugate_family(construct(3, 3, 2), target)
        assert_valid(fam)
        assert fam.target == target
