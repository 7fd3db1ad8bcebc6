import functools

import pytest

from recovery_sets.bounds import (
    bound,
    bound_table,
    d2_packing_upper,
    d6_bracket,
    dimension_one_exact,
    general_upper,
    row_structure_upper,
)
from recovery_sets.constructions import REGISTRY


def d2_exact(k):
    return (3 * 2 ** (k - 1) + 1) // 5


def d4_exact(k):
    return (11 * 2 ** (k - 3) - 1) // 7


class TestFormulas:
    def test_d2_exact_closed_form(self):
        for k in range(2, 15):
            assert bound(2, k, 2).exact == (3 * 2 ** (k - 1) + 1) // 5

    def test_d2_upper_equals_exact(self):
        # floor((3*2^k+3)/10) and floor((3*2^(k-1)+1)/5) agree for all k
        for k in range(2, 20):
            assert d2_packing_upper(k) == d2_exact(k)

    def test_d5_bracket(self):
        for k in range(7, 13):
            lo = 21 * 2 ** (k - 7) + 1
            r = bound(2, k, 5)
            assert lo == r.lower <= r.upper <= lo + 1

    def test_d6_values_at_7(self):
        assert d6_bracket(7) == (19, 21)

    def test_whole_space(self):
        assert bound(2, 7, 7).exact == 18
        assert bound(3, 3, 3).exact == (3**3 - 1) // (3 * 2) == 4
        assert bound(2, 3, 3).exact == 2

    def test_dimension_one(self):
        assert bound(2, 5, 1).exact == 1 + (2**5 - 2) // 2
        assert bound(4, 3, 1).exact == 1 + (4**3 - 4) // 6
        assert dimension_one_exact(3, 3) == 1 + 4 + (9 - 1) // 6

    def test_d4(self):
        assert bound(2, 4, 4).exact == 3
        assert bound(2, 5, 4).exact == 6
        assert bound(2, 6, 4).exact == 13
        for k in range(7, 14):
            assert bound(2, k, 4).exact == d4_exact(k)

    def test_perfect_code(self):
        assert bound(2, 6, 3).exact == (2**3 - 1) // 3 + (2**6 - 2**3) // 4 == 16
        assert bound(2, 14, 7).exact == 18 + (2**14 - 2**7) // 8

    def test_q_gt_2_exact_regimes(self):
        assert bound(3, 4, 2).exact == 14
        assert bound(5, 5, 4).exact == 164
        assert bound(7, 4, 2).exact == 134


class TestGeneralBounds:
    def test_gen_upper_matches_small_exact(self):
        assert general_upper(2, 4, 2) == 5

    def test_printed_variant_is_selectable(self):
        corrected = row_structure_upper(2, 8, 4, "corrected")
        printed = row_structure_upper(2, 8, 4, "printed")
        assert printed > corrected
        rec = bound(2, 8, 4, row_upper_variant="printed")
        assert rec.exact == d4_exact(8)

    def test_refinement_on_grid(self):
        """The size-d+2 refinement is no weaker than the plain size count on
        the acceptance grid, except at the two degenerate points (2,4,4)
        and (2,5,4) where the leftover term overshoots."""
        grid = (
            [(2, k, 2) for k in range(2, 15)]
            + [(2, k, 4) for k in range(4, 14)]
            + [(2, k, 5) for k in range(7, 13)]
            + [(2, 6, 3), (2, 9, 3), (2, 14, 7)]
            + [(3, 4, 2), (5, 5, 4), (7, 4, 2)]
        )
        exceptions = {(2, 4, 4), (2, 5, 4)}
        for q, k, d in grid:
            g, r = general_upper(q, k, d), row_structure_upper(q, k, d)
            if (q, k, d) in exceptions:
                assert r == g + 1
            else:
                assert g >= r, (q, k, d, g, r)

    def test_lower_never_exceeds_upper(self):
        for q in (2, 3, 4, 5):
            for k in range(1, 9):
                for d in range(1, k + 1):
                    r = bound(q, k, d)
                    assert r.lower <= r.upper
                    if r.exact is not None:
                        assert r.lower == r.upper == r.exact

    def test_tight_lower_below_exact(self):
        tight = REGISTRY[-1]
        assert tight.method == "consecutive-powers"
        for k in range(2, 12):
            assert tight.size(2, k, 2) <= d2_exact(k)


class TestTable:
    def test_d4_rows(self):
        # floor((11*2^5-1)/7) = 50: the certified family at k = 8 has 50 sets
        rows = bound_table(2, range(6, 9), range(4, 5))
        assert [r.exact for r in rows] == [13, 25, 50]

    def test_order_deterministic(self):
        rows = bound_table(2, range(3, 6), range(1, 4))
        keys = [(r.k, r.d) for r in rows]
        assert keys == sorted(keys)

    def test_invalid_cells_skipped(self):
        rows = bound_table(2, range(2, 4), range(3, 4))
        assert [(r.k, r.d) for r in rows] == [(3, 3)]

    def test_payload(self):
        r = bound(2, 7, 6)
        payload = r.to_payload()
        assert payload["lower"] == 19 and payload["upper"] == 19
        assert any(tag.startswith("lower:") for tag in payload["provenance"])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            bound(2, 3, 4)
        with pytest.raises(ValueError):
            bound(10, 3, 2)


# (2, k, 4) for k >= 7: `exact:three-subspace-rows` has no upper argument
# that reaches it, so `upper` is clamped down to the claim
def _d4_claim(r):
    return (r.q, r.d) == (2, 4) and r.k >= 7


@functools.cache
def _exact_rows():
    return [
        r
        for q in (2, 3, 4, 5, 7, 8, 9)
        for r in bound_table(q, range(1, 65), range(1, 65))
        if r.exact is not None
    ]


def _without_upper_argument(rows):
    # `bound()` tags an upper bound only if it equals the reported `upper`,
    # so a row has no `upper:` tag exactly when `upper` was clamped to `exact`
    return [(r.q, r.k, r.d) for r in rows if not any(t.startswith("upper:") for t in r.provenance)]


class TestExactArguments:
    def test_every_exact_has_an_upper_argument(self):
        rows = [r for r in _exact_rows() if not _d4_claim(r)]
        assert len(rows) == 2657 and len(_exact_rows()) - len(rows) == 58
        assert _without_upper_argument(rows) == []

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2(d): d = 4 exact for k >= 7 has no upper argument")
    def test_d4_three_subspace_rows(self):
        assert _without_upper_argument([r for r in _exact_rows() if _d4_claim(r)]) == []
