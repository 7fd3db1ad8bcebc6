import functools
import random
from itertools import combinations

import pytest

from recovery_sets.bounds import row_structure_upper
from recovery_sets.field_core import Subspace, field, rref
from recovery_sets.geometry import enumerate_points, num_points
from recovery_sets.constructions import canonical_target, construct
from recovery_sets.oracle import (SearchConfig, _packed_instance, _point_classes, _row_bound, _search,
                                  exact_N, minimal_recovery_sets)
from recovery_sets.verifier import verify_family

from spans import span_contains


# (q, k, d) -> the family _search finds from an empty incumbent, as sorted
# point-id lists in the order it packs them
EMPTY_INCUMBENT_WITNESSES = {
    (2, 2, 2): [[0, 1]],
    (2, 3, 2): [[0, 1], [2, 3, 4]],
    (2, 4, 2): [[0, 1], [2, 3, 4], [5, 6, 7, 11], [8, 9, 10], [12, 13, 14]],
    (2, 4, 4): [[0, 1, 3, 7], [2, 4, 6, 8], [5, 9, 10, 13]],
    (3, 2, 2): [[0, 1], [2, 3]],
    (3, 3, 2): [[0, 1], [2, 3], [4, 5, 7], [6, 8, 11], [9, 10, 12]],
    (4, 3, 2): [[0, 1], [2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 13], [12, 14, 15], [16, 17, 18]],
    (5, 3, 1): [[0], [1, 2], [3, 4], [5, 6, 11], [7, 8], [9, 10], [12, 13], [14, 15], [16, 17],
                [18, 19], [20, 21, 26], [22, 23], [24, 25], [27, 28], [29, 30]],
    (3, 3, 1): [[0], [1, 2], [3, 4, 7], [5, 6], [8, 9], [10, 11]],
}


class TestExactValues:
    @pytest.mark.parametrize(
        "q,k,d,value",
        [(2, 2, 2, 1), (2, 3, 2, 2), (2, 4, 2, 5), (2, 4, 4, 3), (3, 2, 2, 2)],
    )
    def test_small_instances(self, q, k, d, value):
        result = exact_N(q, k, d)
        assert result.exact and result.value == value
        cert = verify_family(result.witness)
        assert cert.valid and cert.family_size == value

    def test_matches_construction(self):
        for q, k, d in ((2, 3, 2), (2, 4, 2), (2, 4, 4), (3, 2, 2)):
            assert exact_N(q, k, d).value == len(construct(q, k, d).sets)

    @pytest.mark.parametrize("q,k,d", list(EMPTY_INCUMBENT_WITNESSES))
    def test_search_from_empty_incumbent(self, q, k, d):
        # exact_N starts from the construct() family and may prove it at the
        # root; the packer alone, from no family, must reach the same value,
        # or the checks above would compare construct() with itself.  The
        # witness, as point ids in packing order, pins the search tree.
        _, _, vecs, target_rows = _packed_instance(q, k, d)
        best, nodes, finished = _search(q, d, vecs, target_rows, SearchConfig(), [])
        assert finished and nodes > 1
        ids = [[i for i in range(s.bit_length()) if s >> i & 1] for s in best]
        assert ids == EMPTY_INCUMBENT_WITNESSES[q, k, d]
        assert len(best) == exact_N(q, k, d).value

    def test_proved_at_the_root(self):
        result = exact_N(2, 4, 2)
        assert (result.value, result.status, result.nodes) == (5, "exact", 1)

    def test_witness_names_its_builder(self):
        # the seed returned untouched keeps its builder's method, also after
        # a search that finds nothing larger; a family the packer found past
        # the root is its own
        assert exact_N(2, 4, 2).witness.method == "quintriple-rows"
        result = exact_N(3, 3, 1)
        assert result.nodes > 1 and result.witness.method == "oracle-packing"
        # the row bound proves the (5,3,1) seed at the root
        result = exact_N(5, 3, 1)
        assert result.nodes == 1 and result.witness.method == "consecutive-powers+line-leftovers"
        result = exact_N(2, 5, 2, SearchConfig(node_limit=2000))
        assert result.nodes > 1 and not result.exact and result.witness.method == "quintriple-rows"

    def test_witness_sets_are_ascending_tuples(self):
        for q, k, d in ((3, 3, 1), (3, 3, 2), (2, 4, 4)):
            sets = exact_N(q, k, d).witness.sets
            assert all(type(s) is tuple and list(s) == sorted(set(s)) for s in sets)

    def test_row_bound_at_the_root(self):
        # two derivations of one bound: at the root, with every point free,
        # the search's row bound is bounds.row_structure_upper
        cells = 0
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            for k in range(1, 12):
                if num_points(q, k) > 3000:
                    break
                for d in range(1, k + 1):
                    _, _, vecs, target_rows = _packed_instance(q, k, d)
                    inside, rows = _point_classes(q, d, vecs, target_rows)
                    root = _row_bound((1 << len(vecs)) - 1, inside, rows, d)
                    assert root == row_structure_upper(q, k, d), (q, k, d)
                    cells += 1
        assert cells == 185

    @pytest.mark.parametrize("q,k,d", [(2, 4, 2), (2, 4, 3), (3, 3, 1), (3, 3, 2)])
    def test_row_bound_holds_on_any_free_points(self, q, k, d):
        # against the largest packing of minimal sets into random point
        # subsets, found by trying every packing with no bound at all
        points, _, vecs, target_rows = _packed_instance(q, k, d)
        inside, rows = _point_classes(q, d, vecs, target_rows)
        ids = {p: i for i, p in enumerate(points)}
        by_lowest = {}
        for s in minimal_recovery_sets(q, k, d):
            mask = sum(1 << ids[p] for p in s)
            by_lowest.setdefault(mask & -mask, []).append(mask)

        @functools.lru_cache(maxsize=None)
        def largest(free):
            if not free:
                return 0
            p = free & -free
            return max([largest(free ^ p)]
                       + [1 + largest(free ^ s) for s in by_lowest.get(p, ()) if s & free == s])

        rng = random.Random(len(points))
        for _ in range(200):
            free = rng.getrandbits(len(points)) | rng.getrandbits(len(points))
            assert _row_bound(free, inside, rows, d) >= largest(free), bin(free)

    def test_budget_returns_lower_bound(self):
        # the seeded construct() family is kept unless the search beats it
        result = exact_N(2, 10, 2, SearchConfig(node_limit=10**4))
        assert not result.exact
        assert result.status == "lower-bound-only"
        assert result.value >= len(construct(2, 10, 2).sets) == 307
        assert verify_family(result.witness).valid

    def test_max_set_size_only_none(self):
        # kept for perfbench/tracer.py until ROADMAP item 1 step B
        cfg = SearchConfig(max_set_size=None, node_limit=5, time_limit=None)
        result = exact_N(2, 5, 2, cfg)
        assert (result.status, result.nodes) == ("lower-bound-only", 6)
        with pytest.raises(ValueError):
            SearchConfig(max_set_size=2)


def rank(vecs, fld):
    return len(rref(vecs, fld))


def brute_minimal_sets(q, k, d, cap):
    """Independent enumeration by filtering all small subsets."""
    points = enumerate_points(q, k)
    fld = field(q)
    target = canonical_target(q, k, d)
    out = []
    for size in range(1, cap + 1):
        for combo in combinations(range(len(points)), size):
            vecs = [points[i] for i in combo]
            if not all(
                rank(vecs + [row], fld) == rank(vecs, fld) for row in target.basis
            ):
                continue
            minimal = True
            for skip in range(size):
                sub = [v for j, v in enumerate(vecs) if j != skip]
                if all(rank(sub + [row], fld) == rank(sub, fld) for row in target.basis):
                    minimal = False
                    break
            if minimal:
                out.append(tuple(points[i] for i in combo))
    return sorted(out, key=lambda s: (len(s), s))


class TestMinimalSets:
    def test_bases_of_F2_3(self):
        sets = minimal_recovery_sets(2, 3, 3)
        assert len(sets) == 28

    def test_pairs_inside_target(self):
        pairs = [s for s in minimal_recovery_sets(2, 4, 2) if len(s) == 2]
        assert len(pairs) == 3

    def test_matches_brute_enumeration(self):
        assert minimal_recovery_sets(2, 4, 2) == brute_minimal_sets(2, 4, 2, 4)
        assert minimal_recovery_sets(3, 2, 2) == brute_minimal_sets(3, 2, 2, 3)
        # q > 2 over an extension field
        assert minimal_recovery_sets(4, 3, 2) == brute_minimal_sets(4, 3, 2, 3)
        # targets of dimension 3 and 1, for both the q = 2 and the q > 2 tags
        assert minimal_recovery_sets(2, 4, 3) == brute_minimal_sets(2, 4, 3, 4)
        assert minimal_recovery_sets(3, 3, 1) == brute_minimal_sets(3, 3, 1, 3)

    def test_antichain(self):
        sets = [frozenset(s) for s in minimal_recovery_sets(2, 4, 2)]
        for a in sets:
            for b in sets:
                assert a == b or not a < b

    def test_size_structure_guarantees(self):
        """Size-d sets stay inside the target; size-(d+1) sets use a single
        row; cross-row sets need at least d+2 points."""
        q, k, d = 2, 5, 2
        fld = field(q)
        target = canonical_target(q, k, d)
        for s in minimal_recovery_sets(q, k, d):
            rows = {p[: k - d] for p in s}
            nonzero_rows = {r for r in rows if any(r)}
            if len(s) == d:
                assert all(span_contains(target.basis, Subspace.span([p], fld, k), fld) for p in s)
            if len(s) == d + 1:
                assert len(nonzero_rows) <= 1
            if len(nonzero_rows) >= 2:
                assert len(s) >= d + 2

