import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from recovery_sets.ilp import (
    CONSTRAINTS,
    VARIABLES,
    DualSolution,
    _dual_vertices,
    build_ilp_d2,
    check_dual,
    dual_constraints,
    export_model,
    solve_ilp,
)


def brute_force_optimum(k):
    """Exhaustive maximum over the bounded polytope; independent of the
    branch-and-bound path."""
    b = 2**k - 4
    best = 0
    for x1 in range(2):
        for x2 in range(4 - 2 * x1):
            for x3 in range(4 - 2 * x1 - x2):
                for y3 in range(b // 3 + 1):
                    for y22 in range(b // 4 + 1):
                        for y4 in range(b // 2 + 1):
                            c2 = 2 * x2 + 3 * x3 + 3 * y3 + 4 * y22 + 4 * y4
                            c3 = 2 * x2 + 4 * y3 + 4 * y22 + 2 * y4
                            if c2 > b or c3 > b:
                                continue
                            y5 = (b - c2) // 5
                            best = max(best, x1 + x2 + x3 + y3 + y22 + y4 + y5)
    return best


def reference_dual_vertices(columns):
    """_dual_vertices by Gaussian elimination over Fractions: every triple
    of constraint boundaries solved, kept if nonnegative and feasible."""
    bounds = [(tuple(col), Fraction(1)) for col in columns]
    bounds += [(tuple(1 if i == j else 0 for i in range(3)), Fraction(0)) for j in range(3)]
    verts = []
    for rows in itertools.combinations(bounds, 3):
        sol = _solve3([list(r[0]) for r in rows], [r[1] for r in rows])
        if sol is None or any(v < 0 for v in sol):
            continue
        if all(sum(Fraction(c) * v for c, v in zip(col, sol)) >= 1 for col in columns) and sol not in verts:
            verts.append(sol)
    return verts


def _solve3(mat, rhs):
    m = [[Fraction(x) for x in row] + [b] for row, b in zip(mat, rhs)]
    for col in range(3):
        pivot = next((r for r in range(col, 3) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(3):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return tuple(m[r][3] for r in range(3))


class TestDualVertices:
    @pytest.mark.parametrize("j", range(len(VARIABLES)))
    def test_suffixes_match_reference(self, j):
        cols = [tuple(row[i] for row in CONSTRAINTS) for i in range(j, len(VARIABLES))]
        verts = _dual_vertices(cols)
        assert verts and verts == reference_dual_vertices(cols)
        assert all(type(v) is Fraction for z in verts for v in z)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 5)] * 3), min_size=3, max_size=7))
    def test_small_columns_match_reference(self, cols):
        assert _dual_vertices(cols) == reference_dual_vertices(cols)


class TestModel:
    def test_rhs(self):
        assert build_ilp_d2(4).rhs == (3, 12, 12)
        assert build_ilp_d2(2).rhs == (3, 0, 0)

    def test_seven_variables(self):
        m = build_ilp_d2(5)
        assert len(m.variables) == 7
        assert m.constraints[0] == (2, 1, 1, 0, 0, 0, 0)
        assert m.constraints[1] == (0, 2, 3, 3, 4, 4, 5)
        assert m.constraints[2] == (0, 2, 0, 4, 4, 2, 0)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            build_ilp_d2(1)

    def test_export_lists_constraints(self):
        text = export_model(build_ilp_d2(4))
        lines = text.splitlines()
        assert lines[0].startswith("max ")
        assert "2*X1 + 1*X2 + 1*X3 <= 3" in lines
        assert sum("<=" in line for line in lines) == 3


class TestSolve:
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_against_brute_force(self, k):
        opt, assignment = solve_ilp(build_ilp_d2(k))
        assert opt == brute_force_optimum(k)
        # reported assignment is feasible and achieves the optimum
        m = build_ilp_d2(k)
        values = [assignment[v] for v in m.variables]
        assert all(v >= 0 for v in values)
        for row, b in zip(m.constraints, m.rhs):
            assert sum(c * v for c, v in zip(row, values)) <= b
        assert sum(values) == opt

    @pytest.mark.parametrize("k", range(4, 17))
    def test_closed_form(self, k):
        opt, _ = solve_ilp(build_ilp_d2(k))
        assert opt == (3 * 2**k + 3) // 10

    def test_k2(self):
        opt, assignment = solve_ilp(build_ilp_d2(2))
        assert opt == 1 and assignment["X1"] == 1

    def test_unbounded_detected(self):
        from recovery_sets.ilp import IlpModel

        m = IlpModel(("A", "B"), ((1, 0),), (5,))
        with pytest.raises(ValueError):
            solve_ilp(m)


class TestDual:
    def test_known_optimal_dual_feasible(self):
        z = DualSolution(Fraction(1, 2), Fraction(1, 5), Fraction(1, 10))
        for k in (2, 4, 8, 16):
            ok, obj, violated = check_dual(z, k)
            assert ok and not violated
            assert obj == Fraction(3, 2) + Fraction(3 * (2 ** (k - 1) - 2), 5)

    def test_perturbed_dual_infeasible(self):
        ok, _, violated = check_dual(DualSolution(Fraction(1, 2), Fraction(1, 5), Fraction(1, 20)), 6)
        assert not ok
        # 3*z2 + 4*z3 = 3/5 + 1/5 < 1: the three-in-one-row type is uncovered
        assert "Y3" in violated

    def test_all_ones_feasible(self):
        ok, obj, _ = check_dual(DualSolution(1, 1, 1), 4)
        assert ok and obj == 3 + 2 * (2**4 - 4)

    def test_negative_rejected(self):
        ok, _, violated = check_dual(DualSolution(Fraction(-1, 2), 1, 1), 4)
        assert not ok and "nonnegativity" in violated

    def test_dual_columns_transpose_primal(self):
        m = build_ilp_d2(4)
        cols = dual_constraints(m)
        for j, (col, name) in enumerate(cols):
            assert name == m.variables[j]
            assert col == tuple(row[j] for row in m.constraints)

    @pytest.mark.parametrize("k", range(2, 17))
    def test_weak_duality(self, k):
        opt, _ = solve_ilp(build_ilp_d2(k))
        duals = [
            (Fraction(1, 2), Fraction(1, 5), Fraction(1, 10)),
            (Fraction(1, 2), Fraction(1, 3), Fraction(0)),
            (1, 1, 1),
            (Fraction(2, 3), Fraction(1, 4), Fraction(1, 8)),
        ]
        for z in duals:
            ok, obj, _ = check_dual(DualSolution(*z), k)
            if ok:
                assert Fraction(opt) <= obj
