"""The integer program bounding binary d = 2 families, solved exactly.

Seven set types cover every useful shape of recovery set for a
2-subspace: X1 (two first-row points), X2, X3 (one first-row point plus
two or three internal points), Y3 (three points in one internal row),
Y22, Y4 (four points over two or three internal rows) and Y5 (five
points over five rows).  Three counting constraints bound them; the
maximum of the total is the packing bound floor((3*2^k+3)/10).

Everything runs in exact rational arithmetic: the branch-and-bound fixes
variables in declared order and prunes with the minimum of the dual
vertex values for the remaining column set, and the dual certificate
check substitutes candidate multipliers into all seven dual constraints.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple

VARIABLES = ("X1", "X2", "X3", "Y3", "Y22", "Y4", "Y5")

# Column j of CONSTRAINTS is variable j's usage of (first row, all internal
# rows, paired internal-row incidences).
CONSTRAINTS = (
    (2, 1, 1, 0, 0, 0, 0),
    (0, 2, 3, 3, 4, 4, 5),
    (0, 2, 0, 4, 4, 2, 0),
)


class IlpModel(NamedTuple):
    variables: tuple[str, ...]
    constraints: tuple[tuple[int, ...], ...]
    rhs: tuple[int, ...]


class DualSolution(NamedTuple):
    z1: Fraction
    z2: Fraction
    z3: Fraction


def build_ilp_d2(k: int) -> IlpModel:
    if k < 2:
        raise ValueError("need k >= 2")
    b = 2**k - 4
    return IlpModel(VARIABLES, CONSTRAINTS, (3, b, b))


def export_model(model: IlpModel) -> str:
    """Plain-text listing: objective then one inequality per line."""
    lines = ["max " + " + ".join(model.variables)]
    for coeffs, b in zip(model.constraints, model.rhs):
        terms = [f"{c}*{v}" for c, v in zip(coeffs, model.variables) if c]
        lines.append(" + ".join(terms) + f" <= {b}")
    lines.append("all variables nonnegative integers")
    return "\n".join(lines)


def dual_constraints(model: IlpModel) -> list[tuple[tuple[int, ...], str]]:
    """One >= 1 constraint per primal variable: its column of coefficients."""
    out = []
    for j, name in enumerate(model.variables):
        out.append((tuple(row[j] for row in model.constraints), name))
    return out


def check_dual(z: DualSolution, k: int) -> tuple[bool, Fraction, list[str]]:
    """Exact feasibility check of dual multipliers, and their objective
    3*z1 + (2^k-4)*(z2+z3); for the known optimum (1/2, 1/5, 1/10) the
    objective is 3/2 + 3(2^(k-1)-2)/5."""
    zs = (z.z1, z.z2, z.z3)
    model = build_ilp_d2(k)
    violated = []
    if any(v < 0 for v in zs):
        violated.append("nonnegativity")
    for col, name in dual_constraints(model):
        lhs = sum(Fraction(c) * v for c, v in zip(col, zs))
        if lhs < 1:
            violated.append(name)
    objective = sum(Fraction(b) * v for b, v in zip(model.rhs, zs))
    return (not violated, objective, violated)


def _dual_vertices(columns: list[tuple[int, ...]]) -> list[tuple[Fraction, ...]]:
    """Vertices of {z >= 0 : col . z >= 1 for each column}, found by
    intersecting triples of constraint boundaries; any member yields a
    valid bound by weak duality, so the list being a superset of the
    vertex set is harmless.  Cramer's rule in integers solves each triple
    a.z = ra, b.z = rb, c.z = rc as z = num / det, num = ra (b x c) +
    rb (c x a) + rc (a x b), det = a . (b x c) > 0; only kept z are Fractions."""
    bounds = [(tuple(col), 1) for col in columns]
    bounds += [(tuple(1 if i == j else 0 for i in range(3)), 0) for j in range(3)]
    verts = []
    for (a, ra), (b, rb), (c, rc) in itertools.combinations(bounds, 3):
        bc, ca, ab = _cross(b, c), _cross(c, a), _cross(a, b)
        det = a[0] * bc[0] + a[1] * bc[1] + a[2] * bc[2]
        if not det:
            continue
        sign = 1 if det > 0 else -1
        num = [sign * (ra * x + rb * y + rc * z) for x, y, z in zip(bc, ca, ab)]
        det *= sign
        if min(num) < 0 or any(col[0] * num[0] + col[1] * num[1] + col[2] * num[2] < det for col in columns):
            continue
        sol = tuple(Fraction(n, det) for n in num)
        if sol not in verts:
            verts.append(sol)
    return verts


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def solve_ilp(model: IlpModel) -> tuple[int, dict[str, int]]:
    """Exact maximum of the variable sum over the nonnegative integer
    points of the model, by depth-first branch and bound.

    Variables are fixed in declared order, largest value first; the last
    variable is resolved in closed form.  Nodes are cut when the fixed
    part plus the floor of the remaining linear-relaxation bound cannot
    beat the incumbent; since that bound is concave in the branching
    value, the descent stops once past the peak and below the incumbent.
    """
    nvars = len(model.variables)
    for j in range(nvars):
        if all(row[j] == 0 for row in model.constraints):
            raise ValueError(f"model is unbounded in {model.variables[j]}")
    # bound oracle per suffix: min over dual vertices of the residual rhs;
    # dfs reads it as lp_bound(j + 1, ...), so only from the second variable on
    columns = [tuple(row[i] for row in model.constraints) for i in range(nvars)]
    suffix_vertices = [_dual_vertices(columns[j:]) for j in range(1, nvars)]

    def lp_bound(j: int, caps: tuple[int, ...]) -> Fraction:
        return min(sum(Fraction(c) * v for c, v in zip(caps, z)) for z in suffix_vertices[j - 1])

    best_value = -1
    best_assignment: dict[str, int] = {}
    assignment = [0] * nvars

    def var_max(j: int, caps) -> int:
        vm = None
        for row, cap in zip(model.constraints, caps):
            if row[j]:
                m = cap // row[j]
                vm = m if vm is None else min(vm, m)
        return vm

    def dfs(j: int, caps: tuple[int, ...], fixed: int):
        nonlocal best_value, best_assignment
        if j == nvars - 1:
            v = var_max(j, caps)
            if fixed + v > best_value:
                assignment[j] = v
                best_value = fixed + v
                best_assignment = dict(zip(model.variables, assignment))
            return
        vmax = var_max(j, caps)
        prev_bound = None
        for v in range(vmax, -1, -1):
            child = tuple(c - v * row[j] for c, row in zip(caps, model.constraints))
            node_bound = fixed + v + lp_bound(j + 1, child)
            # integral objective: the node is dead unless its bound reaches
            # best + 1
            if node_bound < best_value + 1:
                # concave in v: once on the falling side, no smaller v helps
                if prev_bound is not None and node_bound <= prev_bound:
                    return
                prev_bound = node_bound
                continue
            prev_bound = node_bound
            assignment[j] = v
            dfs(j + 1, child, fixed + v)
        assignment[j] = 0

    dfs(0, model.rhs, 0)
    return best_value, best_assignment
