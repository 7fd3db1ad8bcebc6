"""Constructions of large families of pairwise disjoint recovery sets.

A recovery set for a d-subspace U of F_q^k is a set of projective points
whose span contains U.  All constructions here work against the canonical
target: U is spanned by the last d unit vectors, the complement W by the
first k - d, and a stored point is written (x | y) with x in W, y in U.
Families for an arbitrary target are obtained by conjugation.

The common skeleton: points inside U give floor((q^d-1)/(d(q-1))) sets of
d consecutive alpha powers; every other row of the layout gives
floor(q^d/(d+1)) sets, each either d+1 consecutive powers or the zero
column plus d consecutive powers.  What remains per row (the leftovers)
is stitched into cross-row sets; the stitching patterns depend on (q, d)
and are what the specialized builders below implement.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Callable

from .field_core import (
    Echelon,
    Subspace,
    extension,
    field,
    left_nullspace,
    pack,
    prime_power,
    solve_linear,
    span_contains,
)
from .geometry import (
    Layout,
    Point,
    binary_line_partition,
    canonical_point,
    full_spread,
    hamming_partition,
    lifted_ladder,
    num_points,
)

Sets = list[frozenset[Point]]

# ---------------------------------------------------------------------------
# Family containers
# ---------------------------------------------------------------------------


@dataclass
class RecoveryFamily:
    q: int
    k: int
    d: int
    target: Subspace
    sets: list[frozenset[Point]]
    method: str
    formula_size: int | None = None
    notes: list[str] = dc_field(default_factory=list)


def canonical_target(q: int, k: int, d: int) -> Subspace:
    rows = tuple(
        tuple(1 if j == k - d + i else 0 for j in range(k)) for i in range(d)
    )
    return Subspace(k, rows)


def conjugate_family(family: RecoveryFamily, new_target: Subspace) -> RecoveryFamily:
    """Transport a canonical-target family onto an arbitrary target subspace."""
    q, k, d = family.q, family.k, family.d
    if new_target.ambient != k or new_target.dim != d:
        raise ValueError("target has wrong dimensions")
    fld = field(q)
    ech = Echelon(q, (pack(row, q) for row in new_target.basis))
    complement = []
    for i in range(k):
        unit = tuple(1 if j == i else 0 for j in range(k))
        if ech.add(pack(unit, q)):
            complement.append(unit)
    rows = complement + list(new_target.basis)

    def apply(p: Point) -> Point:
        acc = [0] * k
        for c, row in zip(p, rows):
            if c:
                acc = [fld.add(a, fld.mul(c, b)) for a, b in zip(acc, row)]
        return canonical_point(tuple(acc), fld)

    sets = [frozenset(apply(p) for p in s) for s in family.sets]
    return RecoveryFamily(
        q, k, d, new_target, sets, family.method + "+conjugated",
        family.formula_size, list(family.notes),
    )


# ---------------------------------------------------------------------------
# Row partitions into spanning sets
# ---------------------------------------------------------------------------


def basic_count(q: int, d: int) -> int:
    """Sets of d consecutive alpha powers that fit inside the target."""
    return (q**d - 1) // (d * (q - 1))


def basic_sets_from_Td(lay: Layout) -> Sets:
    """Sets of d consecutive alpha powers inside the target space itself:
    floor((q^d-1)/(d(q-1))) recovery sets drawn from row 0 of the layout.
    """
    a, d = lay.col.alpha_pow, lay.d
    return [
        frozenset(lay.pt(0, a(i * d + j)) for j in range(d))
        for i in range(basic_count(lay.q, d))
    ]


def _row_layout(lay: Layout, leftover=None):
    """Partition of the q^d columns of one row into spanning sets.

    Columns are 0 plus alpha^e for e on the cycle 0..q^d-2 (consecutive
    powers wrap around).  `leftover` pins where the q^d mod (d+1) spare
    columns sit: ("alpha", e) puts them at exponents e..e+t-1, ("zero", e)
    uses column 0 plus exponents e..e+t-2.  Returns the sets as lists of
    columns.
    """
    q, d, a = lay.q, lay.d, lay.col.alpha_pow
    N = q**d - 1
    M = q**d // (d + 1)
    t = q**d - M * (d + 1)
    if leftover is None:
        leftover = ("alpha", (N - t) % N)
    kind, e = leftover
    sets: list[list[int]] = []
    if kind == "alpha":
        start = e + t
        sets.append([0] + [a(start + i) for i in range(d)])
        pos = start + d
        for _ in range(M - 1):
            sets.append([a(pos + i) for i in range(d + 1)])
            pos += d + 1
    elif kind == "zero":
        if t == 0:
            raise ValueError("row has no leftover to place on the zero slot")
        pos = e + t - 1
        for _ in range(M):
            sets.append([a(pos + i) for i in range(d + 1)])
            pos += d + 1
    else:
        raise ValueError(f"unknown leftover kind {kind!r}")
    return sets


def row_sets(lay: Layout, x: int, leftover=None) -> Sets:
    """The floor(q^d/(d+1)) disjoint recovery sets drawn from row x.

    By default the first set couples the zero slot with d consecutive
    powers and the others are d+1 consecutive powers; the slots left over
    are where `leftover` puts them (see `_row_layout`).
    """
    if not x:
        raise ValueError("row 0 holds the target space itself, not a row")
    return [frozenset(lay.pt(x, y) for y in cs) for cs in _row_layout(lay, leftover)]


# ---------------------------------------------------------------------------
# Quintriple partitions of F_2^m (the d = 2 leftover structure)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuintriplePartition:
    """Partition of F_2^m minus zero into 5-sets {x1..x5} with
    x1 = x2+x3 = x4+x5, plus a small remainder depending on m mod 4:
    nothing (m=0), a zero-sum 4-set and 2 spares (m=1), a 3-element
    2-subspace (m=2), or a zero-sum 4-set and 3 spares (m=3)."""

    m: int
    quintriples: tuple[tuple[int, int, int, int, int], ...]
    dependent_four: tuple[int, int, int, int] | None
    spare: tuple[int, ...]

    def validate(self) -> None:
        seen: set[int] = set()
        for x1, x2, x3, x4, x5 in self.quintriples:
            if x1 != x2 ^ x3 or x1 != x4 ^ x5:
                raise ValueError(f"not a quintriple: {(x1, x2, x3, x4, x5)}")
            s = {x1, x2, x3, x4, x5}
            if len(s) != 5 or seen & s:
                raise ValueError("quintriples overlap or degenerate")
            seen |= s
        rest = list(self.dependent_four or ()) + list(self.spare)
        if seen & set(rest) or len(set(rest)) != len(rest):
            raise ValueError("remainder overlaps")
        seen |= set(rest)
        if self.dependent_four is not None:
            a, b, c, d = self.dependent_four
            if a ^ b ^ c ^ d != 0:
                raise ValueError("dependent four does not sum to zero")
        if seen != set(range(1, 1 << self.m)):
            raise ValueError("not a partition of the nonzero vectors")


def _oriented(elems: set[int]) -> tuple[int, int, int, int, int]:
    """Order a 5-set as (x1, x2, x3, x4, x5) with x1 = x2+x3 = x4+x5."""
    for x1 in sorted(elems):
        rest = sorted(elems - {x1})
        a, b, c, d = rest
        for (p, q2), (r, s) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            if p ^ q2 == x1 and r ^ s == x1:
                return (x1, p, q2, r, s)
    raise ValueError(f"{sorted(elems)} is not a quintriple")


def _shifted(f, exps, shift):
    return {f.alpha_pow(e + shift) for e in exps}


@functools.lru_cache(maxsize=None)
def _base_partition(m: int) -> QuintriplePartition:
    if m == 4:
        f = extension(2, 4)
        s = (0, 1, 3, 4, 7)
        quints = [_oriented(_shifted(f, s, i)) for i in (0, 5, 10)]
        return QuintriplePartition(4, tuple(quints), None, ())
    if m == 5:
        f = extension(2, 5)
        s1 = (5, 0, 2, 7, 10)
        quints = [_oriented(_shifted(f, s1, i)) for i in (0, 1, 12, 13)]
        quints.append(_oriented(_shifted(f, (16, 4, 27, 29, 30), 0)))
        dep4 = tuple(sorted(f.alpha_pow(e) for e in (21, 25, 26, 28)))
        spare = tuple(sorted(f.alpha_pow(e) for e in (9, 24)))
        return QuintriplePartition(5, tuple(quints), dep4, spare)
    if m == 6:
        f = extension(2, 6)
        s1 = (0, 1, 6, 13, 35)
        s4 = (7, 9, 12, 19, 41)
        quints = []
        for shift in (0, 21, 42):
            for base in (s1, tuple(e + 2 for e in s1), tuple(e + 4 for e in s1), s4):
                quints.append(_oriented(_shifted(f, base, shift)))
        spare = tuple(sorted(f.alpha_pow(e) for e in (11, 32, 53)))
        return QuintriplePartition(6, tuple(quints), None, spare)
    if m == 7:
        part = QuintriplePartition(7, _M7_QUINTRIPLES, (1, 2, 4, 7), (3, 5, 6))
        part.validate()
        return part
    raise ValueError(f"no base partition for m={m}")


# Deterministic DFS output of find_quintriple_partition_m7(), pinned so the
# m = 7 base case costs nothing at build time; tests re-run the search and
# compare.
_M7_QUINTRIPLES: tuple[tuple[int, int, int, int, int], ...] = (
    (8, 16, 24, 17, 25), (9, 18, 27, 19, 26), (10, 20, 30, 21, 31),
    (11, 22, 29, 23, 28), (12, 32, 44, 33, 45), (13, 34, 47, 35, 46),
    (14, 36, 42, 37, 43), (15, 38, 41, 39, 40), (48, 64, 112, 65, 113),
    (49, 66, 115, 67, 114), (50, 68, 118, 69, 119), (51, 70, 117, 71, 116),
    (52, 72, 124, 73, 125), (53, 74, 127, 75, 126), (54, 76, 122, 77, 123),
    (55, 78, 121, 79, 120), (56, 80, 104, 81, 105), (57, 82, 107, 83, 106),
    (58, 84, 110, 85, 111), (59, 86, 109, 87, 108), (60, 88, 100, 89, 101),
    (61, 90, 103, 91, 102), (62, 92, 98, 93, 99), (63, 94, 97, 95, 96),
)


def find_quintriple_partition_m7() -> QuintriplePartition:
    """Deterministic backtracking search for the m = 7 partition.

    The seven vectors of the embedded F_2^3 are reserved as the remainder
    (they supply the zero-sum 4-set {1,2,4,7} and spares {3,5,6}); the
    other 120 vectors are tiled by quintriples, always covering the
    smallest still-uncovered element first.
    """
    alive = set(range(8, 128))
    out: list[tuple[int, int, int, int, int]] = []

    def candidates(x):
        cands = []
        pairs = [(a, a ^ x) for a in sorted(alive) if a < (a ^ x) and (a ^ x) in alive and a != x]
        for i, (a, b) in enumerate(pairs):
            for c, dd in pairs[i + 1:]:
                if len({a, b, c, dd}) == 4:
                    cands.append((x, a, b, c, dd))
        for y in sorted(alive):
            if y == x:
                continue
            head = x ^ y
            if head not in alive or head in (x, y):
                continue
            used = {x, y, head}
            for c in sorted(alive):
                dd = c ^ head
                if c < dd and dd in alive and c not in used and dd not in used:
                    cands.append((head, x, y, c, dd))
        return cands

    def dfs() -> bool:
        if not alive:
            return True
        x = min(alive)
        for cand in candidates(x):
            s = set(cand)
            if len(s) != 5:
                continue
            alive.difference_update(s)
            out.append(cand)
            if dfs():
                return True
            out.pop()
            alive.update(s)
        return False

    if not dfs():
        raise RuntimeError("m=7 quintriple search failed")
    part = QuintriplePartition(7, tuple(out), (1, 2, 4, 7), (3, 5, 6))
    part.validate()
    return part


@functools.lru_cache(maxsize=None)
def quintriple_partition(m: int) -> QuintriplePartition:
    """Partition F_2^m minus zero into quintriples plus the small remainder.

    Base cases m = 4..7 are fixed partitions; larger m transports the
    m = 4 partition through every part of a lifted spread ladder down to
    m <= 7 and puts the base partition of that size on the residual.
    """
    if m < 4:
        raise ValueError("need m >= 4")
    if m <= 7:
        return _base_partition(m)
    maps, left = lifted_ladder(m, 4, 7)
    quints = [
        tuple(ff[x] for x in qt) for ff in maps for qt in _base_partition(4).quintriples
    ]
    sub, shift = _base_partition(left), m - left
    quints.extend(tuple(e << shift for e in qt) for qt in sub.quintriples)
    dep4 = tuple(e << shift for e in sub.dependent_four) if sub.dependent_four else None
    spare = tuple(e << shift for e in sub.spare)
    return QuintriplePartition(m, tuple(quints), dep4, spare)


# ---------------------------------------------------------------------------
# d = 2 over F_2
# ---------------------------------------------------------------------------


def _quintriple_rows(k: int) -> Sets:
    """Binary d = 2: one pair inside the target, one 3-set per other row,
    and one 5-set per quintriple of row leftovers, with the remainder
    classes contributing one final set."""
    lay = Layout(2, k, 2)
    colf, pt = lay.col, lay.pt
    m = k - 2
    u, v, w = colf.alpha_pow(0), colf.alpha_pow(1), colf.alpha_pow(2)
    assert colf.add(u, v) == w

    sets = [frozenset({pt(0, u), pt(0, w)})]
    leftover_col: dict[int, int] = {}
    extra: list[frozenset[Point]] = []

    def dep_four_set(dep: tuple[int, ...]) -> frozenset[Point]:
        y1, y2, y3, y4 = sorted(dep)
        leftover_col.update({y1: u, y2: 0, y3: 0, y4: 0})
        return frozenset({pt(0, v), pt(y1, u), pt(y2, 0), pt(y3, 0), pt(y4, 0)})

    def line_set(line: tuple[int, ...]) -> frozenset[Point]:
        x1, x2, x3 = sorted(line)
        leftover_col.update({x1: 0, x2: 0, x3: u})
        return frozenset({pt(0, v), pt(x1, 0), pt(x2, 0), pt(x3, u)})

    if m == 0:
        pass
    elif m == 1:
        leftover_col[1] = 0
    elif m == 2:
        extra.append(line_set((1, 2, 3)))
    elif m == 3:
        extra.append(dep_four_set((1, 2, 4, 7)))
        for s in (3, 5, 6):
            leftover_col[s] = 0
    else:
        part = quintriple_partition(m)
        for x1, x2, x3, x4, x5 in part.quintriples:
            leftover_col.update({x1: 0, x2: u, x3: w, x4: v, x5: w})
            extra.append(frozenset({pt(x1, 0), pt(x2, u), pt(x3, w), pt(x4, v), pt(x5, w)}))
        if m % 4 == 2:
            extra.append(line_set(part.spare))
        else:
            for s in part.spare:
                leftover_col[s] = 0
            if part.dependent_four:
                extra.append(dep_four_set(part.dependent_four))

    for x in lay.rows:
        lo = leftover_col.get(x, 0)
        sets.append(frozenset(pt(x, c) for c in (0, u, v, w) if c != lo))
    return sets + extra


# ---------------------------------------------------------------------------
# d = 4 over F_2
# ---------------------------------------------------------------------------


def _three_subspace_rows(k: int) -> Sets:
    """Binary d = 4, k > 4; a pinned thirteen-set family for k = 6.

    Rows are tiled with three 5-sets each; the one leftover per row is
    positioned so that, over each 3-subspace of rows, the seven leftovers
    recover the target through the (3,4) pattern.  The terminal block of
    the 3-subspace ladder spends the three first-row leftovers.
    """
    if k == 6:
        return _d4_k6_sets()
    lay = Layout(2, k, 4)
    colf, pt = lay.col, lay.pt
    a = colf.alpha_pow
    m = k - 4

    sets = [frozenset(pt(0, a(4 * i + j)) for j in range(4)) for i in range(3)]
    first_leftovers = [a(12), a(13), a(14)]
    if k == 5:
        return sets + row_sets(lay, 1)

    # disjoint 3-subspaces laddered down to F_2^{3,4,5} for m = 0, 1, 2 mod 3
    maps, base = lifted_ladder(m, 3, {0: 3, 1: 4, 2: 5}[m % 3])
    shift = m - base
    leftover_col: dict[int, int] = {}
    extra: list[frozenset[Point]] = []
    u1, u2, u3, u4 = a(0), a(1), a(2), a(3)

    def add_three_subspace(b1: int, b2: int, b3: int) -> None:
        vals = {
            b1: u1,
            b2: colf.add(u1, u2),
            b3: colf.add(u1, u3),
            b1 ^ b2: 0,
            b1 ^ b3: 0,
            b2 ^ b3: colf.add(colf.add(u2, u3), u4),
            b1 ^ b2 ^ b3: colf.add(u2, u3),
        }
        leftover_col.update(vals)
        extra.append(frozenset(pt(r, c) for r, c in vals.items()))

    for ff in maps:
        add_three_subspace(ff[1], ff[2], ff[4])

    if base == 3:
        add_three_subspace(1 << shift, 2 << shift, 4 << shift)
    elif base == 4:
        add_three_subspace(1 << shift, 2 << shift, 4 << shift)
        dep = tuple(sorted(e << shift for e in (8, 9, 10, 11)))
        y1, y2, y3, y4 = dep
        leftover_col.update({y1: u1, y2: 0, y3: 0, y4: 0})
        extra.append(frozenset(
            [pt(0, c) for c in first_leftovers] + [pt(y1, u1), pt(y2, 0), pt(y3, 0), pt(y4, 0)]
        ))
        for e in (12, 13, 14, 15):
            leftover_col[e << shift] = 0
    else:
        add_three_subspace(1 << shift, 2 << shift, 4 << shift)
        rest = sorted(e << shift for e in range(8, 32))
        groups = [rest[0:8], rest[8:16], rest[16:24]]
        basis_pool = [a(12), a(13), a(14), a(0)]
        for gi, group in enumerate(groups):
            w = first_leftovers[gi]
            targets = [c for c in basis_pool if c != w][:3]
            rows = [lay.row_vector(y) for y in group]
            kernel = left_nullspace(rows, lay.fld)[:3]
            values = [0] * 8
            for r in range(4):
                rhs = tuple(colf.to_vector(t)[r] for t in targets)
                sol = solve_linear(kernel, rhs, lay.fld)
                for j, bit in enumerate(sol):
                    values[j] |= bit << r
            pts = [pt(0, w)]
            for y, val in zip(group, values):
                leftover_col[y] = val
                pts.append(pt(y, val))
            extra.append(frozenset(pts))

    for x in lay.rows:
        lo = leftover_col.get(x, 0)
        spec = ("zero", 0) if lo == 0 else ("alpha", colf.dlog(lo))
        sets.extend(row_sets(lay, x, spec))
    return sets + extra


def _d4_k6_sets() -> Sets:
    """The pinned thirteen-set family for (q, k, d) = (2, 6, 4)."""
    lay = Layout(2, 6, 4)
    a, pt = lay.col.alpha_pow, lay.pt
    sets = [
        frozenset(pt(0, a(e)) for e in (3, 4, 5, 6)),
        frozenset(pt(0, a(e)) for e in (7, 8, 9, 10)),
        frozenset(pt(0, a(e)) for e in (14, 0, 1, 2)),
    ]
    for row in (1, 2, 3):
        sets.append(frozenset(pt(row, a(e)) for e in (4, 5, 6, 7, 8)))
        sets.append(frozenset(pt(row, a(e)) for e in (9, 10, 11, 12, 13)))
        sets.append(frozenset([pt(row, 0)] + [pt(row, a(e)) for e in (0, 1, 2, 3)]))
    sets.append(frozenset(
        [pt(0, a(11)), pt(0, a(12)), pt(0, a(13)),
         pt(1, a(14)), pt(2, a(14)), pt(3, a(14))]
    ))
    return sets


# ---------------------------------------------------------------------------
# d = 5 over F_2
# ---------------------------------------------------------------------------


def _line_group_rows(k: int) -> Sets:
    """Binary d = 5, k >= 7.  Rows carry five 6-sets and two leftovers
    each; leftovers are stitched over groups of four disjoint lines of
    F_2^{k-5} into 8-sets, with the parity-dependent remainder (a spare
    line or a 3-subspace) absorbing the first-row leftover."""
    lay = Layout(2, k, 5)
    a, pt = lay.col.alpha_pow, lay.pt
    m = k - 5
    u1, u2, u3, u4, u5 = (a(i) for i in range(5))

    sets = [
        frozenset(pt(0, a(1 + 5 * i + j)) for j in range(5)) for i in range(6)
    ]

    lines = [ff[1:4] for ff in binary_line_partition(m)]
    leftover_spec: dict[int, tuple] = {}
    extra: list[frozenset[Point]] = []

    n_groups = len(lines) // 4
    for g in range(n_groups):
        l1, l2, l3, l4 = lines[4 * g: 4 * g + 4]
        x1, x2, x12 = l1
        x3, x4, x34 = l2
        x5, x6, x56 = l3
        x7, x8, x78 = l4
        for r, spec in ((x1, ("zero", 0)), (x2, ("zero", 1)), (x12, ("alpha", 2)),
                        (x3, ("zero", 0)), (x4, ("zero", 1)), (x34, ("alpha", 2)),
                        (x5, ("zero", 0)), (x6, ("zero", 1)), (x56, ("alpha", 2)),
                        (x7, ("zero", 4)), (x8, ("zero", 4)), (x78, ("zero", 4))):
            leftover_spec[r] = spec
        extra.append(frozenset({
            pt(x1, 0), pt(x2, 0), pt(x12, u3), pt(x7, 0),
            pt(x1, u1), pt(x2, u2), pt(x12, u4), pt(x7, u5)}))
        extra.append(frozenset({
            pt(x3, 0), pt(x4, 0), pt(x34, u3), pt(x8, 0),
            pt(x3, u1), pt(x4, u2), pt(x34, u4), pt(x8, u5)}))
        extra.append(frozenset({
            pt(x5, 0), pt(x6, 0), pt(x56, u3), pt(x78, 0),
            pt(x5, u1), pt(x6, u2), pt(x56, u4), pt(x78, u5)}))

    if m % 2 == 0:
        y1, y2, y12 = lines[4 * n_groups]
        leftover_spec.update({y1: ("zero", 1), y2: ("zero", 2), y12: ("alpha", 3)})
        extra.append(frozenset({
            pt(0, u1), pt(y1, 0), pt(y1, u2), pt(y2, 0), pt(y2, u3),
            pt(y12, u4), pt(y12, u5)}))
    else:
        shift = m - 3
        z1, z2, z3 = 1 << shift, 2 << shift, 4 << shift
        leftover_spec.update({
            z1 ^ z2: ("zero", 1), z1 ^ z3: ("zero", 2), z2 ^ z3: ("alpha", 3),
            z1: ("zero", 0), z2: ("zero", 1), z3: ("zero", 2),
            z1 ^ z2 ^ z3: ("alpha", 3)})
        extra.append(frozenset({
            pt(0, u1), pt(z1 ^ z2, 0), pt(z1 ^ z2, u2), pt(z1 ^ z3, 0),
            pt(z1 ^ z3, u3), pt(z2 ^ z3, u4), pt(z2 ^ z3, u5)}))
        extra.append(frozenset({
            pt(z1, 0), pt(z1, u1), pt(z2, 0), pt(z2, u2), pt(z3, 0), pt(z3, u3),
            pt(z1 ^ z2 ^ z3, u4), pt(z1 ^ z2 ^ z3, u5)}))

    for x in lay.rows:
        sets.extend(row_sets(lay, x, leftover_spec[x]))
    return sets + extra


# ---------------------------------------------------------------------------
# d = 2^m - 1 over F_2 via the perfect-code ball partition
# ---------------------------------------------------------------------------


def _perfect_code_balls(k: int, d: int) -> Sets:
    """For d = 2^m - 1, each nonzero row splits into 2^d/(d+1) translated
    Hamming balls, every ball spanning the target."""
    lay = Layout(2, k, d)
    sets = basic_sets_from_Td(lay)
    balls = hamming_partition((d + 1).bit_length() - 1)
    for x in lay.rows:
        for ball in balls:
            sets.append(frozenset(lay.pt(x, word) for word in ball))
    return sets


# ---------------------------------------------------------------------------
# Consecutive powers, and the line-spread leftovers for q > 2
# ---------------------------------------------------------------------------


def _consecutive_powers(q: int, k: int, d: int) -> Sets:
    """The baseline: floor((q^d-1)/(d(q-1))) sets inside the target plus
    floor(q^d/(d+1)) sets per row; leftovers are not used."""
    lay = Layout(q, k, d)
    sets = basic_sets_from_Td(lay)
    for x in lay.rows:
        sets.extend(row_sets(lay, x))
    return sets


def _line_leftover_gap(q: int, k: int, d: int) -> str | None:
    """None when the line-spread leftover sets apply (for q > 2);
    otherwise the note naming what blocks them, empty when rows have no
    leftovers to stitch."""
    if q**d % (d + 1) == 0:
        return ""
    if d < 2:
        return "leftover enhancement needs d >= 2"
    if (q + 1) % (d + 2) != 0:
        return f"leftover enhancement needs d+2 | q+1 (q={q}, d={d})"
    if k == d or (k - d) % 2 != 0:
        return f"leftover enhancement needs even k-d (k-d={k - d})"
    return None


def _consecutive_powers_notes(q: int, k: int, d: int) -> list[str]:
    gap = _line_leftover_gap(q, k, d) if q > 2 else None
    return [gap] if gap else []


def _line_leftovers(q: int, k: int, d: int) -> Sets:
    """Baseline sets for q > 2, plus sets stitched from row leftovers along
    a line spread of the rows: each line's q+1 rows split into groups of
    d+2, and each group yields q^d mod (d+1) layered sets."""
    lay = Layout(q, k, d)
    colf, pt = lay.col, lay.pt
    t = q**d % (d + 1)
    sets = basic_sets_from_Td(lay)
    leftover_spec: dict[int, tuple] = {}
    extra: list[frozenset[Point]] = []
    target = canonical_target(q, k, d)
    amb = extension(lay.fld, k - d)

    for part in full_spread(q, k - d, 2):
        # row encodings are those of F_{q^(k-d)}, so a line's elements are rows
        line = {amb.from_vector(canonical_point(amb.to_vector(e), lay.fld))
                for e in part[1:]}
        line_rows = sorted(line, key=lay.row_vector)
        for gi in range(0, len(line_rows), d + 2):
            group = line_rows[gi: gi + d + 2]
            xs, tail = group[:d], group[d:]
            layer0 = [pt(x, colf.alpha_pow(j)) for j, x in enumerate(xs)]
            layer0 += [pt(x, 0) for x in tail]
            extra.append(frozenset(layer0))
            for j, x in enumerate(xs):
                leftover_spec[x] = ("alpha", j)
            for x in tail:
                leftover_spec[x] = ("zero", 0)
            if t >= 2:
                ws = _search_layer_values(lay, xs, tail, target)
                if ws is None:
                    raise RuntimeError(f"no layered leftover values for a line group of {(q, k, d)}")
                w1, w2 = ws
                for x in tail:
                    leftover_spec[x] = ("zero", colf.dlog(w1 if x == tail[0] else w2) + 1)
                for i in range(1, t):
                    layer = [pt(x, colf.mul(colf.alpha_pow(i), colf.alpha_pow(j)))
                             for j, x in enumerate(xs)]
                    layer.append(pt(tail[0], colf.mul(colf.alpha_pow(i), w1)))
                    layer.append(pt(tail[1], colf.mul(colf.alpha_pow(i), w2)))
                    extra.append(frozenset(layer))

    for x in lay.rows:
        sets.extend(row_sets(lay, x, leftover_spec.get(x)))
    return sets + extra


def _search_layer_values(lay: Layout, xs, tail, target):
    """Values for the two repeat rows of a layered leftover set, chosen so
    the scaled copies still span the target; the scan is deterministic."""
    colf = lay.col
    pool = [colf.alpha_pow(j) for j in range(min(colf.order - 1, 24))]
    probe_cols = [colf.mul(colf.alpha_pow(1), colf.alpha_pow(j)) for j in range(lay.d)]
    base = [lay.pt(x, c) for x, c in zip(xs, probe_cols)]
    for w1 in pool:
        for w2 in pool:
            cand = base + [
                lay.pt(tail[0], colf.mul(colf.alpha_pow(1), w1)),
                lay.pt(tail[1], colf.mul(colf.alpha_pow(1), w2)),
            ]
            if span_contains(cand, target, lay.fld):
                return w1, w2
    return None


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Construction:
    """One builder: its method tag, where it applies, the closed-form
    number of sets it gives there, and the builder itself.  `optimal`
    names the argument that proves the family maximum wherever the entry
    applies, or is None when there is none."""

    method: str
    applies: Callable[[int, int, int], bool]
    size: Callable[[int, int, int], int]
    build: Callable[[int, int, int], Sets]
    notes: Callable[[int, int, int], list[str]] = lambda q, k, d: []
    optimal: str | None = None


def _tight_size(q: int, k: int, d: int) -> int:
    return basic_count(q, d) + (q**d // (d + 1)) * num_points(q, k - d)


# Ordered: construct() takes the first entry that applies, and the last
# applies everywhere.  bound() reads its constructive lower bound here.
REGISTRY = (
    Construction(
        "whole-space", lambda q, k, d: d == k, _tight_size, _consecutive_powers,
        optimal="whole-space",
    ),
    Construction(
        "quintriple-rows",
        lambda q, k, d: q == 2 and d == 2,
        lambda q, k, d: (3 * 2 ** (k - 1) + 1) // 5,
        lambda q, k, d: _quintriple_rows(k),
    ),
    Construction(
        "three-subspace-rows",
        lambda q, k, d: q == 2 and d == 4,
        lambda q, k, d: 13 if k == 6 else (11 * 2 ** (k - 3) - 1) // 7,
        lambda q, k, d: _three_subspace_rows(k),
        optimal="three-subspace-rows",
    ),
    Construction(
        "line-group-rows",
        lambda q, k, d: q == 2 and d == 5 and k >= 7,
        lambda q, k, d: 21 * 2 ** (k - 7) + 1,
        lambda q, k, d: _line_group_rows(k),
    ),
    # d+1 = 2^m divides 2^d: rows leave no leftovers, so the balls reach
    # the consecutive-power count.
    Construction(
        "perfect-code-balls",
        lambda q, k, d: q == 2 and d >= 3 and d & (d + 1) == 0,
        _tight_size,
        lambda q, k, d: _perfect_code_balls(k, d),
        optimal="perfect-code",
    ),
    Construction(
        "consecutive-powers+line-leftovers",
        lambda q, k, d: q > 2 and _line_leftover_gap(q, k, d) is None,
        lambda q, k, d: _tight_size(q, k, d) + num_points(q, k - d) * (q**d % (d + 1)) // (d + 2),
        _line_leftovers,
        optimal="line-leftovers",
    ),
    Construction(
        "consecutive-powers", lambda q, k, d: True, _tight_size, _consecutive_powers,
        _consecutive_powers_notes,
    ),
)


def construction_for(q: int, k: int, d: int) -> Construction:
    """The registry entry that construct(q, k, d) builds."""
    prime_power(q)
    if not 1 <= d <= k:
        raise ValueError("need 1 <= d <= k")
    return next(c for c in REGISTRY if c.applies(q, k, d))


def construct(q: int, k: int, d: int) -> RecoveryFamily:
    """The family of the first registry entry that applies to (q, k, d)."""
    c = construction_for(q, k, d)
    return RecoveryFamily(
        q, k, d, canonical_target(q, k, d), c.build(q, k, d), c.method,
        c.size(q, k, d), c.notes(q, k, d),
    )
