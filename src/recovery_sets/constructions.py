"""Constructions of large families of pairwise disjoint recovery sets.

A recovery set for a d-subspace U of F_q^k is a set of projective points
whose span contains U.  All constructions here work against the canonical
target: U is spanned by the last d unit vectors, the complement W by the
first k - d, and a stored point is written (x | y) with x in W, y in U.
Families for an arbitrary target are obtained by conjugation.

The common skeleton: points inside U give floor((q^d-1)/(d(q-1))) sets of
d consecutive alpha powers; every other row of the layout gives
floor(q^d/(d+1)) sets, each either d+1 consecutive powers or the zero
column plus d consecutive powers.  What remains per row (the leftovers,
q^d mod (d+1) columns) is stitched into cross-row sets; the stitching
patterns depend on (q, d) and are what the specialized builders below
implement.  A stitching builder gives a pattern of (row, column) cells
on a model (at d = 2, a `_base_pattern`) and its blocks, echelon bases
of rows, a ladder's residual included; `_carried` maps the pattern into
every block.  Every builder hands `_stitched` its sets as cells, those
inside U as row-0 cells, and `_stitched` reads every row's leftover run
from them, partitions the rest of each row, and is the one place a cell
becomes a packed point.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, NamedTuple, Sequence

from .field_core import (
    Echelon,
    Subspace,
    extension,
    field,
    pack,
    prime_power,
    rref,
    unpack,
)
from .geometry import (
    Layout,
    binary_line_partition,
    canonical_point,
    canonical_target,
    full_spread,
    lifted_ladder,
    num_points,
)

Sets = list[tuple[int, ...]]
Cell = tuple[int, int]

# ---------------------------------------------------------------------------
# Family containers
# ---------------------------------------------------------------------------


class RecoveryFamily(NamedTuple):
    """Recovery sets for `target`; a point is the int `field_core.pack`
    makes of its canonical representative, the one form the builders, the
    verifier, the oracle and the payload share.  Each set is a tuple of
    distinct points in ascending order: packed points sort as their
    coordinates do, and a tuple of three points takes a third of the
    memory of a frozenset."""

    q: int
    k: int
    d: int
    target: Subspace
    sets: list[tuple[int, ...]]
    method: str
    formula_size: int | None = None
    notes: Sequence[str] = ()


def conjugate_family(family: RecoveryFamily, new_target: Subspace) -> RecoveryFamily:
    """Transport a canonical-target family onto an arbitrary target subspace."""
    q, k, d = family.q, family.k, family.d
    if new_target.ambient != k or new_target.dim != d:
        raise ValueError("target has wrong dimensions")
    fld = field(q)
    ech = Echelon(q, (pack(row, q) for row in new_target.basis))
    units = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    rows = [u for u in units if ech.add(pack(u, q))] + list(new_target.basis)

    def apply(v: int) -> int:
        acc = [0] * k
        for c, row in zip(unpack(v, q, k), rows):
            if c:
                acc = [fld.add(a, fld.mul(c, b)) for a, b in zip(acc, row)]
        return pack(canonical_point(tuple(acc), fld), q)

    # apply is a bijection of the points, so distinct points stay distinct
    sets = [tuple(sorted(map(apply, s))) for s in family.sets]
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


def basic_sets_from_Td(lay: Layout) -> list[list[Cell]]:
    """Sets of d consecutive alpha powers inside the target space itself:
    floor((q^d-1)/(d(q-1))) recovery sets of row-0 cells.
    """
    a, d = lay.col.alpha_pow, lay.d
    return [[(0, a(i * d + j)) for j in range(d)] for i in range(basic_count(lay.q, d))]


def _row_layout(lay: Layout, leftover) -> list[list[int]]:
    """Partition of the q^d columns of one row into spanning sets, as
    lists of column values.

    Columns are 0 plus alpha^e for e on the cycle 0..q^d-2 (consecutive
    powers wrap around).  `leftover` is the set of the t = q^d mod (d+1)
    columns the sets leave out: a run alpha^e, ..., alpha^(e+t-1), or the
    zero column at the head of a run alpha^e, ..., alpha^(e+t-2), where a
    lone zero column starts the sets at alpha^0.  Empty means the run of
    the last t powers.  The sets take the powers that follow the run, the
    first of them also the zero column when the run leaves it free.
    """
    q, d, col = lay.q, lay.d, lay.col
    N = q**d - 1
    M, t = divmod(N + 1, d + 1)
    lo = set(leftover)
    exps = {col.log[c] for c in lo if 0 < c <= N}
    heads = [e for e in exps if (e - 1) % N not in exps]
    if lo and (len(lo) != t or len(exps) + (0 in lo) != t or len(heads) > 1):
        raise ValueError(f"leftover {sorted(lo)} is not a run of {t} columns")
    nxt = heads[0] + len(exps) if heads else 0
    cols = [] if 0 in lo else [0]
    cols += [col.alpha_pow(nxt + i) for i in range(M * (d + 1) - len(cols))]
    return [cols[i: i + d + 1] for i in range(0, len(cols), d + 1)]


def _stitched(lay: Layout, sets: list[list[Cell]], spare: list[Cell] = ()) -> Sets:
    """Every row's sets, then `sets`, lists of (row, column) cells, packed
    in the order given; cells on row 0 are points of the target itself.

    A row leaves over the columns `sets` take from it plus its `spare`
    cells, which no set uses; `_row_layout` partitions the rest.  Rows
    with the same leftover share one partition, its columns packed and
    sorted once; a row's sets are its packed row OR each packed column,
    ascending as the columns are, since the row sits above the column
    slots.  This is the one place a cell becomes a packed point.
    """
    row_bits, col_bits = lay.row_bits, lay.col_bits
    left: dict[int, list[int]] = {}
    for r, c in itertools.chain(spare, *sets):
        left.setdefault(r, []).append(c)
    layouts: dict[frozenset[int], list[list[int]]] = {}
    out: Sets = []
    for x in lay.rows:
        lo = frozenset(left.get(x, ()))
        cols = layouts.get(lo)
        if cols is None:
            cols = layouts[lo] = [sorted(col_bits[c] for c in cs) for cs in _row_layout(lay, lo)]
        out.extend([tuple(map(row_bits[x].__or__, cs)) for cs in cols])
    return out + [tuple(sorted(lay.pt(r, c) for r, c in s)) for s in sets]


def _carried(lay: Layout, blocks, pattern: list[list[Cell]]) -> list[list[Cell]]:
    """Every block's copy of `pattern`, sets of (row, column) cells on a
    model whose rows are canonical vectors of F_q^j, encoded as `Layout`
    rows are.  A block is j rows b_0..b_(j-1) in echelon form (any rows at
    q = 2); model row r goes to sum r_i b_i, row 0 to row 0, and the
    column stays.  The map is linear and fixes the target, so a recovery
    set stays one; where it is injective on the rows the pattern uses,
    disjoint sets stay disjoint; and echelon rows send a canonical row to
    a canonical row, so no column needs rescaling."""
    q = lay.q
    amb = extension(lay.fld, lay.k - lay.d) if q > 2 else None

    def digits(r: int) -> list[tuple[int, int]]:  # (i, r_i) for each nonzero r_i
        return [(i, r // q**i % q) for i in range(r.bit_length()) if r // q**i % q]

    def image(basis, ds) -> int:
        v = 0
        for i, c in ds:
            v = v ^ basis[i] if amb is None else amb.add(v, amb.mul(c, basis[i]))
        return v
    model = [[(digits(r), c) for r, c in s] for s in pattern]
    return [[(image(basis, ds), c) for ds, c in s] for basis in blocks for s in model]


# ---------------------------------------------------------------------------
# Quintriple patterns of F_2^m (the d = 2 leftover structure)
# ---------------------------------------------------------------------------


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
def _base_pattern(m: int) -> tuple[tuple[tuple[Cell, ...], ...], tuple[Cell, ...]]:
    """The stitched sets and spare cells of F_2^m, 2 <= m <= 7, on model
    rows, the vectors of F_2^m, and the columns u, v, w = alpha^0,
    alpha^1, alpha^2 of F_4.  A quintriple x1 = x2+x3 = x4+x5 is the 5-set
    (x1, 0), (x2, u), (x3, w), (x4, v), (x5, w), which spans (0, u) and
    (0, v), the target.  What the quintriples leave gives one more set: a
    spare line x1 + x2 = x3 (m = 2, 6) the 4-set (0, v), (x1, 0), (x2, 0),
    (x3, u), or a zero-sum four y1..y4 (m = 3, 5, 7) the 5-set (0, v),
    (y1, u), (y2, 0), (y3, 0), (y4, 0); each vector left after that is a
    spare cell (x, 0).  The quintriples are alpha-power orbits (m = 4..6)
    and the pinned search (m = 7)."""
    # m = 3 and m = 7 leave over the seven vectors of F_2^3
    quints, line, four, spare = [], (), (1, 2, 4, 7), (3, 5, 6)
    if m == 2:
        line, four, spare = (1, 2, 3), (), ()
    elif m == 4:
        f = extension(2, 4)
        quints = [_oriented(_shifted(f, (0, 1, 3, 4, 7), i)) for i in (0, 5, 10)]
        four, spare = (), ()
    elif m == 5:
        f = extension(2, 5)
        quints = [_oriented(_shifted(f, (5, 0, 2, 7, 10), i)) for i in (0, 1, 12, 13)]
        quints.append(_oriented(_shifted(f, (16, 4, 27, 29, 30), 0)))
        four = tuple(sorted(f.alpha_pow(e) for e in (21, 25, 26, 28)))
        spare = tuple(sorted(f.alpha_pow(e) for e in (9, 24)))
    elif m == 6:
        f = extension(2, 6)
        s1 = (0, 1, 6, 13, 35)
        for shift in (0, 21, 42):
            for base in (s1, tuple(e + 2 for e in s1), tuple(e + 4 for e in s1), (7, 9, 12, 19, 41)):
                quints.append(_oriented(_shifted(f, base, shift)))
        line, four, spare = tuple(sorted(f.alpha_pow(e) for e in (11, 32, 53))), (), ()
    elif m == 7:
        quints = _M7_QUINTRIPLES
    elif m != 3:
        raise ValueError(f"no base pattern for m={m}")
    u, v, w = map(extension(2, 2).alpha_pow, range(3))
    sets = [((x1, 0), (x2, u), (x3, w), (x4, v), (x5, w)) for x1, x2, x3, x4, x5 in quints]
    if line:
        x1, x2, x3 = line
        sets.append(((0, v), (x1, 0), (x2, 0), (x3, u)))
    if four:
        y1, y2, y3, y4 = four
        sets.append(((0, v), (y1, u), (y2, 0), (y3, 0), (y4, 0)))
    return tuple(sets), tuple((x, 0) for x in spare)


# Deterministic DFS output of the m = 7 search in tests/quintriple_search.py,
# pinned so the m = 7 base case costs nothing at build time; the tests re-run
# the search and compare.
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


# ---------------------------------------------------------------------------
# d = 2 over F_2
# ---------------------------------------------------------------------------


def _quintriple_rows(k: int) -> Sets:
    """Binary d = 2, k >= 4: one pair inside the target, one 3-set per
    other row, and one 5-set per quintriple of row leftovers, with the
    remainder classes contributing one final set.  The m = 4 base pattern
    is carried onto every part of the 4-subspace ladder of F_2^(k-2), and
    the residual block takes the base pattern of its size, 2..7, with its
    spare cells."""
    lay = Layout(2, k, 2)
    a = lay.col.alpha_pow
    bases, residual = lifted_ladder(k - 2, 4, 7)
    last, spare = _base_pattern(len(residual))
    stitched = _carried(lay, bases, _base_pattern(4)[0]) + _carried(lay, [residual], last)
    return _stitched(lay, [[(0, a(0)), (0, a(2))]] + stitched, _carried(lay, [residual], [spare])[0])


# ---------------------------------------------------------------------------
# d = 4 over F_2
# ---------------------------------------------------------------------------


def _three_subspace_rows(k: int) -> Sets:
    """Binary d = 4, k >= 6; a pinned thirteen-set family for k = 6.

    Rows are tiled with three 5-sets each; the one leftover per row is
    positioned so that, over each 3-subspace of rows, the seven leftovers
    recover the target through the (3,4) pattern.  A terminal block F_2^4
    of the 3-subspace ladder spends the three first-row leftovers in one
    set with four of its rows; a terminal F_2^5 spends them in three fixed
    9-sets, one per coset of a 3-subspace.
    """
    lay = Layout(2, k, 4)
    a, add = lay.col.alpha_pow, lay.col.add
    if k == 6:
        cross = [(0, a(11)), (0, a(12)), (0, a(13)), (1, a(14)), (2, a(14)), (3, a(14))]
        return _stitched(lay, [[(0, a(e)) for e in range(s, s + 4)] for s in (3, 7, 14)] + [cross])
    m = k - 4

    first_leftovers = [a(12), a(13), a(14)]

    # disjoint 3-subspaces laddered down to F_2^{3,4,5} for m = 0, 1, 2 mod 3
    bases, residual = lifted_ladder(m, 3, {0: 3, 1: 4, 2: 5}[m % 3])
    u1, u2, u3, u4 = a(0), a(1), a(2), a(3)
    # the (3,4) pattern on the rows of F_2^3; the residual block takes it too
    fano = [(1, u1), (2, add(u1, u2)), (4, add(u1, u3)), (3, 0), (5, 0),
            (6, add(add(u2, u3), u4)), (7, add(u2, u3))]
    last, spare = [fano], []
    if len(residual) == 4:
        last.append([(0, c) for c in first_leftovers] + [(8, u1), (9, 0), (10, 0), (11, 0)])
        spare = [(y, 0) for y in (12, 13, 14, 15)]
    elif len(residual) == 5:
        # Group gi is the coset y_j = 8 + 8 gi + j, j < 8, of a 3-subspace,
        # so y0+y1+y4+y5, y0+y2+y4+y6 and y0+y1+y2+y3 vanish.  Rows y0, y1,
        # y2 take the columns v_j = alpha^e_j (alpha a root of x^4+x+1) and
        # the other rows column 0, so the set spans (0, c) for c = v0+v1,
        # v0+v2 and v0+v1+v2: these are the two first-row leftovers other
        # than w and u1 = alpha^0, which with (0, w) span the target.
        exponents = ((8, 6, 2), (10, 11, 5), (4, 11, 1))
        for gi, (w, exps) in enumerate(zip(first_leftovers, exponents)):
            group = range(8 + 8 * gi, 16 + 8 * gi)
            last.append([(0, w)] + [(y, a(e)) for y, e in zip(group, exps)]
                        + [(y, 0) for y in group[3:]])
    stitched = _carried(lay, bases, [fano]) + _carried(lay, [residual], last)
    return _stitched(lay, basic_sets_from_Td(lay) + stitched, _carried(lay, [residual], [spare])[0])


# ---------------------------------------------------------------------------
# d = 5 over F_2
# ---------------------------------------------------------------------------


def _line_group_rows(k: int) -> Sets:
    """Binary d = 5, k >= 7.  Rows carry five 6-sets and two leftovers
    each; leftovers are stitched over groups of four disjoint lines of
    F_2^{k-5} into 8-sets, with the parity-dependent remainder (a spare
    line or a 3-subspace) absorbing the first-row leftover."""
    lay = Layout(2, k, 5)
    a = lay.col.alpha_pow
    m = k - 5
    u1, u2, u3, u4, u5 = (a(i) for i in range(5))
    inside = [[(0, a(1 + 5 * i + j)) for j in range(5)] for i in range(6)]

    # A group of four lines is a block of their eight basis vectors: on the
    # model F_2^8, line i < 3 has rows 1, 2, 3 times 4^i and takes one row
    # z of the fourth line, whose rows are 64, 128 and 192.
    group = [[(x, 0), (x, u1), (2 * x, 0), (2 * x, u2), (3 * x, u3), (3 * x, u4), (z, 0), (z, u5)]
             for x, z in ((1, 64), (4, 128), (16, 192))]
    lines, residual = binary_line_partition(m)
    blocks = [sum(lines[g: g + 4], ()) for g in range(0, len(lines) - 3, 4)]
    if m % 2 == 0:  # the spare line, rows 1, 2, 3
        tail, last = lines[-1], [[(0, u1), (1, 0), (1, u2), (2, 0), (2, u3), (3, u4), (3, u5)]]
    else:  # the residual 3-subspace on the top coordinates
        tail = residual
        last = [[(0, u1), (3, 0), (3, u2), (5, 0), (5, u3), (6, u4), (6, u5)],
                [(1, 0), (1, u1), (2, 0), (2, u2), (4, 0), (4, u3), (7, u4), (7, u5)]]
    return _stitched(lay, inside + _carried(lay, blocks, group) + _carried(lay, [tail], last))


# ---------------------------------------------------------------------------
# Consecutive powers, and the line-spread leftovers for q > 2
# ---------------------------------------------------------------------------


def _consecutive_powers(q: int, k: int, d: int) -> Sets:
    """The baseline: floor((q^d-1)/(d(q-1))) sets inside the target plus
    floor(q^d/(d+1)) sets per row; leftovers are not used."""
    lay = Layout(q, k, d)
    return _stitched(lay, basic_sets_from_Td(lay))


def _line_leftover_gap(q: int, k: int, d: int) -> str | None:
    """None when the line-spread leftover sets apply (never at q = 2);
    otherwise the note naming what blocks them, empty when there are no
    leftovers to stitch: no rows (d = k), or none left on a row."""
    if k == d or q**d % (d + 1) == 0:
        return ""
    if (q + 1) % (d + 2) != 0:
        return f"leftover enhancement needs d+2 | q+1 (q={q}, d={d})"
    if (k - d) % 2 != 0:
        return f"leftover enhancement needs even k-d (k-d={k - d})"
    return None


def _consecutive_powers_notes(q: int, k: int, d: int) -> list[str]:
    gap = _line_leftover_gap(q, k, d) if q > 2 else None
    return [gap] if gap else []


def _line_leftovers(q: int, k: int, d: int) -> Sets:
    """Baseline sets for q > 2, plus sets stitched from row leftovers along
    a line spread of the rows: each line's q+1 rows split into groups of
    d+2, and each group yields q^d mod (d+1) layered sets.  At d = 1 a
    group is three collinear rows, c1*x1 + c2*x2 + c3*x3 = 0 with each c
    nonzero, so {(x1 | alpha^0), (x2 | 0), (x3 | 0)} spans (0 | c1), the
    target; each row leaves one column, a run `_row_layout` accepts."""
    lay, model = Layout(q, k, d), Layout(q, d + 2, d)
    a, mul = lay.col.alpha_pow, lay.col.mul
    t = q**d % (d + 1)
    # the groups and their layered sets, found once on the q+1 rows of the
    # model, the points of PG(1,q)
    rows = model.rows
    pattern: list[list[Cell]] = []
    for gi in range(0, q + 1, d + 2):
        xs, tail = rows[gi: gi + d], rows[gi + d: gi + d + 2]
        pattern.append([(x, a(j)) for j, x in enumerate(xs)] + [(x, 0) for x in tail])
        if t >= 2:
            ws = _search_layer_values(model, xs, tail)
            for i in range(1, t):
                pattern.append([(x, a(i + j)) for j, x in enumerate(xs)]
                               + [(x, mul(a(i), w)) for x, w in zip(tail, ws)])
    # line encodings are those of F_{q^(k-d)}, as rows are
    amb = extension(lay.fld, k - d)
    blocks = [tuple(map(amb.from_vector, rref(map(amb.to_vector, line), lay.fld)))
              for line in full_spread(q, k - d, 2)]
    return _stitched(lay, basic_sets_from_Td(lay) + _carried(lay, blocks, pattern))


def _search_layer_values(lay: Layout, xs, tail) -> tuple[int, int]:
    """Values for the two repeat rows of a layered leftover set, chosen so
    the scaled copies still span the target; the scan is deterministic,
    and RuntimeError says that no pair was found."""
    colf, a = lay.col, lay.col.alpha_pow
    target = [pack(row, lay.q) for row in canonical_target(lay.q, lay.k, lay.d).basis]
    pool = [a(j) for j in range(min(colf.order - 1, 24))]
    base = [lay.pt(x, a(1 + j)) for j, x in enumerate(xs)]
    for w1 in pool:
        for w2 in pool:
            cand = base + [lay.pt(tail[0], colf.mul(a(1), w1)), lay.pt(tail[1], colf.mul(a(1), w2))]
            if not Echelon(lay.q).reduce(cand, target):
                return w1, w2
    raise RuntimeError(f"no layered leftover values for a line group of (q, d) = {(lay.q, lay.d)}")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class Construction(NamedTuple):
    """One builder: its method tag, where it applies, the closed-form
    number of sets it gives there, and the builder itself."""

    method: str
    applies: Callable[[int, int, int], bool]
    size: Callable[[int, int, int], int]
    build: Callable[[int, int, int], Sets]
    notes: Callable[[int, int, int], list[str]] = lambda q, k, d: []


def _tight_size(q: int, k: int, d: int) -> int:
    return basic_count(q, d) + (q**d // (d + 1)) * num_points(q, k - d)


# Ordered: construct() takes the first entry that applies, and the last
# applies everywhere.  bound() reads its constructive lower bound here.
# Every entry but the last applies only where its size is greater than
# the consecutive-power count `_tight_size`, so none relabels that family.
REGISTRY = (
    Construction(
        "quintriple-rows",
        lambda q, k, d: q == 2 and d == 2 and k >= 4,
        lambda q, k, d: (3 * 2 ** (k - 1) + 1) // 5,
        lambda q, k, d: _quintriple_rows(k),
    ),
    Construction(
        "three-subspace-rows",
        lambda q, k, d: q == 2 and d == 4 and k >= 6,
        lambda q, k, d: 13 if k == 6 else (11 * 2 ** (k - 3) - 1) // 7,
        lambda q, k, d: _three_subspace_rows(k),
    ),
    Construction(
        "line-group-rows",
        lambda q, k, d: q == 2 and d == 5 and k >= 7,
        lambda q, k, d: 21 * 2 ** (k - 7) + 1,
        lambda q, k, d: _line_group_rows(k),
    ),
    Construction(
        "consecutive-powers+line-leftovers",
        lambda q, k, d: _line_leftover_gap(q, k, d) is None,
        lambda q, k, d: _tight_size(q, k, d) + num_points(q, k - d) * (q**d % (d + 1)) // (d + 2),
        _line_leftovers,
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
