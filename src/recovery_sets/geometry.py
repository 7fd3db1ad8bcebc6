"""Projective points, the stored-server array, and vector-space partitions.

Points of PG(k-1,q) are canonical representatives of 1-subspaces of F_q^k:
vectors whose first nonzero coordinate is 1, as coordinate tuples here and
as the ints of `field_core.pack` in a family.  The Layout array lays all
points out by rows (the complement-space part) and columns (0 followed by
the consecutive powers of a primitive alpha of the column field F_{q^d});
row 0 carries the points inside the target space.

Spreads and partial spreads of F_q^n come in two flavours used by the
recovery-set constructions: the multiplicative coset spread (t | n) and
the lifted matrix-code partial spread ([I_t | M_a] for a ranging over
F_{q^{n-t}}).  Each part is returned as a tuple of its t basis vectors,
encoded like field elements; basis vector i is the image of x^i under an
F_q-linear bijection from F_{q^t}, so that a pattern found once on a model
is mapped into every part by `constructions._carried`.
"""

from __future__ import annotations

from itertools import product

from .field_core import (
    MAX_FIELD_ORDER,
    Field,
    Subspace,
    Vector,
    extension,
    field,
    pack,
    slot_bits,
)

Point = tuple[int, ...]


def canonical_point(vec: Vector, fld: Field) -> Point:
    """Scale a nonzero vector so its first nonzero coordinate is 1."""
    for c in vec:
        if c:
            if c == 1:
                return tuple(vec)
            inv = fld.inv(c)
            return tuple(fld.mul(inv, x) for x in vec)
    raise ValueError("zero vector has no projective representative")


def num_points(q: int, k: int) -> int:
    return (q**k - 1) // (q - 1)


def enumerate_points(q: int, k: int) -> list[Point]:
    """All (q^k-1)/(q-1) canonical points, in lexicographic order."""
    if k < 1:
        raise ValueError("dimension must be >= 1")
    count = num_points(q, k)
    if count > MAX_FIELD_ORDER:
        raise ValueError(f"{count} points exceed the ceiling {MAX_FIELD_ORDER}")
    pts = []
    for pivot in reversed(range(k)):  # more leading zeros sort first
        for tail in product(range(q), repeat=k - pivot - 1):
            pts.append((0,) * pivot + (1,) + tail)
    assert len(pts) == count
    return pts


def _packed_table(q: int, n: int, shift: int) -> list[int]:
    """`pack` of every vector of F_q^n, shifted up by `shift` bits, indexed
    by the vector's encoding (base-q digits, first coordinate lowest)."""
    bits, table = slot_bits(q), [0]
    for sh in reversed(range(shift, shift + n * bits, bits)):  # index digit i, from slot n-1-i
        table = [v | s for s in [pack((c,), q) << sh for c in range(q)] for v in table]
    return table


def canonical_target(q: int, k: int, d: int) -> Subspace:
    """The target every builder works against, row 0 of the Layout: the
    span of the last d unit vectors of F_q^k."""
    rows = tuple(
        tuple(1 if j == k - d + i else 0 for j in range(k)) for i in range(d)
    )
    return Subspace(k, rows)


class Layout:
    """The array every stored point sits in, for parameters (q, k, d).

    Point (x | y) sits at row x, its part in the complement of the
    canonical target, and column y, an element of the column field
    F_{q^d} (columns are listed as 0 followed by alpha^0, alpha^1, ...).
    Rows are integers encoded like field elements: the base-q digits are
    the coordinates, first coordinate lowest.  `rows` holds the rows that
    carry points: every nonzero row for q = 2, the canonical points of
    PG(k-d-1,q) in the lexicographic order of enumerate_points for q > 2.
    Row 0 is the target itself; its nonzero columns are the points of U.

    A point is the int `field_core.pack` makes of it: `row_bits` packs
    each row, shifted up past the d column slots, and `col_bits` each
    column.  A row of `rows` has leading coordinate 1, so row_bits[x] |
    col_bits[y] is canonical; a point of row 0 is its column scaled.
    """

    def __init__(self, q: int, k: int, d: int):
        if not 1 <= d <= k:
            raise ValueError(f"need 1 <= d <= k, got d={d}, k={k}")
        self.q, self.k, self.d = q, k, d
        self.fld = field(q)
        self.col = extension(self.fld, d)
        m = k - d
        self.row_bits = _packed_table(q, m, slot_bits(q) * d)
        self.col_bits = _packed_table(q, d, 0)
        if q == 2:
            self.rows: range | list[int] = range(1, 1 << m)
        else:
            # tails[n]: the encodings of F_q^n in lexicographic order of the
            # coordinates; a row is 1 at digit p, then a tail above it
            tails = [[0]]
            for _ in range(m - 1):
                tails.append([c + q * t for c in range(q) for t in tails[-1]])
            self.rows = [q**p + q ** (p + 1) * t for p in reversed(range(m)) for t in tails[m - p - 1]]

    def pt(self, row: int, col: int) -> int:
        """The packed point at (row, col); `row` is 0 or one of `rows`."""
        if row:
            return self.row_bits[row] | self.col_bits[col]
        # row 0 holds the points of the target: columns scaled to canonical
        return pack(canonical_point(self.col.to_vector(col), self.fld), self.q)


# ---------------------------------------------------------------------------
# Spreads and partial spreads
# ---------------------------------------------------------------------------


def full_spread(q: int, n: int, t: int) -> list[tuple[int, ...]]:
    """Partition of the nonzero vectors of F_q^n into (q^n-1)/(q^t-1)
    pairwise disjoint t-subspaces, via multiplicative cosets of the
    subfield F_{q^t}: part i is alpha^i times the subfield, with basis
    vector j the image alpha^i * alpha^(j*r) = alpha^(i + j*r) of x^j."""
    if t < 1 or n % t != 0:
        raise ValueError(f"{t} does not divide {n}")
    amb = extension(field(q), n)
    r = (q**n - 1) // (q**t - 1)
    return [tuple(amb.alpha_pow(i + j * r) for j in range(t)) for i in range(r)]


def lifted_partial_spread(q: int, n: int, t: int) -> list[tuple[int, ...]]:
    """q^{n-t} pairwise disjoint t-subspaces spanned by [I_t | M_a], where
    row i of M_a is the F_q-vector of a*gamma^(i-1) for a primitive gamma
    of F_{q^{n-t}}; distinct a give matrices whose difference has full
    rank, so the lifted subspaces meet only in zero.  They leave out the
    (n-t)-subspace of vectors whose t leading coordinates vanish.
    Returns each part's basis, the rows of [I_t | M_a], one per a in order."""
    if t < 1 or t > n - t:
        raise ValueError(f"lifting needs t <= n - t, got t={t}, n={n}")
    ext = extension(field(q), n - t)
    qt = q**t
    return [tuple(q**i + ext.mul(a, ext.alpha_pow(i)) * qt for i in range(t))
            for a in range(ext.order)]


def lifted_ladder(n: int, t: int, stop: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Binary lifted partial spreads of t-subspaces peeled off F_2^n until
    at most `stop` dimensions are left.  Each level is placed on the
    coordinates the levels below it leave out, so the parts of all levels
    are pairwise disjoint; what remains is the subspace on the top
    coordinates.  Returns every part's basis, shifted into F_2^n, and the
    residual's basis, the unit vectors of those top coordinates."""
    bases: list[tuple[int, ...]] = []
    shift = 0
    while n - shift > stop:
        bases += [tuple(e << shift for e in b) for b in lifted_partial_spread(2, n - shift, t)]
        shift += t
    return bases, tuple(1 << i for i in range(shift, n))


def binary_line_partition(n: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """The bases of 2-subspaces (lines) of F_2^n and the basis of what
    they leave out, as `lifted_ladder` returns them.  Even n: the full
    coset spread, which partitions F_2^n minus zero, and no residual.  Odd
    n >= 3: lifted partial spreads peeled until the 3-subspace on the top
    coordinates remains, the residual."""
    if n < 2:
        raise ValueError("need n >= 2")
    if n % 2 == 0:
        return full_spread(2, n, 2), ()
    return lifted_ladder(n, 2, 3)


# ---------------------------------------------------------------------------
# Perfect binary codes
# ---------------------------------------------------------------------------


# hamming_partition stays for perfbench/tracer.py until ROADMAP item 1 step B
def hamming_partition(m: int) -> list[frozenset[int]]:
    """The radius-1 balls around the codewords of the length-(2^m - 1)
    Hamming code, ordered by codeword; together they partition F_2^n.

    Words are integer bitmasks over the n = 2^m - 1 positions; position j
    carries syndrome j + 1, so the parity-check matrix columns are all
    nonzero m-bit values in order.  The code is spanned by the systematic
    generators: for every syndrome s that is not a power of two, bit s - 1
    plus the parity bits 2^r - 1 for each bit r set in s.
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if m > 4:
        raise ValueError("ball partition materialization is capped at m = 4")
    n = (1 << m) - 1
    codewords = [0]
    for s in range(3, n + 1):
        if s & (s - 1):
            g = 1 << (s - 1)
            for r in range(m):
                if s >> r & 1:
                    g |= 1 << ((1 << r) - 1)
            codewords += [c ^ g for c in codewords]
    return [frozenset([c] + [c ^ (1 << j) for j in range(n)]) for c in sorted(codewords)]
