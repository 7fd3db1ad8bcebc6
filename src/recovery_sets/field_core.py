"""Exact arithmetic for small finite fields and linear algebra over them.

A field F_q with q = p^e is built on the prime field F_p, and an extension
F_{q^n} can be built on top of any such field.  Elements are plain
integers: an element of F_{q^n} is encoded as sum(c_i * q**i) where
(c_0, ..., c_{n-1}) are its coordinates over F_q in the polynomial basis,
constant term first.  For q = 2 the encoding of a vector is therefore its
bitmask and addition is XOR.

A prime field computes with Python's modular arithmetic; its alpha is the
smallest primitive root.  An extension is table driven: it stores
antilog[i] = alpha**i for alpha the class of x.  Building the tables
doubles as a primitivity proof of the modulus: the powers of x must
enumerate all q^n - 1 nonzero elements before returning to 1.

`Echelon` is the one span kernel of the library: the builders (through
`span_contains`), the verifier and the oracle all ask it whether a set of
vectors spans a subspace.  It works on vectors in the form `pack` gives:
the coordinate bitmask for q = 2, the coordinate tuple for q > 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

Vector = tuple[int, ...]

# Trial division gives up once the candidate divisor passes this ceiling;
# every instance in scope has q^n - 1 within comfortable 64-bit range.
DEFAULT_FACTOR_CEILING = 1 << 20
MAX_FIELD_ORDER = 1 << 24


def factorize(n: int) -> list[int]:
    """Distinct prime factors of n, by trial division.

    Raises ValueError if a divisor beyond DEFAULT_FACTOR_CEILING would be
    needed while a composite cofactor might remain.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    primes = []
    f = 2
    while f * f <= n:
        if f > DEFAULT_FACTOR_CEILING:
            raise ValueError(f"factorization of {n} exceeds ceiling {DEFAULT_FACTOR_CEILING}")
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def prime_power(q: int) -> tuple[int, int]:
    """Split q into (p, e) with p prime and q = p^e, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    primes = factorize(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = primes[0]
    e = 0
    while q > 1:
        q //= p
        e += 1
    return p, e


class PrimeField:
    """F_p with elements 0..p-1; alpha is the smallest primitive root."""

    def __init__(self, p: int):
        if factorize(p) != [p]:
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.e = 1
        self.n = 1
        self.order = p
        for g in range(1, p):
            if all(pow(g, (p - 1) // r, p) != 1 for r in factorize(p - 1)) if p > 2 else g == 1:
                self.alpha = g
                break
        # x - alpha, stored constant term first
        self.modulus = ((p - self.alpha) % p, 1)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def elements(self) -> range:
        return range(self.p)

    def __repr__(self):
        return f"PrimeField({self.p})"


class ExtField:
    """F_{q^n} presented over a base field F_q by the primitive modulus
    `find_primitive_poly` picks.

    The modulus is a monic degree-n polynomial over the base, given as a
    coefficient tuple of length n+1, constant term first.  alpha is the
    class of x; antilog[i] = alpha**i enumerates every nonzero element.
    """

    def __init__(self, base, n: int):
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        self.base = base
        self.n = n
        self.q = base.order
        self.char = base.char
        self.order = base.order**n
        if self.order > MAX_FIELD_ORDER:
            raise ValueError(f"field order {self.order} exceeds supported ceiling")
        self.modulus = find_primitive_poly(base, n)
        self._build_tables()

    def _build_tables(self):
        base, n, q = self.base, self.n, self.q
        size = self.order - 1
        antilog = [0] * size
        log = [-1] * self.order
        digits = [0] * n
        digits[0] = 1
        mod = self.modulus
        for i in range(size):
            enc = self._encode(digits)
            if log[enc] != -1 or (enc == 1 and i > 0):
                raise ValueError(f"modulus {mod} is not primitive over order-{q} base")
            antilog[i] = enc
            log[enc] = i
            # multiply by x and reduce: carry is the would-be degree-n coefficient
            carry = digits[-1]
            shifted = [0] + digits[:-1]
            if carry:
                digits = [base.sub(shifted[j], base.mul(carry, mod[j])) for j in range(n)]
            else:
                digits = shifted
        if self._encode(digits) != 1:
            raise ValueError(f"modulus {mod} is not primitive over order-{q} base")
        self.antilog = tuple(antilog)
        self.log = tuple(log)
        self.alpha = self.antilog[1 % size] if size > 1 else self.antilog[0]

    def _encode(self, digits: Sequence[int]) -> int:
        enc = 0
        for c in reversed(digits):
            enc = enc * self.q + c
        return enc

    def to_vector(self, a: int) -> Vector:
        q = self.q
        out = []
        for _ in range(self.n):
            out.append(a % q)
            a //= q
        return tuple(out)

    def from_vector(self, coords: Sequence[int]) -> int:
        if len(coords) != self.n:
            raise ValueError("coordinate length mismatch")
        return self._encode(coords)

    def add(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        q, base = self.q, self.base
        enc, mult = 0, 1
        while a or b:
            enc += base.add(a % q, b % q) * mult
            a //= q
            b //= q
            mult *= q
        return enc

    def neg(self, a: int) -> int:
        if self.char == 2:
            return a
        q, base = self.q, self.base
        enc, mult = 0, 1
        while a:
            enc += base.neg(a % q) * mult
            a //= q
            mult *= q
        return enc

    def sub(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        size = self.order - 1
        return self.antilog[(self.log[a] + self.log[b]) % size]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        size = self.order - 1
        return self.antilog[(size - self.log[a]) % size]

    def alpha_pow(self, i: int) -> int:
        return self.antilog[i % (self.order - 1)]

    def elements(self) -> range:
        return range(self.order)

    def __repr__(self):
        return f"ExtField(order={self.order}, base={self.q}, modulus={self.modulus})"


Field = PrimeField | ExtField


@functools.lru_cache(maxsize=None)
def field(q: int) -> Field:
    """The scalar field F_q, q any prime power; instances are cached."""
    p, e = prime_power(q)
    if e == 1:
        return PrimeField(p)
    return ExtField(field(p), e)


@functools.lru_cache(maxsize=None)
def _extension_cached(base_order: int, n: int) -> ExtField:
    return ExtField(field(base_order), n)


def extension(base, n: int) -> ExtField:
    """F_{q^n} over F_q (`base` is a field or its order); instances cached."""
    return _extension_cached(base if isinstance(base, int) else base.order, n)


def _poly_mul_mod(a: Sequence[int], b: Sequence[int], mod: Sequence[int], base) -> list[int]:
    n = len(mod) - 1
    prod = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                prod[i + j] = base.add(prod[i + j], base.mul(ai, bj))
    for deg in range(2 * n - 2, n - 1, -1):
        c = prod[deg]
        if c:
            prod[deg] = 0
            for j in range(n + 1):
                if mod[j]:
                    prod[deg - n + j] = base.sub(prod[deg - n + j], base.mul(c, mod[j]))
    return prod[:n]


def _poly_pow_x(e: int, mod: Sequence[int], base) -> list[int]:
    n = len(mod) - 1
    result = [0] * n
    result[0] = 1
    sq = [0] * n
    if n == 1:
        sq[0] = base.neg(mod[0])
    else:
        sq[1] = 1
    while e:
        if e & 1:
            result = _poly_mul_mod(result, sq, mod, base)
        sq = _poly_mul_mod(sq, sq, mod, base)
        e >>= 1
    return result


def _x_has_full_order(mod: Sequence[int], base, group_order: int, prime_factors: list[int]) -> bool:
    n = len(mod) - 1
    one = [0] * n
    one[0] = 1
    if _poly_pow_x(group_order, mod, base) != one:
        return False
    return all(_poly_pow_x(group_order // r, mod, base) != one for r in prime_factors)


def find_primitive_poly(base, n: int) -> tuple[int, ...]:
    """The minimal monic primitive polynomial of degree n over the base field.

    Candidates are scanned in increasing order of their integer encoding
    (coefficient of x^i as base-q digit i), which compares coefficient
    vectors from the highest degree down; the first polynomial whose root x
    has multiplicative order q^n - 1 wins.  Primitivity is certified
    against the prime factors of q^n - 1.
    """
    if isinstance(base, int):
        base = field(base)
    if n < 1:
        raise ValueError("degree must be >= 1")
    q = base.order
    order = q**n
    if order > MAX_FIELD_ORDER:
        raise ValueError(f"field order {order} exceeds supported ceiling")
    group = order - 1
    primes = factorize(group) if group > 1 else []
    for enc in range(1, order):
        coeffs = []
        v = enc
        for _ in range(n):
            coeffs.append(v % q)
            v //= q
        if coeffs[0] == 0:
            continue
        mod = tuple(coeffs) + (1,)
        if _x_has_full_order(mod, base, group, primes):
            return mod
    raise ValueError(f"no primitive polynomial of degree {n} found")


# ---------------------------------------------------------------------------
# Linear algebra over a scalar field
# ---------------------------------------------------------------------------


def rref(rows: Iterable[Vector], fld: Field) -> tuple[Vector, ...]:
    """Reduced row echelon form: nonzero rows, unit pivots, pivots increasing."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    pivot_rows: list[list[int]] = []
    for col in range(ncols):
        pivot = None
        for r in mat:
            if r[col] != 0 and all(r[c] == 0 for c in range(col)):
                pivot = r
                break
        if pivot is None:
            continue
        mat.remove(pivot)
        inv = fld.inv(pivot[col])
        pivot = [fld.mul(inv, x) for x in pivot]
        for other in mat + pivot_rows:
            c = other[col]
            if c:
                for j in range(ncols):
                    other[j] = fld.sub(other[j], fld.mul(c, pivot[j]))
        pivot_rows.append(pivot)
    return tuple(tuple(r) for r in pivot_rows)


# bytes 0 and 1 become the digits "0" and "1"; every other byte becomes
# "2", which int(..., 2) rejects
_BITS = bytes.maketrans(bytes(range(256)), b"01" + b"2" * 254)

# F_q tables up to this order are built whole (2 x 65,536 entries at most)
_FULL_TABLE_ORDER = 256


def pack(vec: Sequence[int], q: int):
    """A vector of F_q^k in the form `Echelon` works on: for q = 2 its
    coordinate bitmask, first coordinate in the highest bit (ValueError
    unless every coordinate is 0 or 1); for q > 2 its coordinate tuple."""
    if q == 2:
        return int(bytes(vec).translate(_BITS), 2)
    return tuple(vec)


class _Memo(dict):
    """A table that computes each entry on first lookup."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@functools.lru_cache(maxsize=None)
def _tables(q: int):
    """mul, sub and inv tables of F_q, indexed [a][b] and [a].  Built on
    first use; past order 256 they fill in entry by entry instead."""
    fld = field(q)
    if q > _FULL_TABLE_ORDER:
        return (_Memo(lambda a: _Memo(functools.partial(fld.mul, a))),
                _Memo(lambda a: _Memo(functools.partial(fld.sub, a))),
                _Memo(fld.inv))
    elems = range(q)
    mul = [[fld.mul(a, b) for b in elems] for a in elems]
    sub = [[fld.sub(a, b) for b in elems] for a in elems]
    return mul, sub, [0] + [fld.inv(a) for a in elems[1:]]


class Echelon:
    """Incremental row reduction over F_q on packed vectors (see `pack`);
    tracks the span of the vectors added.

    Every stored row was reduced against the rows before it and has a
    unit entry at its pivot, so one pass over the rows in insertion order
    clears every pivot of a vector, and what is left is zero iff the
    vector lies in the span.

      q = 2   A row is a bitmask and its pivot is its leading bit;
              v ^ b < v holds exactly when v has that bit set.
      q > 2   A row is a (pivot, coordinates) pair, reduced and scaled
              with the mul, sub and inv tables of F_q.
    """

    __slots__ = ("rows", "_tables")

    def __init__(self, q: int, vectors: Iterable = ()):
        self.rows: list = []
        self._tables = None if q == 2 else _tables(q)
        for v in vectors:
            self.add(v)

    def _reduce(self, v):
        if self._tables is None:
            for b in self.rows:
                if v ^ b < v:
                    v ^= b
            return v
        mul, sub, _ = self._tables
        for pivot, row in self.rows:
            c = v[pivot]
            if c:
                mc = mul[c]
                v = [sub[x][mc[y]] for x, y in zip(v, row)]
        return v

    def add(self, v) -> bool:
        """Insert a packed vector; True if it enlarged the span."""
        v = self._reduce(v)
        if self._tables is None:
            if v:
                self.rows.append(v)
            return bool(v)
        lead = next(filter(None, v), 0)
        if not lead:
            return False
        if lead != 1:
            mul, _, inv = self._tables
            scale = mul[inv[lead]]
            v = [scale[x] for x in v]
        self.rows.append((v.index(1), v))
        return True

    def contains(self, v) -> bool:
        v = self._reduce(v)
        return not v if self._tables is None else not any(v)

    def spans(self, vectors) -> bool:
        """True iff every one of the packed vectors lies in the span."""
        return all(self.contains(v) for v in vectors)

    def residue(self, v):
        """What is left of a packed vector once every pivot is cleared:
        zero iff the vector lies in the span."""
        return self._reduce(v)

    def copy(self) -> "Echelon":
        """An independent echelon of the same span: adding to the copy
        leaves this one unchanged."""
        other = Echelon.__new__(Echelon)
        other._tables, other.rows = self._tables, self.rows.copy()
        return other

    @property
    def rank(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^ambient held as its canonical RREF basis."""

    ambient: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def span(cls, vectors: Iterable[Vector], fld: Field, ambient: int | None = None) -> "Subspace":
        vecs = list(vectors)
        if ambient is None:
            if not vecs:
                raise ValueError("ambient dimension required for empty span")
            ambient = len(vecs[0])
        if any(len(v) != ambient for v in vecs):
            raise ValueError("vectors have mixed ambient dimensions")
        return cls(ambient, rref(vecs, fld))


def span_contains(generators: Iterable[Vector], target: Subspace | Iterable[Vector], fld: Field) -> bool:
    """True iff every basis row of the target lies in the span of the generators."""
    gens = list(generators)
    rows = target.basis if isinstance(target, Subspace) else list(target)
    dims = {len(v) for v in gens} | {len(r) for r in rows}
    if len(dims) > 1:
        raise ValueError("generators and target have mixed ambient dimensions")
    q = fld.order
    ech = Echelon(q, (pack(g, q) for g in gens))
    return ech.spans(pack(r, q) for r in rows)


def nullspace(rows: Sequence[Vector], ncols: int, fld: Field) -> list[Vector]:
    """Basis of {x : M x = 0} for the matrix M with the given rows."""
    reduced = rref(rows, fld)
    pivots = []
    for r in reduced:
        for j, c in enumerate(r):
            if c:
                pivots.append(j)
                break
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, pj in zip(reduced, pivots):
            vec[pj] = fld.neg(r[f])
        basis.append(tuple(vec))
    return basis


def left_nullspace(rows: Sequence[Vector], fld: Field) -> list[Vector]:
    """Basis of {c : sum_i c_i * rows[i] = 0}."""
    if not rows:
        return []
    ncols = len(rows)
    transposed = [tuple(r[j] for r in rows) for j in range(len(rows[0]))]
    return nullspace(transposed, ncols, fld)


def solve_linear(rows: Sequence[Vector], rhs: Sequence[int], fld: Field) -> Vector | None:
    """One solution x of M x = rhs, or None if inconsistent."""
    if not rows:
        return None
    ncols = len(rows[0])
    augmented = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    reduced = rref(augmented, fld)
    x = [0] * ncols
    for r in reduced:
        pivot = next((j for j, c in enumerate(r) if c), None)
        if pivot == ncols:
            return None
        if pivot is None:
            continue
        x[pivot] = r[ncols]
    # plug back: works because reduced rows are fully back-substituted
    for r, b in zip(rows, rhs):
        acc = 0
        for c, xi in zip(r, x):
            acc = fld.add(acc, fld.mul(c, xi))
        if acc != b:
            return None
    return tuple(x)
