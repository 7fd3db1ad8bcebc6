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

`Echelon` is the span kernel of the builders and the verifier: they
ask it whether a set of vectors spans a subspace.  `pivot_clearing` is
its step turned around, one pivot row cleared from a list of vectors,
with which the oracle carries residues down its enumeration tree.  Both
work on vectors in the one form `pack` gives for every q, the form every
point of a family takes too, an int (`unpack` reads its coordinates
back): the coordinate bitmask for q = 2, and for q > 2 one slot of
whole bytes per coordinate, each base-p digit in a sub-slot wide enough
that adding two vectors never carries between digits: F_q digits packed
into machine words, after Boothby and Bradshaw (arXiv:0901.1413), with
slots a byte wide so that scaling a vector is one `bytes.translate`.
`rref` answers no span question; it gives a `Subspace` its canonical
basis, the one form in which a target is stored and written out.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, NamedTuple, Sequence

Vector = tuple[int, ...]

# Trial division gives up once the candidate divisor passes this ceiling;
# every instance in scope has q^n - 1 within comfortable 64-bit range.
DEFAULT_FACTOR_CEILING = 1 << 20
# One ceiling for the order of a field and for the points of PG(k-1,q)
# (geometry.enumerate_points): see cli._check_instance.
MAX_FIELD_ORDER = 1 << 21


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
        self.order = p
        alpha = next(g for g in range(1, p)
                     if p == 2 or all(pow(g, (p - 1) // r, p) != 1 for r in factorize(p - 1)))
        # x - alpha, stored constant term first
        self.modulus = ((p - alpha) % p, 1)

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
        # over F_2 an element's encoding is its coefficient bitmask: the
        # modulus as a bitmask, x^n included, clears the degree-n bit
        mod_bits = sum(c << j for j, c in enumerate(mod))
        enc = 1
        for i in range(size):
            if log[enc] != -1:  # a power repeats before all are listed
                raise ValueError(f"modulus {mod} is not primitive over order-{q} base")
            antilog[i] = enc
            log[enc] = i
            # multiply by x and reduce
            if q == 2:
                enc <<= 1
                if enc >> n:
                    enc ^= mod_bits
            else:  # carry is the would-be degree-n coefficient
                carry = digits[-1]
                shifted = [0] + digits[:-1]
                if carry:
                    digits = [base.sub(shifted[j], base.mul(carry, mod[j])) for j in range(n)]
                else:
                    digits = shifted
                enc = self._encode(digits)
        if enc != 1:
            raise ValueError(f"modulus {mod} is not primitive over order-{q} base")
        self.antilog = tuple(antilog)
        self.log = tuple(log)

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
        # for odd p, -1 is the one element of order 2, alpha^((order-1)/2)
        return a if self.char == 2 else self.mul(a, self.antilog[(self.order - 1) // 2])

    def sub(self, a: int, b: int) -> int:
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


def _poly_pow_x(e: int, mod: Sequence[int], base) -> list[int]:
    """x^e modulo the monic `mod` over the base field, on coefficient
    lists, constant term first: one squaring per bit of e by Horner's
    rule, then a product by x where the bit is set."""
    n = len(mod) - 1

    def times_x(r: list[int]) -> list[int]:  # x^n folds back as -(mod - x^n)
        c, r = r[-1], [0] + r[:-1]
        return [base.sub(a, base.mul(c, m)) for a, m in zip(r, mod)] if c else r

    r = [1] + [0] * (n - 1)
    for bit in bin(e)[2:]:
        a, r = r, [0] * n
        for c in reversed(a):  # r = a * a
            r = times_x(r)
            if c:
                r = [base.add(x, base.mul(c, y)) for x, y in zip(r, a)]
        if bit == "1":
            r = times_x(r)
    return r


def _bits_pow_x(e: int, mod: int, n: int) -> int:
    """x^e modulo the binary polynomial `mod` of degree n, both as
    coefficient bitmasks (bit i holds x^i): one squaring per bit of e,
    then a product by x where the bit is set, each by shift-and-XOR."""
    r = 1
    for bit in bin(e)[2:]:
        a, r = r, 0
        for i in range(n - 1, -1, -1):  # r = a * a, by Horner's rule
            r <<= 1
            if r >> n:
                r ^= mod
            if a >> i & 1:
                r ^= a
        if bit == "1":
            r <<= 1
            if r >> n:
                r ^= mod
    return r


def find_primitive_poly(base, n: int) -> tuple[int, ...]:
    """The minimal monic primitive polynomial of degree n over the base field.

    Candidates are scanned in increasing order of their integer encoding
    (coefficient of x^i as base-q digit i), which compares coefficient
    vectors from the highest degree down; the first polynomial whose root x
    has multiplicative order q^n - 1 wins.  Primitivity is certified
    against the prime factors of q^n - 1.  Over F_2 the encoding is the
    coefficient bitmask, and powers of x are taken on it by shift-and-XOR;
    over larger bases, on coefficient lists.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    q = base.order
    order = q**n
    if order > MAX_FIELD_ORDER:
        raise ValueError(f"field order {order} exceeds supported ceiling")
    group = order - 1
    primes = factorize(group) if group > 1 else []
    one = 1 if q == 2 else [1] + [0] * (n - 1)
    for enc in range(1, order):
        mod = tuple(enc // q**i % q for i in range(n)) + (1,)
        pow_x = (functools.partial(_bits_pow_x, mod=enc | order, n=n) if q == 2  # enc is the bitmask
                 else functools.partial(_poly_pow_x, mod=mod, base=base))
        if mod[0] and pow_x(group) == one and all(pow_x(group // r) != one for r in primes):
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
_DIGITS = bytes.maketrans(b"01", b"\0\1")


class _Slots:
    """How `pack` lays out F_q^n for q = p^e > 2, and the tables `Echelon`
    scales and adds with.

    A coordinate takes a slot of whole bytes, one byte where it fits.
    Base-p digit i of its element sits in sub-slot i, w bits wide: w = 1
    for p = 2, where addition is XOR, and p.bit_length() + 1 for odd p,
    so that a digit sum (at most 2p - 2) never carries out of its
    sub-slot.  Where a slot is one byte, scaling a vector by c is one
    `bytes.translate` with the table of c; wider slots are scaled
    coordinate by coordinate with the field's own multiplication.
    """

    def __init__(self, q: int):
        fld = self.field = field(q)
        p, e = prime_power(q)
        w = 1 if p == 2 else p.bit_length() + 1
        self.p, self.e, self.w = p, e, w
        self.nbytes = -(-e * w // 8)
        self.bits = 8 * self.nbytes
        self.mask = (1 << self.bits) - 1
        # consts[n]: the bias and ones of the odd-p add over n slots, grown
        # by `row`.  Per slot, 2^(w-1) - p in each sub-slot lifts a digit
        # sum past p - 1 into the sub-slot's top bit, and ones marks the
        # sub-slots' low bits.
        self.consts = [(0, 0)]
        self.bias = self.ones = b""
        if p > 2:
            self.bias = sum((1 << w - 1) - p << i * w for i in range(e)).to_bytes(self.nbytes, "big")
            self.ones = sum(1 << i * w for i in range(e)).to_bytes(self.nbytes, "big")
        # neg[c] and unit[c], indexed by the slot value of c: the tables
        # that scale a one-byte-slot vector by -c and by 1/c.  encode lays
        # out elements as slot values and sends every other byte to 255,
        # which is a slot value only at q = 256; decode reads them back.
        self.neg = self.unit = self.encode = self.decode = None
        if self.nbytes == 1:
            slot = [self.spread(x) for x in range(q)]
            self.encode = bytes.maketrans(bytes(range(256)), bytes(slot) + b"\xff" * (256 - q))
            self.decode = bytes.maketrans(bytes(slot), bytes(range(q)))
            self.neg, self.unit = [None] * 256, [None] * 256
            for c in range(1, q):
                for tables, m in ((self.neg, fld.neg(c)), (self.unit, fld.inv(c))):
                    t = bytearray(256)
                    for x in range(q):
                        t[slot[x]] = slot[fld.mul(m, x)]
                    tables[slot[c]] = bytes(t)

    def spread(self, x: int) -> int:
        """The slot value of the element x (x itself where e = 1 or p = 2)."""
        p, w = self.p, self.w
        return sum(x // p**i % p << i * w for i in range(self.e))

    def gather(self, s: int) -> int:
        """The element whose slot value is s."""
        p, w = self.p, self.w
        return sum((s >> i * w & (1 << w) - 1) * p**i for i in range(self.e))

    def scale(self, v: int, c: int, negate: bool) -> int:
        """v times -c (negate) or 1/c, coordinate by coordinate; c is a
        slot value.  The path for slots wider than a byte."""
        fld, bits, mask = self.field, self.bits, self.mask
        m = self.gather(c)
        m = fld.neg(m) if negate else fld.inv(m)
        out = sh = 0
        while v:
            out |= self.spread(fld.mul(m, self.gather(v & mask))) << sh
            v >>= bits
            sh += bits
        return out

    def row(self, v: int) -> tuple:
        """A nonzero reduced vector as an `Echelon` row: (shift of its
        leading slot, the vector scaled to a unit there, its bytes where
        slots are one byte, and the bias and ones of the odd-p add over
        its slots)."""
        b = None
        if self.unit is None:
            n = (v.bit_length() - 1) // self.bits + 1
            c = v >> (n - 1) * self.bits
            if c != 1:
                v = self.scale(v, c, False)
        else:
            b = v.to_bytes((v.bit_length() + 7) >> 3, "big")
            n = len(b)
            if b[0] != 1:
                b = b.translate(self.unit[b[0]])
                v = _from_bytes(b, "big")
        consts = self.consts
        while len(consts) <= n:
            m = len(consts)
            consts.append((_from_bytes(self.bias * m, "big"), _from_bytes(self.ones * m, "big")))
        return ((n - 1) * self.bits, v, b) + consts[n]


_LAYOUTS: dict[int, _Slots] = {}
_from_bytes = int.from_bytes


def _slots(q: int) -> _Slots:
    s = _LAYOUTS.get(q)
    if s is None:
        s = _LAYOUTS[q] = _Slots(q)
    return s


def slot_bits(q: int) -> int:
    """The bits one coordinate takes in the form `pack` gives."""
    return 1 if q == 2 else _slots(q).bits


def point_bit_lengths(q: int, k: int) -> frozenset[int]:
    """The bit lengths of the ints that `pack` makes of the points of
    PG(k-1,q): nonzero, within k slots and 1 in the leading slot, so the
    highest set bit is the lowest bit of a slot."""
    bits = slot_bits(q)
    return frozenset(range(1, bits * (k - 1) + 2, bits))


def pack(vec: Sequence[int], q: int) -> int:
    """A vector of F_q^k as the int `Echelon` works on, first coordinate
    in the highest slot; ValueError or TypeError unless every coordinate
    is an integer in 0..q-1.

    For q = 2 it is the coordinate bitmask.  For q > 2 each coordinate
    takes a slot of whole bytes (see `_Slots`); where the slot is one
    byte, the range check is the `bytes.translate` that lays it out."""
    if q == 2:
        return int(bytes(vec).translate(_BITS), 2)
    s = _LAYOUTS.get(q) or _slots(q)
    if s.encode is not None:
        b = bytes(vec).translate(s.encode)
        if q < 256 and 255 in b:
            raise ValueError(f"a coordinate lies outside F_{q}")
        return _from_bytes(b, "big")
    v = 0
    for c in vec:
        c = operator.index(c)
        if not 0 <= c < q:
            raise ValueError(f"a coordinate lies outside F_{q}")
        v = v << s.bits | s.spread(c)
    return v


def unpack(v: int, q: int, n: int) -> Vector:
    """The n coordinates of the vector that `pack` laid out as v: binary
    digits for q = 2, bytes read back as elements where slots are a byte."""
    if q == 2:
        return tuple(bin(v | 1 << n)[3:].encode().translate(_DIGITS))
    s = _LAYOUTS.get(q) or _slots(q)
    if s.decode is not None:
        return tuple(v.to_bytes(n, "big").translate(s.decode))
    return tuple([s.gather(v >> sh & s.mask) for sh in range(s.bits * (n - 1), -1, -s.bits)])


class Echelon:
    """Incremental row reduction over F_q on packed vectors (see `pack`);
    tracks the span of the vectors added.

    Every stored row was reduced against the rows before it and has a
    unit entry at its pivot, its leading coordinate, so one pass over the
    rows in insertion order clears every pivot of a vector, and what is
    left is zero iff the vector lies in the span.

      q = 2   A row is a bitmask; v ^ b < v holds exactly when v has the
              row's leading bit set.
      q > 2   A row is a tuple from `_Slots.row`.  Clearing a pivot of
              value c adds the row scaled by -c: XOR for p = 2, and for
              odd p an add of all slots at once that subtracts p from
              every sub-slot that reached p.

    `reduce` does all of it, a whole set's insertion and its target
    check, in one call.
    """

    __slots__ = ("rows", "_slots")

    def __init__(self, q: int, vectors: Iterable = ()):
        self.rows: list = []
        self._slots = None if q == 2 else _slots(q)
        if vectors:
            self.reduce(vectors)

    def reduce(self, vectors: Iterable = (), targets: Iterable = ()) -> int:
        """Add each of the packed `vectors` that enlarges the span, then
        reduce the packed `targets` in turn: the residue of the first
        that lies outside the span, or 0 if the span contains them all.
        Targets are never added."""
        rows = self.rows
        s = self._slots
        # one loop body for both: first the vectors, kept, then the targets
        vs, keep = vectors, True
        if s is None:
            while True:
                for v in vs:
                    for b in rows:
                        if v ^ b < v:
                            v ^= b
                    if v:
                        if not keep:
                            return v
                        rows.append(v)
                if not keep:
                    return 0
                vs, keep = targets, False
        mask, neg, p, w1 = s.mask, s.neg, s.p, s.w - 1
        while True:
            for v in vs:
                for sh, r, b, bias, ones in rows:
                    c = v >> sh & mask
                    if c:
                        t = _from_bytes(b.translate(neg[c]), "big") if neg else s.scale(r, c, True)
                        if p == 2:
                            v ^= t
                        else:
                            v += t
                            v -= ((v + bias) >> w1 & ones) * p
                if v:
                    if not keep:
                        return v
                    rows.append(s.row(v))
            if not keep:
                return 0
            vs, keep = targets, False

    def add(self, v) -> bool:
        """Insert a packed vector; True if it enlarged the span."""
        n = len(self.rows)
        self.reduce((v,))
        return len(self.rows) > n


def pivot_clearing(q: int) -> tuple:
    """(row, clear): row(v) makes a nonzero packed v a pivot row as
    `Echelon` stores it, and clear(r, xs) lists the xs with r's pivot
    cleared, each as `Echelon.reduce` clears it (a multiple of r made
    once per call), so residues reduced against earlier rows stay so."""
    if q == 2:
        return int, lambda b, xs: [x ^ b if x ^ b < x else x for x in xs]
    s = _slots(q)
    mask, neg, p, w1 = s.mask, s.neg, s.p, s.w - 1

    def clear(r: tuple, xs: list) -> list:
        sh, v, b, bias, ones = r
        times: dict = {}
        out = []
        for x in xs:
            c = x >> sh & mask
            if c:
                t = times.get(c)
                if t is None:
                    t = times[c] = _from_bytes(b.translate(neg[c]), "big") if neg else s.scale(v, c, True)
                if p == 2:
                    x ^= t
                else:
                    x += t
                    x -= ((x + bias) >> w1 & ones) * p
            out.append(x)
        return out

    return s.row, clear


class Subspace(NamedTuple):
    """A subspace of F_q^ambient held as its canonical RREF basis."""

    ambient: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def span(cls, vectors: Iterable[Vector], fld: Field, ambient: int) -> "Subspace":
        vecs = list(vectors)
        if any(len(v) != ambient for v in vecs):
            raise ValueError("vectors have mixed ambient dimensions")
        return cls(ambient, rref(vecs, fld))

