"""The span questions the tests ask: of point sets, on the library's
kernel, and of a spread part's basis, by field arithmetic."""

from itertools import product

from recovery_sets.field_core import Echelon, extension, pack


def span_contains(generators, target, fld) -> bool:
    """True iff every basis row of the `Subspace` target lies in the span
    of the generators: coordinate tuples, or ints as `pack` lays them out."""
    gens = list(generators)
    if any(type(g) is not int and len(g) != target.ambient for g in gens):
        raise ValueError("generators and target have mixed ambient dimensions")
    q = fld.order
    packed = [g if type(g) is int else pack(g, q) for g in gens]
    return not Echelon(q).reduce(packed, [pack(r, q) for r in target.basis])


def vector_span(basis, q, n) -> set[int]:
    """Every F_q-combination of the basis vectors, as F_{q^n} elements:
    the reference for a spread part, through ExtField.add and mul."""
    amb = extension(q, n)
    span = set()
    for cs in product(range(q), repeat=len(basis)):
        acc = 0
        for c, b in zip(cs, basis):
            acc = amb.add(acc, amb.mul(c, b))
        span.add(acc)
    return span
