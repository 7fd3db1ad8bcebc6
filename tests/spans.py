"""The span question the tests ask of point sets, on the library's kernel."""

from recovery_sets.field_core import Echelon, pack


def span_contains(generators, target, fld) -> bool:
    """True iff every basis row of the `Subspace` target lies in the span
    of the generators: coordinate tuples, or ints as `pack` lays them out."""
    gens = list(generators)
    if any(type(g) is not int and len(g) != target.ambient for g in gens):
        raise ValueError("generators and target have mixed ambient dimensions")
    q = fld.order
    packed = [g if type(g) is int else pack(g, q) for g in gens]
    return not Echelon(q).reduce(packed, [pack(r, q) for r in target.basis])
