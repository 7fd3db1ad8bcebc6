"""Lower/upper/exact values for the maximum number N_q(k,d) of pairwise
disjoint recovery sets.

The constructive lower bound is the closed-form size of the registry
entry that construct() builds for (q, k, d).  Upper bounds, the
non-constructive d = 6 bracket and the exact-value arguments live here.
Each record carries provenance tags naming where each value comes from.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import basic_count, construction_for


def general_upper(q: int, k: int, d: int) -> int:
    """Size-counting bound: d points per in-target set, d+1 elsewhere."""
    l = ((q**d - 1) // (q - 1)) % d
    return basic_count(q, d) + (l * (q - 1) + q**k - q**d) // ((d + 1) * (q - 1))


def row_structure_upper(q: int, k: int, d: int) -> int:
    """Refinement of the size count by the rows of the stored array.

    For a minimal set s outside the target U, |s| - d is the dimension
    of its image modulo U, so a set inside one row has d+1 points and a
    cross-row set at least d+2.  The bound adds three terms:
    - the basic_count(q, d) sets inside the target;
    - floor(q^d/(d+1)) single-row sets per row, since a row holds q^d
      points;
    - the cross-row term floor((2l + rows*t)/(d+2)), over the l target
      points the basic sets leave, counted twice, and the t = q^d mod
      (d+1) points each row leaves.

    (2,9,5) = 85 is the one exact value of the q in {2,3,4,5,7,8,9},
    k <= 40 tables that rests on this bound alone.
    """
    rows = (q ** (k - d) - 1) // (q - 1)
    l = ((q**d - 1) // (q - 1)) % d
    t = q**d % (d + 1)
    return basic_count(q, d) + rows * (q**d // (d + 1)) + (2 * l + rows * t) // (d + 2)


def dimension_one_exact(q: int, k: int) -> int:
    if q % 2 == 0:
        return 1 + (q**k - q) // (2 * (q - 1))
    return 1 + (q ** (k - 1) - 1) // 2 + (q ** (k - 1) - 1) // (3 * (q - 1))


def d2_packing_upper(k: int) -> int:
    return (3 * 2**k + 3) // 10


def d6_bracket(k: int) -> tuple[int, int]:
    return (91 * 2 ** (k - 6) + 12) // 10, (91 * 2 ** (k - 6) + 35) // 10


@dataclass(frozen=True)
class BoundsRecord:
    q: int
    k: int
    d: int
    lower: int
    upper: int
    exact: int | None
    provenance: tuple[str, ...]

    def to_payload(self) -> dict:
        return {
            "q": self.q,
            "k": self.k,
            "d": self.d,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "provenance": list(self.provenance),
        }


def bound(q: int, k: int, d: int) -> BoundsRecord:
    """Best known bounds on N_q(k,d), with the exact value where known.

    `lower` is the size of the family construct(q, k, d) builds, or the
    non-constructive d = 6 formula where that is larger; `upper` is the
    least of the upper bounds.  When an exact value is known, both are
    clamped to it, so `lower` can exceed what construct() builds.
    """
    entry = construction_for(q, k, d)
    built = entry.size(q, k, d)
    lowers: list[tuple[int, str]] = [(built, entry.method)]
    uppers: list[tuple[int, str]] = [
        (general_upper(q, k, d), "size-count"),
        (row_structure_upper(q, k, d), "row-structure"),
    ]
    exacts: list[tuple[int, str]] = []

    if entry.optimal:
        exacts.append((built, entry.optimal))
    if d == 1:
        exacts.append((dimension_one_exact(q, k), "dimension-one"))
    if q**d % (d + 1) == 0:
        # no row leaves a leftover, so the family meets the size count
        exacts.append((built, "no-row-leftovers"))
    if q == 2 and d == 2:
        uppers.append((d2_packing_upper(k), "packing-lp"))
    if entry.method == "line-group-rows":
        uppers.append((built + 1, "line-group-rows"))
    if q == 2 and d == 6 and k >= 7:
        lo, hi = d6_bracket(k)
        lowers.append((lo, "six-dim-formula"))
        uppers.append((hi, "six-dim-formula"))

    provenance = []
    values = {v for v, _ in exacts}
    if len(values) > 1:
        raise AssertionError(f"conflicting exact values for N_{q}({k},{d}): {exacts}")
    exact = values.pop() if values else None
    lower = max(v for v, _ in lowers)
    upper = min(v for v, _ in uppers)
    if exact is not None:
        lower = max(lower, exact)
        upper = min(upper, exact)
    for v, tag in lowers:
        if v == lower:
            provenance.append("lower:" + tag)
    for v, tag in uppers:
        if v == upper:
            provenance.append("upper:" + tag)
    for v, tag in exacts:
        provenance.append("exact:" + tag)
    if lower > upper:
        raise AssertionError(f"crossed bounds for N_{q}({k},{d}): {lower} > {upper}")
    if exact is None and lower == upper:
        exact = lower
        provenance.append("exact:bounds-met")
    return BoundsRecord(q, k, d, lower, upper, exact, tuple(dict.fromkeys(provenance)))


def bound_table(q: int, k_range, d_range, row_upper_variant: str = "corrected") -> list[BoundsRecord]:
    # row_upper_variant stays for perfbench/tracer.py until ROADMAP item 1 step B
    if row_upper_variant != "corrected":
        raise ValueError(f"unknown row_upper_variant {row_upper_variant!r}")
    records = []
    for k in k_range:
        for d in d_range:
            if 1 <= d <= k:
                records.append(bound(q, k, d))
    return records
