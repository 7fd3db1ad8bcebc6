"""Lower/upper/exact values for the maximum number N_q(k,d) of pairwise
disjoint recovery sets.

`lower` is the closed-form size of the registry entry that construct()
builds for (q, k, d), `upper` the least of the upper bounds implemented
here, and `exact` is set exactly where the two meet.  The one exception
is d = 1, where the dimension-one theorem says the row-structure bound
is met, so `lower` is lifted to it; construct() reaches it except at odd
q with k >= 3, where it does only if q = 2 (mod 3) and k is odd (ROADMAP
item 2).  Each record carries provenance tags naming each value's source.
"""

from __future__ import annotations

from typing import NamedTuple

from .constructions import basic_count, construction_for


def general_upper(q: int, k: int, d: int) -> int:
    """Size-counting bound: d points per in-target set, d+1 elsewhere."""
    l = ((q**d - 1) // (q - 1)) % d
    return basic_count(q, d) + (l * (q - 1) + q**k - q**d) // ((d + 1) * (q - 1))


def row_structure_upper(q: int, k: int, d: int) -> int:
    """Refinement of the size count by the rows of the stored array.

    For a minimal set s outside the target U, |s| - d is the dimension
    of its image modulo U, so a set inside one row has d+1 points and a
    cross-row set at least d+2.  Let A sets lie inside U, d of its
    T = (q^d-1)/(q-1) points each, and give every other set s with e
    points in U a cost of |s| + e pool units, one per row point and two
    per point of U.  Only one-row sets with e = 0 cost less than d+2:
    d+1 points of their row, at most M = floor(q^d/(d+1)) per row, and
    taking all of them loses no set (`oracle._row_bound` gives the
    argument).  The rest share the rows*t leftover units, t = q^d mod
    (d+1), and 2(T - dA) units of U, so with X = rows*t + 2T

        N <= rows*M + max over 0 <= A <= T // d of A + floor((X - 2dA)/(d+2)).

    The maximand is floor((X - (d-2)A)/(d+2)): it falls as A grows when
    d > 2, is flat at d = 2 and rises at d = 1, so the maximum is at A = 0,
    or at A = T when d = 1.  A cannot be fixed at T // d, as many sets
    inside U as fit: at (3,5,3) that gives 30, and a certified family
    has 31 (tests/test_bounds.py).

    At d = 1 (T = 1, t = q mod 2, rows = the L lines through the target
    point) it is the dimension-one value 1 + floor(q/2)*L, plus floor(L/3)
    for odd q, which the paper proves is N_q(k,1).
    """
    rows = (q ** (k - d) - 1) // (q - 1)
    T = (q**d - 1) // (q - 1)
    t = q**d % (d + 1)
    a = T if d == 1 else 0
    return rows * (q**d // (d + 1)) + (rows * t + 2 * T - (d - 2) * a) // (d + 2)


def d2_packing_upper(k: int) -> int:
    return (3 * 2**k + 3) // 10


def d6_upper(k: int) -> int:
    return (91 * 2 ** (k - 6) + 35) // 10


class BoundsRecord(NamedTuple):
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
    """Best known bounds on N_q(k,d), with the exact value where they meet.

    `lower` is the size of the family construct(q, k, d) builds and
    `upper` the least of the upper bounds; `exact` is set, tagged
    `exact:bounds-met`, exactly when the two are equal.  At d = 1 the
    dimension-one theorem says the row-structure bound is met, so `lower`
    is lifted to `upper` (tagged `exact:dimension-one`) and carries a
    `lower:` tag only where construct() reaches it.
    """
    entry = construction_for(q, k, d)
    built = entry.size(q, k, d)
    uppers = [(general_upper(q, k, d), "size-count"), (row_structure_upper(q, k, d), "row-structure")]
    if q == 2 and d == 2:
        uppers.append((d2_packing_upper(k), "packing-lp"))
    if entry.method == "line-group-rows":
        uppers.append((built + 1, "line-group-rows"))
    if q == 2 and d == 6 and k >= 7:
        uppers.append((d6_upper(k), "six-dim-formula"))

    upper = min(v for v, _ in uppers)
    if built > upper:
        raise AssertionError(f"crossed bounds for N_{q}({k},{d}): {built} > {upper}")
    lower = upper if d == 1 else built
    provenance = ["lower:" + entry.method] if lower == built else []
    provenance += ["upper:" + tag for v, tag in uppers if v == upper]
    if d == 1:
        provenance.append("exact:dimension-one")
    elif lower == upper:
        provenance.append("exact:bounds-met")
    return BoundsRecord(q, k, d, lower, upper, lower if lower == upper else None, tuple(provenance))


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
