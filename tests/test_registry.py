"""Every registry cell on a small grid: construct() succeeds, the verifier
certifies the family, its size is the entry's closed form, and it reaches
the lower bound that bound() reports.

The gap of ROADMAP item 2 needs a new builder and is marked as a strict
xfail, so closing it forces the marker to go: d = 1 with odd q, where
bound() lifts `lower` to the dimension-one exact value, above the
consecutive-power family (e.g. N_3(3,1) = 6 against 5 built).
"""

import pytest

from recovery_sets.bounds import bound
from recovery_sets.constructions import construct
from recovery_sets.geometry import num_points
from recovery_sets.verifier import verify_family

MAX_POINTS = 5000


def _cells():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        k = 1
        while num_points(q, k) <= MAX_POINTS:
            for d in range(1, k + 1):
                marks = []
                if d == 1 and q % 2 and k >= 3:
                    marks = [pytest.mark.xfail(strict=True, reason="ROADMAP item 2: d=1, odd q")]
                yield pytest.param(q, k, d, marks=marks, id=f"{q}-{k}-{d}")
            k += 1


@pytest.mark.parametrize("q,k,d", _cells())
def test_cell(q, k, d):
    family = construct(q, k, d)
    cert = verify_family(family)
    assert cert.valid, cert
    assert cert.family_size == family.formula_size
    assert cert.family_size >= bound(q, k, d).lower
