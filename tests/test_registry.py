"""Every registry cell on a small grid: construct() succeeds, the verifier
certifies the family, its size is the entry's closed form, and it reaches
the lower bound that bound() reports.  Every point is a packed int of
PG(k-1,q), each set an ascending tuple of them, and the payload writes the
points as their coordinate lists.
construct() builds the entry of largest size, the first of equal sizes;
the consecutive-powers fallback comes first, so an entry that only ties it
is never built, and one that beats it wins exactly where it does.  Every
entry but the fallback builds more sets than it wherever it gives a size.

The gap of ROADMAP item 2 needs a new builder and is marked as a strict
xfail, so closing it forces the marker to go: d = 1 with odd q and k >= 3,
where bound() lifts `lower` to the dimension-one exact value, above the
consecutive-power family (e.g. N_3(3,1) = 6 against 5 built).  The
line-spread leftovers already reach that value where q = 2 (mod 3) and k
is odd, so those cells carry no marker.
"""

import pytest

from recovery_sets import constructions
from recovery_sets.bounds import bound
from recovery_sets.cli import family_payload
from recovery_sets.constructions import (REGISTRY, Construction, _consecutive_powers, _tight_size, construct,
                                         construction_for)
from recovery_sets.field_core import pack, unpack
from recovery_sets.geometry import enumerate_points, num_points
from recovery_sets.verifier import verify_family

MAX_POINTS = 5000


def _cells(marked: bool = True):
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        k = 1
        while num_points(q, k) <= MAX_POINTS:
            for d in range(1, k + 1):
                marks = []
                if marked and d == 1 and q % 2 and k >= 3 and not (q % 3 == 2 and k % 2):
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
    if d == k:  # no rows, so no leftovers for a note to explain
        assert family.notes == []


@pytest.mark.parametrize("q,k,d", _cells(marked=False))
def test_points_and_payload(q, k, d):
    family = construct(q, k, d)
    # every set an ascending tuple of distinct points
    assert all(type(s) is tuple and list(s) == sorted(set(s)) for s in family.sets)
    points = [v for s in family.sets for v in s]
    assert all(type(v) is int and v > 0 for v in points)
    assert set(points) <= {pack(p, q) for p in enumerate_points(q, k)}
    # the payload as it was written from coordinate tuples
    reference = sorted(sorted(list(unpack(v, q, k)) for v in s) for s in family.sets)
    assert family_payload(family)["sets"] == reference


def test_entries_beat_consecutive_powers():
    fallback, *entries = REGISTRY
    assert fallback.method == "consecutive-powers"
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        k = 1
        while num_points(q, k) <= 2**40:
            for d in range(1, k + 1):
                for entry in entries:
                    size = entry.size(q, k, d)
                    if size is not None:
                        assert size > _tight_size(q, k, d), (entry.method, q, k, d)
            k += 1


def _picks() -> dict:
    return {(q, k, d): construction_for(q, k, d)[0].method
            for q in (2, 3, 4, 5, 7, 8, 9) for k in range(1, 12) for d in range(1, k + 1)}


def test_an_entry_that_ties_is_never_built(monkeypatch):
    picks = _picks()

    def build(q, k, d):
        raise AssertionError(f"the tying entry was built at {(q, k, d)}")

    monkeypatch.setattr(constructions, "REGISTRY", REGISTRY + (Construction("tie", _tight_size, build),))
    assert _picks() == picks
    assert construct(3, 5, 3).method == "consecutive-powers"


def test_an_entry_one_set_larger_wins_at_its_cell_only(monkeypatch):
    picks = _picks()
    size = lambda q, k, d: _tight_size(q, k, d) + 1 if (q, k, d) == (3, 5, 3) else None
    entry = Construction("one-more", size, _consecutive_powers)
    monkeypatch.setattr(constructions, "REGISTRY", REGISTRY + (entry,))
    picks[3, 5, 3] = "one-more"
    assert _picks() == picks
    # bound() reads its lower bound from the same pick
    r = bound(3, 5, 3)
    assert (r.lower, r.provenance[0]) == (29, "lower:one-more")


def test_every_size_runs_once_per_cell(monkeypatch):
    # construction_for hands back the size it picked by, so neither
    # construct() nor bound() asks the chosen entry for it again
    calls = []

    def counted(entry):
        def size(q, k, d):
            calls.append(entry.method)
            return entry.size(q, k, d)
        return entry._replace(size=size)

    monkeypatch.setattr(constructions, "REGISTRY", tuple(map(counted, REGISTRY)))
    methods = sorted(c.method for c in REGISTRY)
    for q, k, d in ((2, 3, 2), (2, 4, 2), (2, 6, 4), (2, 7, 5), (3, 4, 2), (5, 5, 1), (3, 5, 3)):
        for run in (construct, bound):
            calls.clear()
            run(q, k, d)
            assert sorted(calls) == methods, (run.__name__, q, k, d)
