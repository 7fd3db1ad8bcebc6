"""The library's records: field order, defaults, equality and
immutability, the budget checks of `SearchConfig`, and that no record
reaches a command's document."""

import json
import math
from fractions import Fraction

import pytest

from recovery_sets import cli
from recovery_sets.bounds import BoundsRecord
from recovery_sets.constructions import REGISTRY, Construction, RecoveryFamily, canonical_target
from recovery_sets.field_core import Subspace
from recovery_sets.ilp import DualSolution, IlpModel
from recovery_sets.oracle import OracleResult, SearchConfig
from recovery_sets.verifier import Certificate

TARGET = Subspace(3, ((0, 0, 1),))
SETS = [frozenset({(0, 0, 1)}), frozenset({(1, 0, 1), (1, 0, 0)})]

# One value per record, built positionally in field order, with the fields
# by name in that order.
RECORDS = [
    (Subspace, (3, ((0, 0, 1),)), ["ambient", "basis"]),
    (RecoveryFamily, (2, 3, 1, TARGET, SETS, "m", 2, ["n"]),
     ["q", "k", "d", "target", "sets", "method", "formula_size", "notes"]),
    (Construction, tuple(REGISTRY[0]), ["method", "size", "build", "notes"]),
    (Certificate, (2, 3, 1, 2, True, True, True, 3, 7, "m", ((1, 1), (2, 1))),
     ["q", "k", "d", "family_size", "disjoint_ok", "spanning_ok", "universe_ok",
      "points_used", "points_total", "method", "set_sizes"]),
    (BoundsRecord, (2, 4, 2, 5, 5, 5, ("a", "b")),
     ["q", "k", "d", "lower", "upper", "exact", "provenance"]),
    (OracleResult, (2, True, None, 1), ["value", "exact", "witness", "nodes"]),
    (IlpModel, (("A",), ((1,),), (5,)), ["variables", "constraints", "rhs"]),
    (DualSolution, (Fraction(1, 2), Fraction(1, 5), Fraction(1, 10)), ["z1", "z2", "z3"]),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, names", RECORDS, ids=IDS)
class TestFields:
    def test_positional_in_field_order(self, cls, values, names):
        rec = cls(*values)
        assert [getattr(rec, n) for n in names] == list(values)

    def test_by_keyword(self, cls, values, names):
        assert cls(**dict(zip(names, values))) == cls(*values)

    def test_equality(self, cls, values, names):
        assert cls(*values) == cls(*values)
        changed = cls(*values[:-1], "other")
        assert changed != cls(*values)

    def test_assignment_refused(self, cls, values, names):
        rec = cls(*values)
        with pytest.raises(AttributeError):
            setattr(rec, names[0], values[0])
        with pytest.raises(AttributeError):
            rec.unknown_field = 1


class TestDefaults:
    def test_recovery_family(self):
        fam = RecoveryFamily(2, 3, 1, TARGET, SETS, "m")
        assert fam.formula_size is None
        assert fam.notes == () and not fam.notes

    def test_construction_notes(self):
        c = Construction("m", lambda q, k, d: 1, lambda q, k, d: [])
        assert c.notes(2, 3, 1) == []


class TestSubspace:
    def test_hash_follows_equality(self):
        a = Subspace(3, ((0, 1, 0), (0, 0, 1)))
        b = Subspace(3, tuple([(0, 1, 0), (0, 0, 1)]))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, canonical_target(2, 3, 2)}) == 1
        assert Subspace(3, ((0, 0, 1),)) != a


class TestSearchConfig:
    def test_defaults_unbounded(self):
        assert SearchConfig().node_limit is None
        assert SearchConfig.__slots__ == ("node_limit",)

    def test_keyword_and_positional(self):
        # max_set_size and time_limit are accepted as None only (ROADMAP item 1 step B)
        assert SearchConfig(max_set_size=None, node_limit=5, time_limit=None).node_limit == 5
        assert SearchConfig(None, 7, None).node_limit == 7

    @pytest.mark.parametrize("kwargs", [
        {"max_set_size": 2}, {"max_set_size": 0},
        {"node_limit": 0}, {"node_limit": -3}, {"node_limit": 1.0}, {"node_limit": True},
        {"node_limit": "5"},
        {"time_limit": 0}, {"time_limit": -1.0}, {"time_limit": math.inf},
        {"time_limit": math.nan}, {"time_limit": 1.5},
    ], ids=repr)
    def test_refused(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            SearchConfig(**kwargs)


@pytest.mark.parametrize("argv", [
    ["construct", "--q", "3", "--k", "3", "--d", "2"],
    ["bounds", "--q", "2", "--k", "2..5", "--d", "1..3"],
    ["ilp", "--k", "6"],
    ["oracle", "--q", "2", "--k", "3", "--d", "2"],
    ["verify", "{family}"],
], ids=lambda argv: argv[0])
def test_no_record_reaches_the_writer(monkeypatch, tmp_path, argv):
    """Records are tuples: one left in a document would be written as a
    JSON array.  Every document holds plain dicts, lists and tuples, and
    the bulk values (`cli._PackedSets`, `cli._Rows`) that write their
    records themselves."""
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"q": 2, "k": 3, "d": 1, "target": [], "sets": [[[0, 0, 1]]]}))
    docs = []
    monkeypatch.setattr(cli, "_emit", docs.append)
    assert cli.main([a.format(family=family) for a in argv]) == 0

    def walk(o):
        assert not isinstance(o, tuple) or type(o) is tuple, type(o)
        for child in o.values() if isinstance(o, dict) else o if isinstance(o, (list, tuple)) else ():
            walk(child)

    [doc] = docs
    walk(doc)
