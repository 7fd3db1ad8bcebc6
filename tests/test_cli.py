import gc
import io
import json
import math
import random
import tracemalloc
from http import HTTPStatus
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from recovery_sets import cli, field_core, verifier
from recovery_sets.bounds import bound_table
from recovery_sets.cli import family_from_payload, family_payload, main
from recovery_sets.constructions import RecoveryFamily, conjugate_family, construct
from recovery_sets.field_core import Subspace, field, pack, unpack
from recovery_sets.oracle import SearchConfig, exact_N
from recovery_sets.verifier import verify_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else out, err


class TestConstruct:
    def test_2_4_2(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "--q", "2", "--k", "4", "--d", "2")
        assert code == 0
        assert doc["schema_version"] == "1"
        cert = doc["payload"]["certificate"]
        assert cert["valid"] and cert["family_size"] == 5
        fam = doc["payload"]["family"]
        assert len(fam["sets"]) == 5
        assert all(len(p) == 4 for s in fam["sets"] for p in s)

    def test_2_6_4(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "--q", "2", "--k", "6", "--d", "4")
        assert code == 0 and doc["payload"]["certificate"]["family_size"] == 13

    def test_2_6_5(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "--q", "2", "--k", "6", "--d", "5")
        cert = doc["payload"]["certificate"]
        assert code == 0 and cert["valid"] and cert["family_size"] == 11

    def test_3_4_2(self, capsys):
        code, doc, _ = run_json(capsys, "construct", "--q", "3", "--k", "4", "--d", "2")
        assert code == 0 and doc["payload"]["certificate"]["family_size"] == 14

    def test_invalid_params(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--q", "2", "--k", "3", "--d", "4")
        assert code == 2 and "error" in err
        code, _, err = run_cli(capsys, "construct", "--q", "6", "--k", "3", "--d", "2")
        assert code == 2

    def test_deterministic_payload(self, capsys):
        _, out1, _ = run_cli(capsys, "construct", "--q", "2", "--k", "5", "--d", "2")
        _, out2, _ = run_cli(capsys, "construct", "--q", "2", "--k", "5", "--d", "2")
        p1, p2 = json.loads(out1)["payload"], json.loads(out2)["payload"]
        assert p1 == p2


class TestBounds:
    def test_d5_rows(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "--q", "2", "--k", "7..10", "--d", "5")
        assert code == 0
        rows = doc["payload"]["rows"]
        assert [r["k"] for r in rows] == [7, 8, 9, 10]
        for r in rows:
            lo, hi = 21 * 2 ** (r["k"] - 7) + 1, 21 * 2 ** (r["k"] - 7) + 2
            assert lo <= r["lower"] <= r["upper"] <= hi

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--q", "2", "--k", "3", "--d", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("q,k,d")
        assert lines[1].startswith("2,3,3,2,2,2")

    def test_d6_row(self, capsys):
        code, doc, _ = run_json(capsys, "bounds", "--q", "2", "--k", "7", "--d", "6")
        row = doc["payload"]["rows"][0]
        assert code == 0 and row["lower"] == 19

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--q", "2", "--k", "9..7", "--d", "2")
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("--q", "6", "--k", "2", "--d", "1"), "6 is not a prime power"),
        (("--q", "2", "--k", "1..x", "--d", "1"), "invalid literal for int()"),
    ], ids=["q-6", "k-1..x"])
    def test_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestVerifyRoundTrip:
    def test_roundtrip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "construct", "--q", "2", "--k", "4", "--d", "2")
        path = tmp_path / "fam.json"
        path.write_text(out)
        code, doc, _ = run_json(capsys, "verify", str(path))
        assert code == 0
        assert doc["payload"]["certificate"]["valid"]
        assert not doc["payload"]["warnings"]

    def test_tampered_family(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "construct", "--q", "2", "--k", "4", "--d", "2")
        doc = json.loads(out)
        sets = doc["payload"]["family"]["sets"]
        sets[0].append(sets[1][0])  # duplicate a point across sets
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, vdoc, _ = run_json(capsys, "verify", str(path))
        assert code == 1
        assert not vdoc["payload"]["certificate"]["disjoint_ok"]

    @staticmethod
    def _check_normalized(capsys, tmp_path, q, scalars):
        """Scale the first point of set i by scalars[i]: same subspace,
        other representative.  One warning per scaled point, in document
        order, and the family still certifies."""
        fld = field(q)
        code, out, _ = run_cli(capsys, "construct", "--q", str(q), "--k", "3", "--d", "2")
        doc = json.loads(out)
        sets = doc["payload"]["family"]["sets"]
        scaled = []
        for s, c in zip(sets, scalars):
            s[0] = [fld.mul(c, x) for x in s[0]]
            scaled.append(s[0])
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        code, vdoc, _ = run_json(capsys, "verify", str(path))
        assert code == 0
        assert vdoc["payload"]["warnings"] == [f"normalized non-canonical representative {p}" for p in scaled]
        assert vdoc["payload"]["certificate"]["valid"]

    def test_non_canonical_normalized(self, capsys, tmp_path):
        self._check_normalized(capsys, tmp_path, 3, [2, 2])

    def test_non_canonical_normalized_q9(self, capsys, tmp_path):
        self._check_normalized(capsys, tmp_path, 9, [2, 3, 8, 5])

    def test_malformed(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "verify", str(path))
        assert code == 2
        path2 = tmp_path / "incomplete.json"
        path2.write_text(json.dumps({"payload": {"family": {"q": 2}}}))
        code, _, err = run_cli(capsys, "verify", str(path2))
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"q":2,"k":100000,"d":1,"target":[],"sets":[]}',
        '{"q":1e400,"k":3,"d":1,"target":[],"sets":[]}',
        '[1,2]',
        # JSON integers only, targets in range like points
        '{"q":2,"k":2,"d":1,"target":[],"sets":[[[0,1.5]]]}',
        '{"q":2,"k":2,"d":1,"target":[],"sets":[[[0,true]]]}',
        '{"q":2,"k":2,"d":1,"target":[],"sets":[[[0,"1"]]]}',
        '{"q":2.5,"k":2,"d":1,"target":[],"sets":[[[0,1]]]}',
        '{"q":2,"k":"2","d":1,"target":[],"sets":[[[0,1]]]}',
        '{"q":2,"k":2,"d":1,"target":[[0,3]],"sets":[[[0,1]]]}',
        '{"q":2,"k":2,"d":1,"target":[[0,-1]],"sets":[[[0,1]]]}',
        '{"q":2,"k":2,"d":1,"target":[[0,1.5]],"sets":[[[0,1]]]}',
        '{"q":2,"k":1,"d":1,"target":[],"sets":["1"]}',
        '{"q":4,"k":2,"d":1,"target":[[0,9]],"sets":[]}',
        # one projective point twice in a set: the same vector, or two representatives
        '{"q":2,"k":2,"d":1,"target":[],"sets":[[[0,1],[0,1]]]}',
        '{"q":3,"k":2,"d":1,"target":[],"sets":[[[0,1],[0,2]]]}',
        # bytes that are not UTF-8, and arrays nested past the parser's depth
        b"\xff\xfe",
        "[" * 200_000,
        # the same point checks off q = 2, where coordinates take byte slots:
        # an integral float, a bool, a string, an element past F_q, a point
        # twice, and 2 times a point
        '{"q":3,"k":2,"d":1,"target":[],"sets":[[[1,2.0]]]}',
        '{"q":3,"k":2,"d":1,"target":[],"sets":[[[1,true]]]}',
        '{"q":3,"k":2,"d":1,"target":[],"sets":[[[1,"2"]]]}',
        '{"q":3,"k":2,"d":1,"target":[],"sets":[[[1,3]]]}',
        '{"q":3,"k":2,"d":1,"target":[],"sets":[[[1,2],[1,2]]]}',
        '{"q":3,"k":2,"d":1,"target":[],"sets":[[[1,1],[2,2]]]}',
        '{"q":9,"k":2,"d":1,"target":[],"sets":[[[1,8.0]]]}',
        '{"q":9,"k":2,"d":1,"target":[],"sets":[[[1,true]]]}',
        '{"q":9,"k":2,"d":1,"target":[],"sets":[[[1,"8"]]]}',
        '{"q":9,"k":2,"d":1,"target":[],"sets":[[[1,9]]]}',
        '{"q":9,"k":2,"d":1,"target":[],"sets":[[[1,8],[1,8]]]}',
        '{"q":9,"k":2,"d":1,"target":[],"sets":[[[1,3],[2,6]]]}',
        # target rows spanning a line, not a plane; sets that are not lists
        '{"q":3,"k":3,"d":2,"target":[[0,1,0],[0,2,0]],"sets":[]}',
        '{"q":2,"k":2,"d":1,"target":[],"sets":[1,2]}',
    ], ids=["huge-k", "overflowing-q", "not-an-object", "float-coordinate", "bool-coordinate",
            "string-coordinate", "float-q", "string-k", "target-3-at-q-2", "negative-target",
            "float-target", "string-point", "target-9-at-q-4", "repeated-point",
            "repeated-representative", "not-utf-8", "nested-too-deep",
            *(f"{case}-at-q-{q}" for q in (3, 9)
              for case in ("float-coordinate", "bool-coordinate", "string-coordinate", "coordinate-q",
                           "repeated-point", "repeated-representative")),
            "target-dimension", "sets-not-lists"])
    def test_refused_up_front(self, capsys, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run_cli(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerifyMatchesVerifyFamily:
    """`verify` reads a document into packed sets and certifies those;
    `verify_family` packs an in-memory family.  On moved construct()
    families and edited copies, both give one certificate, and `verify`
    warns only about the representatives it scaled."""

    CELLS = [(2, 5, 2), (3, 4, 2), (4, 3, 2), (5, 3, 2), (7, 3, 2), (8, 3, 2), (9, 3, 2), (257, 2, 1)]

    @staticmethod
    def _moved(q, k, d):
        rng = random.Random(q * 100 + k * 10 + d)
        fld = field(q)
        while True:
            rows = [tuple(rng.randrange(q) for _ in range(k)) for _ in range(d)]
            if Subspace.span(rows, fld, k).dim == d:
                return conjugate_family(construct(q, k, d), Subspace(k, tuple(rows)))

    @staticmethod
    def _verify(capsys, tmp_path, family, sets):
        """`verify` on the document of `family` with its sets replaced; a
        point is a packed int or the coordinate tuple to write."""
        q, k = family.q, family.k
        payload = family_payload(family)
        payload["sets"] = [[list(unpack(p, q, k) if type(p) is int else p) for p in s] for s in sets]
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"payload": {"family": payload}}))
        return run_json(capsys, "verify", str(path))

    @staticmethod
    def _in_memory(family, sets):
        return verify_family(RecoveryFamily(family.q, family.k, family.d, family.target,
                                            [frozenset(s) for s in sets], family.method))

    @pytest.mark.parametrize("qkd", CELLS, ids=[f"{q}-{k}-{d}" for q, k, d in CELLS])
    def test_same_certificate(self, capsys, tmp_path, qkd):
        q, k, d = qkd
        fld = field(q)
        moved = self._moved(q, k, d)
        rng = random.Random(q)
        sets = [sorted(s) for s in moved.sets]
        i, j = rng.sample(range(len(sets)), 2)
        p = rng.choice(sets[i])

        code, doc, _ = self._verify(capsys, tmp_path, moved, sets)
        assert code == 0
        assert doc["payload"] == {"certificate": verify_family(moved).to_payload(), "warnings": []}
        read = family_from_payload(family_payload(moved))[0].sets
        assert all(type(s) is tuple and list(s) == sorted(set(s)) for s in read)
        assert sorted(map(list, read)) == sorted(sets)

        # a point copied into a second set
        shared = [s + [p] if n == j else s for n, s in enumerate(sets)]
        code, doc, _ = self._verify(capsys, tmp_path, moved, shared)
        cert = self._in_memory(moved, shared).to_payload()
        assert code == 1 and not cert["disjoint_ok"]
        assert doc["payload"] == {"certificate": cert, "warnings": []}

        # a non-canonical representative, which verify scales back
        if q > 2:
            c = rng.randrange(2, q)
            scaled = tuple(fld.mul(c, x) for x in unpack(p, q, k))
            code, doc, _ = self._verify(capsys, tmp_path, moved, [
                [scaled if x == p else x for x in s] for s in sets])
            assert code == 0
            assert doc["payload"] == {
                "certificate": verify_family(moved).to_payload(),
                "warnings": [f"normalized non-canonical representative {list(scaled)}"],
            }

        # points outside the universe: verify refuses the document, and
        # verify_family finds the point outside PG(k-1,q), given as the
        # packed int where there is one (k - 1 coordinates pack as k)
        v = unpack(p, q, k)
        for bad, packed in [((0,) * k, 0), (v[:-1], v[:-1]), ((1,) + v, pack((1,) + v, q))]:
            edited = [[bad if x == p else x for x in s] for s in sets]
            code, out, err = self._verify(capsys, tmp_path, moved, edited)
            assert code == 2 and out == "" and err.startswith("error: malformed family document: ")
            edited = [[packed if x == p else x for x in s] for s in sets]
            assert not self._in_memory(moved, edited).universe_ok

    @pytest.mark.parametrize("q", [2, 9])
    def test_packs_each_point_once(self, capsys, tmp_path, monkeypatch, q):
        """One pack per point and per target row, and one more per point
        scaled to its canonical representative."""
        fld = field(q)
        moved = self._moved(q, 3, 2)
        sets = [sorted(s) for s in moved.sets]
        scaled = 0
        if q > 2:
            for s in sets[:3]:
                s[0] = tuple(fld.mul(2, x) for x in unpack(s[0], q, 3))
                scaled += 1
        calls = []
        pack = field_core.pack

        def counting(vec, q):
            calls.append(vec)
            return pack(vec, q)

        monkeypatch.setattr(field_core, "pack", counting)
        monkeypatch.setattr(verifier, "pack", counting)
        code, doc, _ = self._verify(capsys, tmp_path, moved, sets)
        assert code == 0 and len(doc["payload"]["warnings"]) == scaled
        assert len(calls) == sum(map(len, sets)) + len(moved.target.basis) + scaled


class TestIlp:
    def test_k4(self, capsys):
        code, doc, _ = run_json(capsys, "ilp", "--k", "4")
        assert code == 0
        assert doc["payload"]["optimum"] == 5
        cert = doc["payload"]["dual_certificate"]
        assert cert["feasible"] and cert["z"] == ["1/2", "1/5", "1/10"]

    def test_emit_model(self, capsys):
        code, out, _ = run_cli(capsys, "ilp", "--k", "4", "--emit-model")
        assert code == 0 and "<= 12" in out

    def test_bad_k(self, capsys):
        code, _, _ = run_cli(capsys, "ilp", "--k", "1")
        assert code == 2


class TestOracle:
    def test_2_3_2(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--q", "2", "--k", "3", "--d", "2")
        assert code == 0
        assert doc["payload"]["value"] == 2
        assert doc["payload"]["status"] == "exact"
        assert doc["payload"]["witness_certificate"]["valid"]

    def test_node_limit_lower_bound(self, capsys):
        code, doc, _ = run_json(
            capsys, "oracle", "--q", "2", "--k", "10", "--d", "2", "--node-limit", "1e4"
        )
        assert code == 0
        assert doc["payload"]["status"] == "lower-bound-only"

    def test_parameters_document(self, capsys):
        code, doc, _ = run_json(capsys, "oracle", "--q", "2", "--k", "2", "--d", "2")
        assert code == 0
        assert doc["parameters"] == {"q": 2, "k": 2, "d": 2, "threads": 1}

    @pytest.mark.parametrize("limit", [
        ("--node-limit", "inf"),
        ("--node-limit", "1e400"),
        ("--node-limit", "nan"),
        ("--node-limit", "0"),
        ("--node-limit", "-3"),
        ("--node-limit", "2.5"),
    ])
    def test_bad_limit_refused(self, capsys, limit):
        code, out, err = run_cli(capsys, "oracle", "--q", "2", "--k", "4", "--d", "2", *limit)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "node_limit" in err


class TestFailedCertificate:
    """A family the verifier refuses still gets its document, with
    `"valid": false`, and the command exits 3."""

    @staticmethod
    def _drop_a_point(family):
        first, *rest = family.sets
        return family._replace(sets=[first[1:], *rest])

    def test_construct(self, capsys, monkeypatch):
        from recovery_sets import constructions

        monkeypatch.setattr(constructions, "construct", lambda q, k, d: self._drop_a_point(construct(q, k, d)))
        code, doc, _ = run_json(capsys, "construct", "--q", "2", "--k", "4", "--d", "2")
        assert code == 3
        assert doc["payload"]["certificate"]["valid"] is False

    def test_oracle(self, capsys, monkeypatch):
        from recovery_sets import oracle

        def broken(q, k, d, cfg):
            result = exact_N(q, k, d, cfg)
            return result._replace(witness=self._drop_a_point(result.witness))

        monkeypatch.setattr(oracle, "exact_N", broken)
        code, doc, _ = run_json(capsys, "oracle", "--q", "2", "--k", "4", "--d", "2")
        assert code == 3
        assert doc["payload"]["witness_certificate"]["valid"] is False


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ("bounds", "--q", "2", "--k", "4", "--d", "2", "--upper-variant", "printed"),
        ("oracle", "--q", "2", "--k", "4", "--d", "2", "--max-set-size", "1"),
        ("oracle", "--q", "2", "--k", "4", "--d", "2", "--time-limit", "1"),
    ], ids=["upper-variant", "max-set-size", "time-limit"])
    def test_refused_by_the_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestCollectorPause:
    """A command runs with the cyclic collector paused; main() gives the
    caller back the setting it had, however the command ends."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_paused_while_a_command_runs(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_ilp", lambda args: seen.append(gc.isenabled()) or 0)
        gc.enable()
        assert main(["ilp", "--k", "4"]) == 0
        assert seen == [False] and gc.isenabled()

    def test_restored_after_success(self, capsys):
        gc.enable()
        code, doc, _ = run_json(capsys, "construct", "--q", "2", "--k", "4", "--d", "2")
        assert code == 0 and doc["payload"]["certificate"]["valid"]
        assert gc.isenabled()

    def test_restored_after_bad_input(self, capsys):
        gc.enable()
        code, out, err = run_cli(capsys, "construct", "--q", "6", "--k", "4", "--d", "2")
        assert code == 2 and out == "" and err.startswith("error: ")
        assert gc.isenabled()

    def test_restored_after_an_exception(self, monkeypatch):
        def broken(args):
            raise RuntimeError("inside the command")

        monkeypatch.setattr(cli, "cmd_oracle", broken)
        gc.enable()
        with pytest.raises(RuntimeError, match="inside the command"):
            main(["oracle", "--q", "2", "--k", "3", "--d", "2"])
        assert gc.isenabled()

    def test_caller_that_paused_it_keeps_it_paused(self, capsys, monkeypatch):
        gc.disable()
        code, _, _ = run_cli(capsys, "ilp", "--k", "4")
        assert code == 0 and not gc.isenabled()
        monkeypatch.setattr(cli, "cmd_ilp", lambda args: 1 // 0)
        with pytest.raises(ZeroDivisionError):
            main(["ilp", "--k", "4"])
        assert not gc.isenabled()


class TestCeilings:
    @pytest.mark.parametrize("argv", [
        ("construct", "--q", "2", "--k", "26", "--d", "25"),
        ("oracle", "--q", "2", "--k", "30", "--d", "2"),
        ("construct", "--q", "2", "--k", "24", "--d", "2"),
        ("construct", "--q", "127", "--k", "4", "--d", "4"),
        # values past Python's int-to-str digit limit, which ended in a
        # traceback (the second after a partial document), and tables past
        # the size ceiling: the first ran until killed, the next two took
        # 100 s and 49 s, the last ended in an OverflowError
        ("bounds", "--q", "2", "--k", "14300", "--d", "1"),
        ("bounds", "--q", "2", "--k", "1000000", "--d", "2"),
        ("ilp", "--k", "15000"),
        ("bounds", "--q", "2", "--k", "1..100000", "--d", "1..100000"),
        ("bounds", "--q", "2", "--k", "13700..14016", "--d", "1..315"),
        ("bounds", "--q", "2", "--k", "1..14000", "--d", "1..7"),
        ("bounds", "--q", "2", "--k", "1..100000000000000000000", "--d", "1"),
        # a column field F_{q^d} at d = k past the ceiling while the points
        # are not: the first once took 74 s, the second 5.3 s and 258 MB
        ("construct", "--q", "16777213", "--k", "1", "--d", "1"),
        ("construct", "--q", "1451", "--k", "2", "--d", "2"),
    ])
    def test_refused_up_front(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "ceiling" in err


# JSON values the writer hands to json unchanged: bools and None among
# ints, NaN, the infinities, -0.0, non-ASCII text, tuples and non-str keys.
_scalars = (
    st.integers()
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.text()
)
_keys = st.text() | st.integers() | st.booleans() | st.none()
_plain = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(inner, max_size=5).map(tuple)
        | st.dictionaries(_keys, inner, max_size=5)
    ),
    max_leaves=8,
)

# The bulk values, each paired with the list form json writes for it: a
# small family's sets, and a bounds table over small ranges (empty too).
_FAMILIES = [construct(q, k, d) for q, k, d in ((2, 3, 2), (3, 3, 1), (2, 4, 4), (4, 3, 2), (5, 2, 1))]
_ranges = st.builds(range, st.integers(1, 8), st.integers(1, 10))


def _rows_pair(q, k_range, d_range):
    records = bound_table(q, k_range, d_range)
    return cli._Rows(records), [r.to_payload() for r in records]


_bulk = (
    st.sampled_from(_FAMILIES).map(lambda f: (cli._PackedSets(f), family_payload(f)["sets"]))
    | st.builds(_rows_pair, st.sampled_from([2, 3, 4, 9]), _ranges, _ranges)
)

# (document, reference) pairs: dicts with str keys, where a bulk value can
# stream, holding bulk values and plain JSON trees; the reference holds the
# bulk values' list forms.
_documents = st.recursive(
    _plain.map(lambda o: (o, o)) | _bulk,
    lambda inner: st.dictionaries(st.text(), inner, max_size=5).map(
        lambda d: ({k: v[0] for k, v in d.items()}, {k: v[1] for k, v in d.items()})),
    max_leaves=12,
)


def _written(o) -> str:
    chunks = []
    cli._write_json(o, "\n", chunks.append)
    return "".join(chunks)


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(_documents)
    def test_matches_json_dumps(self, pair):
        o, reference = pair
        assert _written(o) == json.dumps(reference, indent=2)

    @pytest.mark.parametrize("o", [
        [], {}, [[]], {"a": {}}, [1, True, 2], [0, None], [-0.0, math.nan],
        {1: "x", True: 1, None: [], 2.5: 0}, ("é", (1, 2)), "\u2603",
        [[1], [2, 3]], [[1, True]], [(1, 2), [3, 4]], [[2**70, -1]], [[HTTPStatus.OK, 2]],
        {"%d": 1, "a%": "x%s", '"\u00e9"': None}, {"\u2603": ["%", '"', "\u00e9"]},
        {"a": True}, {"a": 1.5}, {"a": []}, {"a": HTTPStatus.OK}, {"a": ["x", 1]}, {"a": {}},
    ])
    def test_edge_cases(self, o):
        assert _written(o) == json.dumps(o, indent=2)

    def test_unsupported_key_refused(self):
        with pytest.raises(TypeError):
            _written({(1, 2): 0})

    @pytest.mark.parametrize("argv", [
        ("construct", "--q", "3", "--k", "4", "--d", "2"),
        ("verify", "FAMILY"),
        ("ilp", "--k", "4"),
        ("bounds", "--q", "2", "--k", "4..6", "--d", "2..3"),
        ("oracle", "--q", "2", "--k", "4", "--d", "2"),
        ("construct", "--q", "13", "--k", "3", "--d", "2"),
        ("oracle", "--q", "11", "--k", "2", "--d", "1"),
        # from q = 11 on each point is one format of its coordinates:
        # two-digit coordinates, two-byte slots and wide slots
        ("construct", "--q", "11", "--k", "4", "--d", "2"),
        ("construct", "--q", "16", "--k", "3", "--d", "2"),
        ("construct", "--q", "27", "--k", "3", "--d", "2"),
        ("construct", "--q", "257", "--k", "2", "--d", "1"),
        # one-digit fields fill fixed-width point blocks from the points'
        # bits or bytes: binary d = k, the widest binary blocks (9-point
        # sets) and a budgeted binary witness; byte slots holding several
        # digits; extension fields whose slot is the element; line leftovers,
        # sets of 2, 3 and 4 points interleaved in sorted order; d = k; and
        # a witness, one indent deeper
        ("construct", "--q", "2", "--k", "4", "--d", "4"),
        ("construct", "--q", "2", "--k", "10", "--d", "8"),
        ("oracle", "--q", "2", "--k", "5", "--d", "2", "--node-limit", "2000"),
        ("construct", "--q", "3", "--k", "4", "--d", "1"),
        ("construct", "--q", "4", "--k", "5", "--d", "2"),
        ("construct", "--q", "8", "--k", "4", "--d", "2"),
        ("construct", "--q", "7", "--k", "4", "--d", "2"),
        ("construct", "--q", "5", "--k", "2", "--d", "2"),
        ("oracle", "--q", "4", "--k", "3", "--d", "2"),
    ], ids=["construct", "verify", "ilp", "bounds", "oracle", "construct-13-3-2", "oracle-11-2-1",
            "construct-11-4-2", "construct-16-3-2", "construct-27-3-2", "construct-257-2-1",
            "construct-2-4-4", "construct-2-10-8", "oracle-2-5-2-limited", "construct-3-4-1",
            "construct-4-5-2", "construct-8-4-2", "construct-7-4-2", "construct-5-2-2", "oracle-4-3-2"])
    def test_command_output_is_indented_json(self, capsys, tmp_path, argv):
        family = tmp_path / "fam.json"
        family.write_text(run_cli(capsys, "construct", "--q", "2", "--k", "5", "--d", "2")[1])
        code, out, _ = run_cli(capsys, *(str(family) if a == "FAMILY" else a for a in argv))
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        # the sets written from packed points are the reference form's sets
        if argv[0] in ("construct", "oracle"):
            q, k, d = (int(a) for a in argv[2:7:2])
            if argv[0] == "construct":
                reference, written = construct(q, k, d), json.loads(out)["payload"]["family"]
            else:
                limit = int(argv[8]) if len(argv) > 7 else None
                reference = exact_N(q, k, d, SearchConfig(node_limit=limit)).witness
                written = json.loads(out)["payload"]["witness"]
            assert written["sets"] == family_payload(reference)["sets"]

    def test_packed_sets_of_no_sets(self):
        for q in (2, 5):
            family = construct(q, 3, 2)._replace(sets=[])
            assert _written({"sets": cli._PackedSets(family)}) == json.dumps({"sets": []}, indent=2)

    @pytest.mark.parametrize("q", [2, 5, 11, 27])
    def test_packed_sets_with_an_empty_set(self, q):
        # an empty set sorts first and is written as []: in a fixed-width
        # run it takes no point, and a formatted set holds no line
        family = construct(q, 3, 2)
        family = family._replace(sets=[*family.sets, ()])
        reference = json.dumps({"sets": family_payload(family)["sets"]}, indent=2)
        assert _written({"sets": cli._PackedSets(family)}) == reference

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 255, 256, 257, 513])
    def test_packed_sets_across_runs(self, n):
        # one-digit fields are written 64 sets at a time: binary and q = 5
        # families cut at, next to and past those boundaries
        for q, k in ((2, 11), (5, 6)):
            family = construct(q, k, 2)
            assert len(family.sets) > 513
            family = family._replace(sets=family.sets[:n])
            reference = json.dumps({"sets": family_payload(family)["sets"]}, indent=2)
            assert _written({"sets": cli._PackedSets(family)}) == reference

    def test_sets_sharing_a_smallest_point_take_tuple_order(self):
        # only a family that is not disjoint has them; two ascending sets
        # listed in reverse are written in family_payload's order
        for q in (2, 5, 11):
            family = construct(q, 3, 2)
            p, r1, r2 = sorted(chain.from_iterable(family.sets))[:3]
            family = family._replace(sets=[(p, r2), (p, r1)])
            reference = json.dumps({"sets": family_payload(family)["sets"]}, indent=2)
            assert _written({"sets": cli._PackedSets(family)}) == reference
            assert json.loads(reference)["sets"][0][1] == list(unpack(r1, q, 3))

    @pytest.mark.parametrize("qkd", [(5, 7, 2), (2, 16, 8), (2, 16, 2), (11, 5, 2)],
                             ids=["one-digit", "binary", "binary-d2", "per-point"])
    def test_packed_sets_make_no_sorted_copy(self, qkd):
        # the writer orders the sets as tuples and writes each as the family
        # holds it, keeping no text from one set to the next: its traced
        # peak stays below that of the sorted copy of the family
        family = construct(*qkd)
        assert len(family.sets) >= 5000
        writer = cli._PackedSets(family)
        writer.write_json("\n", lambda text: None)  # field tables are built once, untraced
        tracemalloc.start()
        try:
            sorted(map(sorted, family.sets))
            copy_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            writer.write_json("\n", lambda text: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < copy_peak

    def test_rows_of_no_rows(self):
        assert _written({"rows": cli._Rows([])}) == json.dumps({"rows": []}, indent=2)

    def test_emit_fills_chunks_under_write_through(self, monkeypatch):
        """Under `python -u` or PYTHONUNBUFFERED stdout writes through; _emit
        still hands the raw stream whole chunks, and restores the mode."""
        class Raw(io.RawIOBase):
            def __init__(self):
                self.chunks = []

            def writable(self):
                return True

            def write(self, b):
                self.chunks.append(bytes(b))
                return len(b)

        records = bound_table(3, range(1, 65), range(1, 65))
        params = {"q": 3, "k": "1..64", "d": "1..64", "upper_variant": "corrected"}
        doc = {"schema_version": cli.SCHEMA_VERSION, "command": "bounds", "parameters": params,
               "payload": {"rows": cli._Rows(records)}, "timing_ms": 12.5}
        raw = Raw()
        out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        monkeypatch.setattr("sys.stdout", out)
        cli._emit(doc)
        doc["payload"]["rows"] = [r.to_payload() for r in records]
        text = json.dumps(doc, indent=2) + "\n"
        assert len(raw.chunks) <= math.ceil(len(text) / 8192) + 2
        assert out.write_through
        assert b"".join(raw.chunks).decode() == text  # nothing left unflushed

    def test_streams_in_small_writes(self, monkeypatch):
        class Recorder:
            def __init__(self):
                self.parts = []

            def write(self, text):
                self.parts.append(text)

        # one recovery set per write at most, at q = 2, at q = 5 and at q = 9,
        # where a slot is not the element: no write is longer than the
        # longest set's text in the document, with the ",\n" and indent that
        # open it
        for q, k in (("2", "12"), ("5", "6"), ("9", "4")):
            rec = Recorder()
            monkeypatch.setattr("sys.stdout", rec)
            assert main(["construct", "--q", q, "--k", k, "--d", "2"]) == 0
            sets = json.loads("".join(rec.parts))["payload"]["family"]["sets"]
            indent = "\n" + " " * 8
            longest = max(len(",") + len(indent + json.dumps(s, indent=2).replace("\n", indent)) for s in sets)
            assert max(map(len, rec.parts)) <= longest
            assert len(rec.parts) > len(sets)
        # one bounds row per write at most, likewise
        rec = Recorder()
        monkeypatch.setattr("sys.stdout", rec)
        assert main(["bounds", "--q", "3", "--k", "1..64", "--d", "1..64"]) == 0
        rows = json.loads("".join(rec.parts))["payload"]["rows"]
        indent = "\n" + " " * 6
        longest = max(len(",") + len(indent + json.dumps(r, indent=2).replace("\n", indent)) for r in rows)
        assert max(map(len, rec.parts)) <= longest
        assert len(rec.parts) > len(rows)
