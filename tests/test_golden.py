"""Golden hashes: construct, oracle and verify payloads, and the bound table.

Each hash is sha1 over a compact JSON rendering of what the CLI reports.
They pin "same behaviour" across refactors: a change that alters a payload
byte, a lower/upper/exact number or a provenance tag fails here.  The
bound table has two hashes, numbers and provenance, so a failure says
which of the two changed, and two counts per q that say it in numbers.
"""

import hashlib
import json
from collections import Counter

import pytest

from recovery_sets import Subspace, conjugate_family, construct, field
from recovery_sets.bounds import bound_table
from recovery_sets.cli import family_payload, main


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=False)
    return hashlib.sha1(text.encode()).hexdigest()


def _payload_hash(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return _digest(json.loads(capsys.readouterr().out)["payload"])


# (q, k, d) -> (test id, sha1).  The ids are written out, so adding a cell
# renames no other test.  The cells below keep the ids they were first
# collected under, their position in sorted order; a new cell takes a
# readable id such as "2-12-2" or "oracle-3-3-2".
CONSTRUCT = {
    (2, 4, 4): ("qkd0", "a75ab2d9c573e4121c1b55d85c960b3d2c76f901"),
    (2, 6, 4): ("qkd1", "b770c2090c446c16344db41cebdc5fc61459bdf4"),
    (2, 9, 4): ("qkd6", "86b731a5e6e329691400a280927160b1b2a42929"),
    (2, 9, 2): ("qkd4", "e15ed8c4461394c6dd252ebc5aa07b8e47ee0274"),
    (2, 8, 5): ("qkd2", "5a3fab713d8193721a4580bf0002caf9f7f7d463"),
    (2, 9, 3): ("qkd5", "a18b30d95eb18b09b7958c4133c6851dc31d4c5e"),
    (2, 10, 7): ("qkd7", "ab55d74119c7aa7ad2a32e731fa14ac314d67d9f"),
    (2, 8, 6): ("qkd3", "3d5d90ca7e72bc4ac7c3da48e94ef76f84decf2a"),
    (3, 4, 2): ("qkd12", "d92ce006235cda4977054043dab3583753780752"),
    (7, 4, 2): ("qkd16", "d23cb7c351126861f967eb0c1353d3c7e36b7c4d"),
    (5, 5, 4): ("qkd14", "848446ba6bf7094e51b6e86ce9e60f04493a1639"),
    (5, 6, 2): ("qkd15", "c848190b30b324238176d87f2f1809483196365f"),
    (9, 4, 3): ("qkd17", "eeb61a7b9cea414d61b52db7babb3428fefb61f2"),
    (4, 5, 2): ("qkd13", "74277d5f5f3af7e49f37c99647563159342f3e6c"),
    (13, 3, 2): ("qkd18", "694127bceaa888fcd6614ee8f07a7a4d8de71935"),
    # lifted partial spread ladders: (2,10,4); (2,7,3); (2,7,2) then (2,5,2)
    (2, 12, 2): ("qkd9", "ee9ce54f43f6991a2d595b8ff4fb3e4f0c2f9ade"),
    (2, 11, 4): ("qkd8", "5d2d3e68802146c5b088d69cd7655be1f7c2b494"),
    (2, 12, 5): ("qkd10", "ded8f548e00509a6787a55fa3fbaa0a1d037fdba"),
    # line-spread leftovers with t = 19^3 mod 4 = 3: layered values from
    # _search_layer_values and the zero-slot runs after them
    (19, 5, 3): ("19-5-3", "e150b452195354dbf250d508a921ecc68eeaa771"),
    # with (2, 9, 4): the three 9-sets of a terminal F_2^5 block at a second k
    (2, 12, 4): ("2-12-4", "be96b684520ae347b379b569ac78b0cc2e78b3b7"),
    # d = 5 with even m = 4: the lines of the coset spread full_spread(2, 4, 2)
    (2, 9, 5): ("2-9-5", "fd2fe65a01aae65f51d8288a07ab760536660260"),
    # line leftovers over the 50 lines of full_spread(7, 4, 2)
    (7, 6, 2): ("7-6-2", "23322c248062577b1c3faa3992a26ecadf16dbf3"),
    # two levels of the 4-subspace ladder under the quintriples: (2,12,4), (2,8,4)
    (2, 14, 2): ("2-14-2", "07c9725319d94fbab62f58277db9ca2bf03f69c7"),
    # consecutive powers at d = 1, its note naming d+2 | q+1 as what blocks
    # the line-spread leftovers
    (3, 3, 1): ("3-3-1", "6bbf56ac96e6538c9e0dbb809b8247f1234959b5"),
    # a 3-subspace ladder that ends in a residual F_2^3 block
    (2, 10, 4): ("2-10-4", "a787c6f5709f8a9aec82206c91632944d8011dc0"),
    # d = 1: the groups of three rows carried onto 26 lines of full_spread(5, 4, 2)
    (5, 5, 1): ("5-5-1", "3686fd838218954a664e256a872c1d60fe1d8eed"),
    # line leftovers over F_9: two groups of five rows per line of full_spread(9, 2, 2)
    (9, 5, 3): ("9-5-3", "afb022d0c8791f8d9ebb71724b6d40a8c62d3678"),
    # the residual classes of the quintriples: F_2^2, the spare line alone;
    # F_2^3, the zero-sum four and its spares; one ladder level onto a
    # residual F_2^5; one level onto the pinned F_2^7
    (2, 4, 2): ("2-4-2", "a6fc0478a01277b0e7daacc26771c5d7cf10a69b"),
    (2, 5, 2): ("2-5-2", "ae6512498c5353b1bc8259228dadae2f905af45f"),
    (2, 11, 2): ("2-11-2", "ace2795ac9def2c001b5c0d5a07667bda9db8584"),
    (2, 13, 2): ("2-13-2", "55ded3c2273c87c7af51d68d998ec71df9069278"),
}

# (q, k, d) or (q, k, d, node limit) -> (test id, sha1).  The payload
# carries `nodes`, so these pin the search tree as well as the witness.
# Where the certified construct() family meets the counting bound, the
# witness is that family, labelled with its builder's method, and the
# search stops at the root (`nodes: 1`).
ORACLE = {
    (2, 4, 2): ("qkd0", "d6546ac5c6e58468b0d56da52e9276be3b63c69b"),
    (3, 3, 2): ("qkd1", "f2ddece2d63ccbeed188021ba0aa487e682bdb7a"),
    # the seed meets the oracle's row bound, so the root proves it
    (5, 3, 1): ("oracle-5-3-1", "a290e4c47ccc6ceda7d807053bc8323f053157d7"),
    (4, 3, 2): ("oracle-4-3-2", "b23245357a33ecc7c927c170c2bb8be4214f4847"),
    (7, 3, 2): ("oracle-7-3-2", "60780e3edfb77e9aadb1fa0bb5d93b6b6f9218a3"),
    # stops at the node limit with the 9-set construct() family as its
    # witness: the search never proves N_2(5,2) = 9, so it stays a lower bound
    (2, 5, 2, 18000): ("oracle-2-5-2-budgeted", "7ed4d1a01e08a10067edebd32b2ea9bc0f68bb39"),
}

# `verify` on the (3,4,2) family moved onto span{(1,2,0,1), (0,1,1,2)}, its
# second set's last point written as twice the canonical representative:
# the certificate and the one "normalized" warning
VERIFY = {(3, 4, 2): ("verify-3-4-2", "1626849f0392195932eabd754be6f347b7d5b6b9")}

BOUND_TABLE = "f42c853b8eeb4c85e09515916d39bfba2be4b79c"
BOUND_PROVENANCE = "234a23a50de9b2b8bbdb2db5ac6463f8e7b30d60"
# The same tables as readable progress: the exact rows per q (2,626 of
# 14,560), and the rows per q whose lower a stitching entry builds rather
# than consecutive-powers.  A change that raises lowers moves these.
EXACT_ROWS = {2: 510, 3: 377, 4: 401, 5: 301, 7: 300, 8: 390, 9: 347}
STITCHED_ROWS = {2: 178, 5: 31, 7: 31, 9: 30}


def _cells(table):
    return [pytest.param(qkd, sha1, id=test_id) for qkd, (test_id, sha1) in table.items()]


@pytest.mark.parametrize("qkd, sha1", _cells(CONSTRUCT))
def test_construct_payload(capsys, qkd, sha1):
    q, k, d = qkd
    assert _payload_hash(capsys, "construct", "--q", str(q), "--k", str(k), "--d", str(d)) == sha1


@pytest.mark.parametrize("qkd, sha1", _cells(ORACLE))
def test_oracle_payload(capsys, qkd, sha1):
    q, k, d, *limit = qkd
    argv = ["oracle", "--q", str(q), "--k", str(k), "--d", str(d)]
    argv += ["--node-limit", str(limit[0])] if limit else []
    assert _payload_hash(capsys, *argv) == sha1


@pytest.mark.parametrize("qkd, sha1", _cells(VERIFY))
def test_verify_payload(capsys, tmp_path, qkd, sha1):
    q, k, d = qkd
    fld = field(q)
    target = Subspace.span([(1, 2, 0, 1), (0, 1, 1, 2)], fld, k)
    family = family_payload(conjugate_family(construct(q, k, d), target))
    point = family["sets"][1][-1]
    family["sets"][1][-1] = [fld.mul(2, x) for x in point]
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"payload": {"family": family}}))
    assert _payload_hash(capsys, "verify", str(path)) == sha1


def _bound_rows():
    return [r for q in (2, 3, 4, 5, 7, 8, 9) for r in bound_table(q, range(1, 65), range(1, 65))]


def test_bound_table_numbers():
    rows = [[r.q, r.k, r.d, r.lower, r.upper, r.exact] for r in _bound_rows()]
    assert _digest(rows) == BOUND_TABLE


def test_bound_table_provenance():
    rows = [[r.q, r.k, r.d, list(r.provenance)] for r in _bound_rows()]
    assert _digest(rows) == BOUND_PROVENANCE


def test_bound_table_progress():
    rows = _bound_rows()
    assert dict(Counter(r.q for r in rows if r.exact is not None)) == EXACT_ROWS
    stitched = [r.q for r in rows if any(tag.startswith("lower:") and tag != "lower:consecutive-powers"
                                         for tag in r.provenance)]
    assert dict(Counter(stitched)) == STITCHED_ROWS
