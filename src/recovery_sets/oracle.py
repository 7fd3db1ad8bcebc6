"""Independent exact computation of the maximum family size on tiny
instances, by exhaustive packing of minimal recovery sets.

A minimal recovery set is an independent point set whose span contains
the target and loses it on removing any member.  The packer repeatedly
either assigns the smallest free point to one of its minimal sets whose
points are all free or declares it unused, which visits every packing
exactly once.  Two bounds prune a node: a count of points (sets inside
the target need d points, all other sets at least d+1) and a count by
rows of the stored array (`_row_bound`).

The search starts from an incumbent: the sets of `construct(q, k, d)`,
once `verify_family` certifies them.  That family is the lower bound and
the counting bound over all points is the upper bound; where they meet,
the root node prunes itself and the value is proved with `nodes: 1`.
Otherwise the packer must find a strictly larger family to replace it,
so a budgeted run never reports fewer sets than the construction.  A
witness that is the seed untouched carries the builder's method; one the
packer found is labelled `oracle-packing`.  The builders are not trusted
for anything but that lower bound: the packer run from an empty
incumbent proves the same values (tests/test_oracle.py).

One enumerator, `_minimal_sets`, lists the minimal sets whose smallest
point is p, over all later points: `minimal_recovery_sets` runs it for
every p, the packer once for each p it reaches.  Minimality is a property
of the set alone, so the packer's candidates at p are the members of p's
list that lie in the free points.  It holds free points, sets and
families as int bitmasks over point ids; its `nodes` count packing nodes
plus enumeration steps, each point's enumeration once.  Points are
packed once, and spans are `field_core.Echelon`s grown by copy-and-insert.

Results that exhaust the node budget are reported as lower bounds,
never as exact values.
"""

from __future__ import annotations

from typing import NamedTuple

from .field_core import Echelon, pack, slot_bits
from .geometry import enumerate_points
from .constructions import RecoveryFamily, canonical_target, construct
from .verifier import verify_family


class SearchConfig:
    """The oracle's node budget; None leaves it unbounded."""

    __slots__ = ("node_limit",)

    # max_set_size and time_limit stay for perfbench/tracer.py until ROADMAP item 1 step B
    def __init__(self, max_set_size: None = None, node_limit: int | None = None,
                 time_limit: None = None):
        if max_set_size is not None:
            raise ValueError(f"max_set_size must be None, not {max_set_size!r}")
        if node_limit is not None and (type(node_limit) is not int or node_limit < 1):
            raise ValueError(f"node_limit must be a positive integer, not {node_limit!r}")
        if time_limit is not None:
            raise ValueError(f"time_limit must be None, not {time_limit!r}")
        self.node_limit = node_limit


class OracleResult(NamedTuple):
    value: int
    exact: bool
    witness: RecoveryFamily
    nodes: int

    @property
    def status(self) -> str:
        return "exact" if self.exact else "lower-bound-only"


class _Budget(Exception):
    pass


def _minimal_sets(q: int, vecs: list, target_rows: list, first: int, tick) -> list[list[int]]:
    """The minimal recovery sets whose smallest point is `first`, as
    increasing id lists in depth-first order.

    Points and target rows come packed for `Echelon` (see `field_core.pack`).
    A set grows by later points outside its span, so it stays independent;
    a branch ends once it spans the target, which k independent points
    always do.  `tick` runs at every node.  Sibling sets share `prefix`,
    where the first of them to span leaves the tagged echelon of their
    common members for `_is_minimal`.
    """
    out: list[list[int]] = []

    def extend(chosen: list[int], ech: Echelon, prefix: list):
        tick()
        if not ech.reduce((), target_rows):
            if len(chosen) == len(target_rows) or _is_minimal(q, chosen, vecs, target_rows, prefix):
                out.append(chosen)
            return
        shared: list = []
        for i in range(chosen[-1] + 1, len(vecs)):
            grown = ech.copy()
            if grown.add(vecs[i]):
                extend(chosen + [i], grown, shared)

    extend([first], Echelon(q, [vecs[first]]), [])
    return out


def _is_minimal(q: int, chosen: list[int], vecs: list, target_rows: list, prefix: list) -> bool:
    """No member of the spanning set `chosen` can be dropped.

    The members are independent, so each target row has one expansion in
    them, and a member can be dropped iff no expansion uses it.  The last
    member never can: without it the set did not span one step earlier.
    Each vector is shifted up by w slots, one per earlier member: member
    j gets a unit tag in slot j, the last member a zero tag.  Reducing a
    target row, shifted the same way, against them clears its coordinates
    and leaves minus its expansion in the tags.  The tagged echelon of
    the earlier members is built once into `prefix`, with the shift and
    the masks of the tag check, and copied for every set that shares them.
    """
    w = len(chosen) - 1
    if not prefix:
        bits = slot_bits(q)
        shift = w * bits
        # the lowest bit of each tag slot, its top bit, and the bits below the top
        ones = ((1 << shift) - 1) // ((1 << bits) - 1)
        tops = ones << bits - 1
        tagged = [vecs[i] << shift | 1 << j * bits for j, i in enumerate(chosen[:w])]
        prefix += [Echelon(q, tagged), shift, tops, tops - ones]
    ech, shift, tops, below = prefix
    ech = ech.copy()
    ech.add(vecs[chosen[w]] << shift)
    used = 0
    for t in target_rows:
        used |= ech.reduce((), (t << shift,))
    # every tag slot is nonzero: adding `below` to a slot's lower bits
    # carries into its top bit iff one of them is set
    return ((used & below) + below | used) & tops == tops


def _packed_instance(q: int, k: int, d: int):
    """Points, canonical target, and both packed once for `Echelon`."""
    points = enumerate_points(q, k)
    target = canonical_target(q, k, d)
    return points, target, [pack(p, q) for p in points], [pack(r, q) for r in target.basis]


def minimal_recovery_sets(q: int, k: int, d: int):
    """All inclusion-minimal recovery sets for the canonical target, as
    sorted point tuples, ordered by size then lexicographically.

    Minimal sets are linearly independent (a dependent member is always
    removable), so their size never exceeds k.
    """
    points, _, vecs, target_rows = _packed_instance(q, k, d)
    found = [
        tuple(points[i] for i in s)
        for p in range(len(points))
        for s in _minimal_sets(q, vecs, target_rows, p, lambda: None)
    ]
    found.sort(key=lambda s: (len(s), s))
    return found


def _certified_seed(q: int, k: int, d: int, vecs: list) -> tuple[list[int], str]:
    """The sets of construct(q, k, d), as bitmasks over the ids of the
    packed points `vecs`, and the builder's method, if the verifier
    certifies the family; otherwise no sets."""
    family = construct(q, k, d)
    if not verify_family(family).valid:
        return [], family.method
    bit = {v: 1 << i for i, v in enumerate(vecs)}
    return [sum(map(bit.get, s)) for s in family.sets], family.method


def _point_classes(q: int, d: int, vecs: list) -> tuple[int, list[int]]:
    """The mask of the point ids inside the target and one mask per row,
    the other points with one image modulo the target.  The target rows
    are the low d slots, so that image is the packed point shifted down
    past them, and it is 0 exactly for the points of the target."""
    low = slot_bits(q) * d
    rows: dict[int, int] = {}
    for i, v in enumerate(vecs):
        rows[v >> low] = rows.get(v >> low, 0) | 1 << i
    return rows.pop(0), list(rows.values())


def _row_bound(free: int, inside: int, rows: list[int], d: int) -> int:
    """An upper bound on the minimal recovery sets that pack into the
    points `free`, given `inside`, the mask of the target U's points, and
    `rows`, one mask per row: the points outside U with one image in
    F_q^k / U.  With u free points of U and r_i free points in row i, it is

        max over A in 0..u // d of
            A + sum(r_i // (d+1)) + (sum(r_i % (d+1)) + 2 (u - d A)) // (d+2).

    A minimal set s is independent and its span holds U, so |s| - d is the
    dimension of its image modulo U.  A set inside U has d points; let A
    be their number, which leaves at most u - dA points of U to the rest.
    Give every other set s with e points in U a cost of |s| + e "pool
    units", one per row point and two per point of U.  If s lies on one
    row (its image is one point), |s| = d+1, so e >= 1 makes the cost at
    least d+2; if s meets two rows, |s| >= d+2.  So only one-row sets with
    e = 0 cost less, d+1 points of their row, and row i holds at most
    c_i <= r_i // (d+1) of them.  The pool holds sum(r_i) - (d+1) sum(c_i)
    + 2 (u - dA) units for the rest, so the sets number at most
    A + C + (X - (d+1) C) // (d+2), with C = sum(c_i) and X = sum(r_i) +
    2 (u - dA).  That never falls as C grows by one (+1 against a floor
    falling by at most 1), so C at its largest, sum(r_i // (d+1)), gives
    the bound for this A.  Over A it peaks at A = u for d = 1 and A = 0
    otherwise, as `bounds.row_structure_upper` argues.  At the root it is
    that bound, derived here again so that the oracle stays an
    independent check.
    """
    u = (free & inside).bit_count()
    whole = rest = 0
    for row in rows:
        n, r = divmod((free & row).bit_count(), d + 1)
        whole += n
        rest += r
    return whole + (u + rest // 3 if d == 1 else (rest + 2 * u) // (d + 2))


def _search(q: int, d: int, vecs: list, target_rows: list, cfg: SearchConfig,
            incumbent: list[int]) -> tuple[list[int], int, bool]:
    """Pack minimal sets, starting from the family `incumbent` and
    replacing it only by larger ones; sets are bitmasks over point ids.
    Returns the best family, the node count, and whether the search ran
    to the end of the tree.

    `sets_from[p]` holds p's minimal sets, sorted by size then ids and
    enumerated the first time the search reaches p; a node at p tries
    those that lie in `free`, then leaves p unused.  `nodes` counts
    packing nodes plus enumeration steps, each point's enumeration once.
    """
    inside, rows = _point_classes(q, d, vecs)
    sets_from: dict[int, list[int]] = {}
    nodes = 0
    best = incumbent

    def check_budget():
        nonlocal nodes
        nodes += 1
        if cfg.node_limit is not None and nodes > cfg.node_limit:
            raise _Budget

    def dfs(free: int, family: list[int]):
        nonlocal best
        check_budget()
        if len(family) > len(best):
            best = family.copy()
        # counting bound: sets inside the target take d free points, others d+1
        x = (free & inside).bit_count() // d
        if len(family) + x + (free.bit_count() - x * d) // (d + 1) <= len(best):
            return
        if len(family) + _row_bound(free, inside, rows, d) <= len(best):
            return
        p = (free & -free).bit_length() - 1
        if p not in sets_from:
            found = _minimal_sets(q, vecs, target_rows, p, check_budget)
            found.sort(key=lambda s: (len(s), s))
            sets_from[p] = [sum(1 << i for i in s) for s in found]
        for s in sets_from[p]:
            if s & free == s:
                family.append(s)
                dfs(free ^ s, family)
                family.pop()
        # branch: point p used by no set
        dfs(free ^ 1 << p, family)

    try:
        dfs((1 << len(vecs)) - 1, [])
    except _Budget:
        return best, nodes, False
    return best, nodes, True


def exact_N(q: int, k: int, d: int, cfg: SearchConfig | None = None) -> OracleResult:
    """Maximum number of pairwise disjoint recovery sets for the canonical
    d-subspace of F_q^k, with a witness family."""
    cfg = cfg or SearchConfig()
    _, target, vecs, target_rows = _packed_instance(q, k, d)
    seed, method = _certified_seed(q, k, d, vecs)
    best, nodes, finished = _search(q, d, vecs, target_rows, cfg, seed)
    witness = RecoveryFamily(
        q, k, d, target,
        # the packed points ascend with their ids, so each set is an ascending tuple
        [tuple(v for i, v in enumerate(vecs) if s >> i & 1) for s in best],
        method if best is seed and seed else "oracle-packing",
    )
    return OracleResult(len(best), finished, witness, nodes)
