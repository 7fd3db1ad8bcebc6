"""Independent exact computation of the maximum family size on tiny
instances, by exhaustive packing of minimal recovery sets.

A minimal recovery set is an independent point set whose span contains
the target and loses it on removing any member.  The packer repeatedly
either assigns the smallest free point to one of its minimal sets whose
points are all free or declares it unused, which visits every packing
exactly once.  Bounds come from counting: sets inside the target need d
points, all other sets need at least d+1.

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

Results that exhaust the node or time budget are reported as lower
bounds, never as exact values.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .field_core import Echelon, pack
from .geometry import enumerate_points
from .constructions import RecoveryFamily, canonical_target, construct
from .verifier import verify_family


@dataclass
class SearchConfig:
    max_set_size: None = None  # stays for perfbench/tracer.py until ROADMAP item 1 step B
    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        if self.max_set_size is not None:
            raise ValueError(f"max_set_size must be None, not {self.max_set_size!r}")
        if self.node_limit is not None and (type(self.node_limit) is not int or self.node_limit < 1):
            raise ValueError(f"node_limit must be a positive integer, not {self.node_limit!r}")
        if self.time_limit is not None and not 0 < self.time_limit < math.inf:
            raise ValueError(f"time_limit must be a positive finite number, not {self.time_limit!r}")


@dataclass
class OracleResult:
    q: int
    k: int
    d: int
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
        if ech.spans(target_rows):
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
    Each earlier member j gets a unit tag past its coordinates (bit j
    below them for q = 2), the last member a zero tag; reducing a target
    row, untagged, against them clears its coordinates and leaves minus
    its expansion in the tags.  The tagged echelon of the earlier members
    is built once into `prefix` and copied for every set that shares them.
    """
    w = len(chosen) - 1
    if q == 2:
        if not prefix:
            prefix.append(Echelon(2, (vecs[i] << w | 1 << j for j, i in enumerate(chosen[:w]))))
        ech = prefix[0].copy()
        ech.add(vecs[chosen[w]] << w)
        used = 0
        for t in target_rows:
            used |= ech.residue(t << w)
        return used == (1 << w) - 1
    zeros = (0,) * w
    if not prefix:
        units = [zeros[:j] + (1,) + zeros[j + 1:] for j in range(w)]
        prefix.append(Echelon(q, (vecs[i] + units[j] for j, i in enumerate(chosen[:w]))))
    ech = prefix[0].copy()
    ech.add(vecs[chosen[w]] + zeros)
    tags = [ech.residue(t + zeros)[len(t):] for t in target_rows]
    return all(map(any, zip(*tags)))


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


def _certified_seed(q: int, k: int, d: int, points: list) -> tuple[list[int], str]:
    """The sets of construct(q, k, d), as bitmasks over point ids, and the
    builder's method, if the verifier certifies the family; otherwise no
    sets."""
    family = construct(q, k, d)
    if not verify_family(family).valid:
        return [], family.method
    bit = {p: 1 << i for i, p in enumerate(points)}
    return [sum(map(bit.get, s)) for s in family.sets], family.method


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
    target_span = Echelon(q, target_rows)
    inside = sum(1 << i for i, v in enumerate(vecs) if target_span.contains(v))
    sets_from: dict[int, list[int]] = {}
    start_time = time.monotonic()
    nodes = 0
    best = incumbent

    def check_budget():
        nonlocal nodes
        nodes += 1
        if cfg.node_limit is not None and nodes > cfg.node_limit:
            raise _Budget
        if cfg.time_limit is not None and nodes % 256 == 0:
            if time.monotonic() - start_time > cfg.time_limit:
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
    points, target, vecs, target_rows = _packed_instance(q, k, d)
    seed, method = _certified_seed(q, k, d, points)
    best, nodes, finished = _search(q, d, vecs, target_rows, cfg, seed)
    witness = RecoveryFamily(
        q, k, d, target,
        [frozenset(p for i, p in enumerate(points) if s >> i & 1) for s in best],
        method if best is seed and seed else "oracle-packing",
    )
    return OracleResult(q, k, d, len(best), finished, witness, nodes)
