"""Independent exact computation of the maximum family size on tiny
instances, by exhaustive packing of minimal recovery sets.

A minimal recovery set is an independent point set whose span contains
the target and loses it on removing any member.  The packer repeatedly
either assigns the smallest alive point to some minimal set drawn from
the alive pool or declares it unused, which visits every packing exactly
once.  Bounds come from counting: sets inside the target need d points,
all other sets need at least d+1.

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
point is p within a pool: `minimal_recovery_sets` runs it for every p
over all later points, the packer at every node over the alive pool.
Points are packed once, and spans are `field_core.Echelon`s grown by
copy-and-insert.

Results that exhaust the node or time budget, or whose search was capped
below k points per set, are reported as lower bounds, never as exact
values.
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
    max_set_size: int | None = None
    node_limit: int | None = None
    time_limit: float | None = None

    def __post_init__(self):
        if self.max_set_size is not None and self.max_set_size < 1:
            raise ValueError("max_set_size must be positive")
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


def _minimal_sets(q: int, vecs: list, target_rows: list, first: int, pool: list[int],
                  cap: int, tick) -> list[list[int]]:
    """The minimal recovery sets whose smallest point is `first`, the rest
    drawn from `pool` (increasing point ids above `first`), as id lists.

    Points and target rows come packed for `Echelon` (see `field_core.pack`).
    A set grows by pool points outside its span, so it stays independent;
    a branch ends once it spans the target, at `cap` points, or when the
    rest of the pool cannot close the span.  `tick` runs at every node.
    Sibling sets share `prefix`, where the first of them to span leaves
    the tagged echelon of their common members for `_is_minimal`.
    """
    out: list[list[int]] = []

    def extend(chosen: list[int], ech: Echelon, pos: int, prefix: list):
        tick()
        if ech.spans(target_rows):
            if len(chosen) == len(target_rows) or _is_minimal(q, chosen, vecs, target_rows, prefix):
                out.append(chosen)
            return
        if len(chosen) == cap:
            return
        rest = ech.copy()
        for i in pool[pos:]:
            if rest.add(vecs[i]) and rest.spans(target_rows):
                break
        else:
            return
        shared: list = []
        for idx in range(pos, len(pool)):
            grown = ech.copy()
            if grown.add(vecs[pool[idx]]):
                extend(chosen + [pool[idx]], grown, idx + 1, shared)

    extend([first], Echelon(q, [vecs[first]]), 0, [])
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
    n = len(points)
    found = [
        tuple(points[i] for i in s)
        for p in range(n)
        for s in _minimal_sets(q, vecs, target_rows, p, list(range(p + 1, n)), k, lambda: None)
    ]
    found.sort(key=lambda s: (len(s), s))
    return found


def _certified_seed(q: int, k: int, d: int, cap: int, points: list) -> tuple[list[list[int]], str]:
    """The sets of at most `cap` points of construct(q, k, d), as point-id
    lists, and the builder's method, if the verifier certifies the family;
    otherwise no sets."""
    family = construct(q, k, d)
    if not verify_family(family).valid:
        return [], family.method
    index = {p: i for i, p in enumerate(points)}
    return [sorted(index[p] for p in s) for s in family.sets if len(s) <= cap], family.method


def _search(q: int, d: int, vecs: list, target_rows: list, cap: int, cfg: SearchConfig,
            incumbent: list[list[int]]) -> tuple[list[list[int]], int, bool]:
    """Pack minimal sets of at most `cap` points, starting from the family
    `incumbent` (point-id lists) and replacing it only by larger ones.
    Returns the best family, the node count, and whether the search ran
    to the end of the tree."""
    n = len(vecs)
    target_span = Echelon(q, target_rows)
    in_target = [target_span.contains(v) for v in vecs]
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

    def packing_bound(alive: list[bool]) -> int:
        a = sum(1 for i in range(n) if alive[i] and in_target[i])
        b = sum(1 for i in range(n) if alive[i] and not in_target[i])
        x = a // d
        return x + (a - x * d + b) // (d + 1)

    def dfs(alive: list[bool], family: list[list[int]]):
        nonlocal best
        check_budget()
        if len(family) > len(best):
            best = [list(s) for s in family]
        if len(family) + packing_bound(alive) <= len(best):
            return
        p = next((i for i in range(n) if alive[i]), None)
        if p is None:
            return
        pool = [i for i in range(p + 1, n) if alive[i]]
        sets = _minimal_sets(q, vecs, target_rows, p, pool, cap, check_budget)
        sets.sort(key=lambda s: (len(s), s))
        for s in sets:
            for i in s:
                alive[i] = False
            family.append(s)
            dfs(alive, family)
            family.pop()
            for i in s:
                alive[i] = True
        # branch: point p used by no set
        alive[p] = False
        dfs(alive, family)
        alive[p] = True

    try:
        dfs([True] * n, [])
    except _Budget:
        return best, nodes, False
    return best, nodes, True


def exact_N(q: int, k: int, d: int, cfg: SearchConfig | None = None) -> OracleResult:
    """Maximum number of pairwise disjoint recovery sets for the canonical
    d-subspace of F_q^k, with a witness family.

    Minimal sets have at most k points, so a `max_set_size` below k can
    exclude sets an optimal family needs: the result is then a lower bound.
    """
    cfg = cfg or SearchConfig()
    cap = min(cfg.max_set_size or k, k)
    if cap < d:
        raise ValueError("max_set_size below target dimension")
    points, target, vecs, target_rows = _packed_instance(q, k, d)
    seed, method = _certified_seed(q, k, d, cap, points)
    best, nodes, finished = _search(q, d, vecs, target_rows, cap, cfg, seed)
    witness = RecoveryFamily(
        q, k, d, target,
        [frozenset(points[i] for i in s) for s in best],
        method if best is seed and seed else "oracle-packing",
    )
    return OracleResult(q, k, d, len(best), finished and cap == k, witness, nodes)
