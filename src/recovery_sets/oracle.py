"""Independent exact computation of the maximum family size on tiny
instances, by exhaustive packing of minimal recovery sets.

A minimal recovery set is an independent point set whose span contains
the target and loses it on removing any member.  The packer repeatedly
either assigns the smallest alive point to some minimal set drawn from
the alive pool or declares it unused, which visits every packing exactly
once.  Bounds come from counting: sets inside the target need d points,
all other sets need at least d+1.

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
from .constructions import RecoveryFamily, canonical_target


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
    """
    out: list[list[int]] = []

    def extend(chosen: list[int], ech: Echelon, pos: int):
        tick()
        if ech.spans(target_rows):
            if _is_minimal(q, chosen, vecs, target_rows):
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
        for idx in range(pos, len(pool)):
            grown = ech.copy()
            if grown.add(vecs[pool[idx]]):
                extend(chosen + [pool[idx]], grown, idx + 1)

    extend([first], Echelon(q, [vecs[first]]), 0)
    return out


def _is_minimal(q: int, chosen: list[int], vecs: list, target_rows: list) -> bool:
    """No member of the spanning set `chosen` can be dropped.  The last
    member never can: without it the set did not span one step earlier."""
    if len(chosen) == len(target_rows):
        return True
    for skip in range(len(chosen) - 1):
        ech = Echelon(q, (vecs[i] for j, i in enumerate(chosen) if j != skip))
        if ech.spans(target_rows):
            return False
    return True


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


def exact_N(q: int, k: int, d: int, cfg: SearchConfig | None = None) -> OracleResult:
    """Maximum number of pairwise disjoint recovery sets for the canonical
    d-subspace of F_q^k, with a witness family.

    Minimal sets have at most k points, so a `max_set_size` below k can
    exclude sets an optimal family needs: the result is then a lower bound.
    """
    cfg = cfg or SearchConfig()
    points, target, vecs, target_rows = _packed_instance(q, k, d)
    cap = min(cfg.max_set_size or k, k)
    if cap < d:
        raise ValueError("max_set_size below target dimension")
    n = len(points)
    target_span = Echelon(q, target_rows)
    in_target = [target_span.contains(v) for v in vecs]
    start_time = time.monotonic()
    nodes = 0
    best: list[list[int]] = []
    exact = cap == k

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
        exact = False

    witness = RecoveryFamily(
        q, k, d, target,
        [frozenset(points[i] for i in s) for s in best],
        "oracle-packing",
    )
    return OracleResult(q, k, d, len(best), exact, witness, nodes)
