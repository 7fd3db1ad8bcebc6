"""The m = 7 quintriple search, the reference that `constructions`' pinned
`_M7_QUINTRIPLES` is checked against, and the whole quintriple partition
of F_2^m that `quintriple-rows` stitches (test_constructions,
test_acceptance)."""

from recovery_sets.constructions import QuintriplePartition, _base_partition, _carried
from recovery_sets.geometry import Layout, lifted_ladder


def quintriple_partition(m: int) -> QuintriplePartition:
    """Partition F_2^m minus zero, m >= 2, as `quintriple-rows` does: the
    m = 4 base quintriples carried onto every part of the 4-subspace
    ladder, and the residual's base partition carried onto the residual
    block.  A vector is a row of `Layout(2, m + 2, 2)`, read off cells
    that stand on column 0."""
    lay = Layout(2, m + 2, 2)
    bases, residual = lifted_ladder(m, 4, 7)
    sub = _base_partition(len(residual))

    def carried(blocks, vectors):
        pattern = [[(x, 0) for x in vs] for vs in vectors]
        return [tuple(r for r, _ in s) for s in _carried(lay, blocks, pattern)]

    quints = carried(bases, _base_partition(4).quintriples) + carried([residual], sub.quintriples)
    dep4, spare = carried([residual], [sub.dependent_four or (), sub.spare])
    return QuintriplePartition(m, tuple(quints), dep4 or None, spare)


def find_quintriple_partition_m7() -> QuintriplePartition:
    """Deterministic backtracking search for the m = 7 partition.

    The seven vectors of the embedded F_2^3 are reserved as the remainder
    (they supply the zero-sum 4-set {1,2,4,7} and spares {3,5,6}); the
    other 120 vectors are tiled by quintriples, always covering the
    smallest still-uncovered element first.
    """
    alive = set(range(8, 128))
    out: list[tuple[int, int, int, int, int]] = []

    def candidates(x):
        cands = []
        pairs = [(a, a ^ x) for a in sorted(alive) if a < (a ^ x) and (a ^ x) in alive and a != x]
        for i, (a, b) in enumerate(pairs):
            for c, dd in pairs[i + 1:]:
                if len({a, b, c, dd}) == 4:
                    cands.append((x, a, b, c, dd))
        for y in sorted(alive):
            if y == x:
                continue
            head = x ^ y
            if head not in alive or head in (x, y):
                continue
            used = {x, y, head}
            for c in sorted(alive):
                dd = c ^ head
                if c < dd and dd in alive and c not in used and dd not in used:
                    cands.append((head, x, y, c, dd))
        return cands

    def dfs() -> bool:
        if not alive:
            return True
        x = min(alive)
        for cand in candidates(x):
            s = set(cand)
            if len(s) != 5:
                continue
            alive.difference_update(s)
            out.append(cand)
            if dfs():
                return True
            out.pop()
            alive.update(s)
        return False

    if not dfs():
        raise RuntimeError("m=7 quintriple search failed")
    part = QuintriplePartition(7, tuple(out), (1, 2, 4, 7), (3, 5, 6))
    part.validate()
    return part
