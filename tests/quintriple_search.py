"""The quintriple partition of F_2^m as a record of vectors: the m = 7
search, the reference that `constructions`' pinned `_M7_QUINTRIPLES` is
checked against, and the whole partition that `quintriple-rows` stitches,
read off its cells (test_constructions, test_acceptance)."""

from typing import NamedTuple

from recovery_sets.constructions import _base_pattern, _carried
from recovery_sets.geometry import Layout, lifted_ladder


class QuintriplePartition(NamedTuple):
    """Partition of F_2^m minus zero into 5-sets {x1..x5} with
    x1 = x2+x3 = x4+x5, plus a small remainder depending on m mod 4:
    nothing (m=0), a zero-sum 4-set and 2 spares (m=1), a 3-element
    2-subspace (m=2), or a zero-sum 4-set and 3 spares (m=3)."""

    m: int
    quintriples: tuple[tuple[int, int, int, int, int], ...]
    dependent_four: tuple[int, int, int, int] | None
    spare: tuple[int, ...]

    def validate(self) -> None:
        seen: set[int] = set()
        for x1, x2, x3, x4, x5 in self.quintriples:
            if x1 != x2 ^ x3 or x1 != x4 ^ x5:
                raise ValueError(f"not a quintriple: {(x1, x2, x3, x4, x5)}")
            s = {x1, x2, x3, x4, x5}
            if len(s) != 5 or seen & s:
                raise ValueError("quintriples overlap or degenerate")
            seen |= s
        rest = list(self.dependent_four or ()) + list(self.spare)
        if seen & set(rest) or len(set(rest)) != len(rest):
            raise ValueError("remainder overlaps")
        seen |= set(rest)
        if self.dependent_four is not None:
            a, b, c, d = self.dependent_four
            if a ^ b ^ c ^ d != 0:
                raise ValueError("dependent four does not sum to zero")
        if seen != set(range(1, 1 << self.m)):
            raise ValueError("not a partition of the nonzero vectors")


def quintriple_partition(m: int) -> QuintriplePartition:
    """Partition F_2^m minus zero, m >= 2, as `quintriple-rows` does: the
    m = 4 base pattern carried onto every part of the 4-subspace ladder,
    and the residual's base pattern and spare cells carried onto the
    residual block.  A vector is a row of `Layout(2, m + 2, 2)`; the
    remainder set is the one with a cell on row 0, and holds the spare
    line where m = 2 (mod 4), the dependent four otherwise."""
    lay = Layout(2, m + 2, 2)
    bases, residual = lifted_ladder(m, 4, 7)
    last, spare_cells = _base_pattern(len(residual))
    quints, rest = [], []
    for s in _carried(lay, bases, _base_pattern(4)[0]) + _carried(lay, [residual], last):
        (rest if any(r == 0 for r, _ in s) else quints).append(tuple(r for r, _ in s if r))
    spare = tuple(r for r, _ in _carried(lay, [residual], [spare_cells])[0])
    if m % 4 == 2:
        return QuintriplePartition(m, tuple(quints), None, rest[0])
    return QuintriplePartition(m, tuple(quints), rest[0] if rest else None, spare)


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
