"""The minimal-set enumerator that `oracle._minimal_sets` replaced, kept as
its reference (test_oracle): every node copies its parent's `Echelon` and
inserts one candidate, and a spanning set's minimality is a second
elimination of the target rows against its members, tagged in extra
slots below their coordinates.  Same signature, same lists in the same
depth-first order, one `tick` per node."""

from recovery_sets.field_core import Echelon, slot_bits


def _copied(q: int, ech: Echelon) -> Echelon:
    other = Echelon(q)
    other.rows = ech.rows.copy()
    return other


def minimal_sets(q: int, vecs: list, target_rows: list, first: int, tick) -> list[list[int]]:
    """The minimal recovery sets whose smallest point is `first`, as
    increasing id lists in depth-first order.  Sibling sets share
    `prefix`, where the first of them to span leaves the tagged echelon of
    their common members for `is_minimal`."""
    out: list[list[int]] = []

    def extend(chosen: list[int], ech: Echelon, prefix: list):
        tick()
        if not ech.reduce((), target_rows):
            if len(chosen) == len(target_rows) or is_minimal(q, chosen, vecs, target_rows, prefix):
                out.append(chosen)
            return
        shared: list = []
        for i in range(chosen[-1] + 1, len(vecs)):
            grown = _copied(q, ech)
            if grown.add(vecs[i]):
                extend(chosen + [i], grown, shared)

    extend([first], Echelon(q, [vecs[first]]), [])
    return out


def is_minimal(q: int, chosen: list[int], vecs: list, target_rows: list, prefix: list) -> bool:
    """No member of the spanning set `chosen` can be dropped.

    Each vector is shifted up by w slots, one per earlier member: member
    j gets a unit tag in slot j, the last member a zero tag.  Reducing a
    target row against them leaves minus its expansion in the tags, and a
    member can be dropped iff no expansion uses it; the last one never
    can, since without it the set did not span one step earlier.
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
    ech = _copied(q, ech)
    ech.add(vecs[chosen[w]] << shift)
    used = 0
    for t in target_rows:
        used |= ech.reduce((), (t << shift,))
    # every tag slot is nonzero: adding `below` to a slot's lower bits
    # carries into its top bit iff one of them is set
    return ((used & below) + below | used) & tops == tops
