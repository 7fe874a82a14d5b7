"""The dependence search's candidate growth as it was before the box was
applied as interval arithmetic: every new offset is tested against every
assigned position, one critical value at a time.  Kept unchanged as a
test-only reference for ``tropdiv.independence._grow``."""
from __future__ import annotations

from tropdiv.errors import SearchCapError


def grow(subset: tuple[int, ...], crit, box, max_candidates: int
         ) -> list[tuple[int, ...]]:
    """The sorted offset vectors tried on ``subset``: position 0 at 0,
    each further position pinned to an assigned one through a critical
    value, in every order, keeping only offsets whose differences to all
    assigned positions lie in their boxes."""
    size = len(subset)
    # None marks a still-unassigned position
    start = tuple(0 if i == 0 else None for i in range(size))
    current: set[tuple[int | None, ...]] = {start}
    for _level in range(1, size):
        nxt: set[tuple[int | None, ...]] = set()
        for a in current:
            for kpos in range(1, size):
                if a[kpos] is not None:
                    continue
                for jpos in range(size):
                    if a[jpos] is None:
                        continue
                    for v in crit[(subset[jpos], subset[kpos])]:
                        bk = a[jpos] + v
                        if not all(bk - a[i] in box[(subset[i], subset[kpos])]
                                   for i in range(size)
                                   if a[i] is not None):
                            continue
                        b = list(a)
                        b[kpos] = bk
                        nxt.add(tuple(b))
                        if len(nxt) > max_candidates:
                            raise SearchCapError(max_candidates)
        current = nxt
    return sorted(current)
