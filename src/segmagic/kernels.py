"""Line-set generator for product-square enumeration.

A grid of distinct cells whose rows and columns all reach the target is two
families of target-sum index sets: n pairwise disjoint row sets and n
pairwise disjoint column sets, every row set meeting every column set in
exactly one cell (the exact-cover view of Knuth, "Dancing Links", 2000).
The generator chooses sets, held as bitmasks over value indices, instead of
placing one cell at a time.  Each call completes one given first row; the
searches in ``search`` choose the first rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

KERNEL = "pure-python"


def product_square_indices(values, order: int, target: int, row):
    """Enumerate row-major ``order``×``order`` grids of distinct values whose
    first row is ``row`` and whose rows and columns all sum to ``target``;
    diagonals are left to the caller.

    values  at least ``order**2`` ascending distinct integers, the values
            the cells may take; each is used at most once
    target  required row/column sum
    row     the first row: ``order`` distinct indices into ``values``

    Returns the list of solutions in lexicographic order, each a row-major
    tuple of indices into ``values``; empty when ``row`` misses the target.

    The other row sets are every ascending combination of ``order - 1``
    target-sum sets disjoint from the first row and from each other.
    Column j then takes a target-sum set that meets the first row in cell j
    alone and every other row set in one cell, the columns pairwise
    disjoint.  Each ordering of the other row sets gives one grid: cell
    (i, j) is where row set i meets column set j.  Every grid arises exactly
    once this way.
    """
    n = order
    vals = tuple(values)
    m = len(vals)
    if m < n * n:
        raise ValueError(f"need at least {n * n} values, got {m}")
    if any(vals[i] >= vals[i + 1] for i in range(m - 1)):
        raise ValueError("values must be ascending and distinct")
    row = tuple(row)
    if len(row) != n or len(set(row)) != n or any(not 0 <= c < m for c in row):
        raise ValueError(f"first row must be {n} distinct indices below {m}")
    if sum(vals[c] for c in row) != target:
        return []
    return _grids(row, _line_sets(vals, n).get(target, ()), n)


def _grids(head, sets, n):
    """Every grid with first row ``head``, ascending."""
    r0 = _mask(head)
    free = [s for s in sets if not s & r0]
    # Column j's candidates: the target-sum sets meeting row 0 in head[j] alone.
    # The last column is what the others leave of the rows' union: it meets
    # every row set once and its sum is n * target less theirs.
    meets = [[s for s in sets if s & r0 == 1 << c] for c in head[:-1]]
    grids = []
    for rows in _disjoint(free, n - 1):
        union = r0 | sum(rows)
        options = [
            [s for s in candidates if _one_each(s, union, rows)]
            for candidates in meets
        ]
        for cols in _one_of_each(options):
            cols += (union - sum(cols),)
            table = [tuple((r & c).bit_length() - 1 for c in cols) for r in rows]
            grids += [sum(order, head) for order in permutations(table)]
    grids.sort()
    return grids


def _disjoint(sets, k):
    """Every combination of ``k`` pairwise disjoint masks of ``sets``, in
    ascending index order."""
    if k <= 0:
        yield ()
        return
    if k == 1:
        yield from ((s,) for s in sets)
        return
    for i, s in enumerate(sets):
        rest = [t for t in sets[i + 1 :] if not t & s]
        for more in _disjoint(rest, k - 1):
            yield (s,) + more


def _one_of_each(options, used=0):
    """Every choice of one mask from each list, the masks pairwise disjoint."""
    if not options:
        yield ()
        return
    for s in options[0]:
        if not s & used:
            for more in _one_of_each(options[1:], used | s):
                yield (s,) + more


def _one_each(s, union, rows):
    """``s`` lies in ``union`` and meets each of ``rows`` at most once; with
    its one cell in row 0, that is exactly once each."""
    if s & ~union:
        return False
    for r in rows:
        x = s & r
        if x & (x - 1):
            return False
    return True


def _mask(cells):
    return sum(1 << c for c in cells)


# A search calls the generator once per first row, all over one values tuple
# and order, so the table is built once per search.  One entry is kept; every
# call shares the same dict and only reads it.


@lru_cache(maxsize=1)
def _line_sets(vals: tuple[int, ...], n: int) -> dict[int, tuple[int, ...]]:
    """Value sum -> every n-subset of indices with that sum, as bitmasks."""
    sets: dict[int, list[int]] = {}
    for combo in combinations(range(len(vals)), n):
        sets.setdefault(sum(vals[c] for c in combo), []).append(_mask(combo))
    return {total: tuple(masks) for total, masks in sets.items()}
