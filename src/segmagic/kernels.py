"""Line-set generator for product-square enumeration.

A grid of distinct cells whose rows and columns all reach the target is two
families of target-sum index sets: n pairwise disjoint row sets and n
pairwise disjoint column sets, every row set meeting every column set in
exactly one cell (the exact-cover view of Knuth, "Dancing Links", 2000).
The generator chooses sets, held as bitmasks over value indices, instead of
placing one cell at a time.  Each call completes one given first row, whose
length is the order and whose sum is every line's target; the searches in
``search`` choose the first rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

KERNEL = "pure-python"


def product_square_indices(values, row):
    """Enumerate row-major n×n grids of distinct values whose first row is
    ``row`` and whose rows and columns all sum to that row's sum, n being
    ``len(row)``.

    values  at least ``n**2`` ascending distinct integers, checked once per
            table: the values the cells may take, each used at most once
    row     the first row: n ≥ 1 distinct indices into ``values``

    Returns the list of solutions in lexicographic order, each a row-major
    tuple of indices into ``values``.

    The other row sets are every ascending combination of ``n - 1``
    target-sum sets disjoint from the first row and from each other.
    Column j then takes a target-sum set that meets the first row in cell j
    alone and every other row set in one cell, the columns pairwise
    disjoint.  Each ordering of the other row sets gives one grid: cell
    (i, j) is where row set i meets column set j.  Every grid arises exactly
    once this way.
    """
    vals = tuple(values)
    row = tuple(row)
    n, m = len(row), len(vals)
    if not row or len(set(row)) != n or any(not 0 <= c < m for c in row):
        raise ValueError(f"first row must be distinct indices below {m}")
    sets = _line_sets(vals, n)
    return _grids(row, sets[sum(vals[c] for c in row)], n)


def _grids(head, sets, n):
    """Every grid with first row ``head``, ascending."""
    r0 = _mask(head)
    free = [s for s in sets if not s & r0]
    # Column j's candidates: the target-sum sets meeting row 0 in head[j]
    # alone.  A cell with none has no column through it, so there is no grid.
    # The last column is what the others leave of the rows' union: it meets
    # every row set once and its sum is n * target less theirs.
    meets = [[s for s in sets if s & r0 == 1 << c] for c in head]
    if not all(meets):
        return []
    grids = []
    for rows in _disjoint(free, n - 1):
        union = r0 | sum(rows)
        options = [
            [s for s in candidates if _one_each(s, union, rows)]
            for candidates in meets[:-1]
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


# A search reads its first rows off this table and then calls the generator
# over the same values tuple and order: once in all on the Latin route, and
# once per first-row cell set on the direct route and in the palindromic
# search.  The table is built and its values checked once per search.  One
# entry is kept; every caller shares the same dict and only reads it.


@lru_cache(maxsize=1)
def _line_sets(vals: tuple[int, ...], n: int) -> dict[int, tuple[int, ...]]:
    """Value sum -> every n-subset of indices with that sum, as bitmasks."""
    if len(vals) < n * n:
        raise ValueError(f"need at least {n * n} values, got {len(vals)}")
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be ascending and distinct")
    sets: dict[int, list[int]] = {}
    for combo in combinations(range(len(vals)), n):
        sets.setdefault(sum(vals[c] for c in combo), []).append(_mask(combo))
    return {total: tuple(masks) for total, masks in sets.items()}
