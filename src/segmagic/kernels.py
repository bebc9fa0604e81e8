"""Line-set generator for product-square enumeration.

A grid of distinct cells whose rows and columns are all lines is two
families of line sets: n pairwise disjoint row sets and n pairwise disjoint
column sets, every row set meeting every column set in exactly one cell (the
exact-cover view of Knuth, "Dancing Links", 2000).  The generator chooses
sets, held inside a call as bitmasks, instead of placing one cell at a
time.  Each call completes one given first row from one given family of
lines of cell indices; the searches choose the first rows and the family:
the target-sum lines of ``line_sets``, or the transversals of a Latin pair.
"""

from __future__ import annotations

from itertools import combinations, permutations

KERNEL = "pure-python"


def product_square_indices(lines, row):
    """Enumerate row-major n×n grids of distinct cells whose first row is
    ``row`` and whose rows and columns all come from ``lines``, n being
    ``len(row)``.

    lines   the lines: sequences of n distinct cell indices each
    row     the first row: n ≥ 1 distinct cell indices that hold the cells
            of one of ``lines``

    Returns the list of solutions in lexicographic order, each a row-major
    tuple of cell indices.

    The other row sets are every ascending combination of ``n - 1`` sets
    disjoint from the first row and from each other.  Column j then takes a
    set that meets the first row in cell j alone and every other row set in
    one cell, the columns pairwise disjoint.  Each ordering of the other row
    sets gives one grid: cell (i, j) is where row set i meets column set j.
    Every grid arises exactly once this way.
    """
    row = tuple(row)
    n = len(row)
    sets = [_mask(line) for line in lines]
    if not row or len(set(row)) != n or min(row) < 0 or _mask(row) not in sets:
        raise ValueError("first row must be distinct cells that make up a line")
    return _grids(row, sets, n)


def _grids(head, sets, n):
    """Every grid with first row ``head``, ascending."""
    r0 = _mask(head)
    free = [s for s in sets if not s & r0]
    # Column j's candidates: the sets meeting row 0 in head[j] alone.  A
    # cell with none has no column through it, so there is no grid.  The
    # last column is what the others leave of the rows' union: it meets
    # every row set once, and a grid needs it to be a line too.
    meets = [[s for s in sets if s & r0 == 1 << c] for c in head]
    if not all(meets):
        return []
    lines = set(meets[-1])
    grids = []
    for rows in _disjoint(free, n - 1):
        union = r0 | sum(rows)
        options = [
            [s for s in candidates if _one_each(s, union, rows)]
            for candidates in meets[:-1]
        ]
        for cols in _one_of_each(options):
            cols += (union - sum(cols),)
            if cols[-1] not in lines:
                continue
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


def line_sets(values, n: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Value sum -> every n-subset of indices into ``values`` with that sum,
    as an ascending tuple.  ``values`` must hold at least ``n**2`` ascending
    distinct integers: the values the cells may take, each used at most once."""
    vals = tuple(values)
    if len(vals) < n * n:
        raise ValueError(f"need at least {n * n} values, got {len(vals)}")
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValueError("values must be ascending and distinct")
    sets: dict[int, list[tuple[int, ...]]] = {}
    for combo in combinations(range(len(vals)), n):
        sets.setdefault(sum(vals[c] for c in combo), []).append(combo)
    return {total: tuple(lines) for total, lines in sets.items()}
