"""Backtracking kernel for product-square enumeration."""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

KERNEL = "pure-python"


def product_square_indices(
    values,
    order: int,
    target: int,
    prefix=(),
):
    """Enumerate row-major ``order``×``order`` grids of distinct values whose
    rows and columns all sum to ``target``; diagonals are left to the caller.

    values  at least ``order**2`` ascending distinct integers, the values
            the cells may take; each is used at most once
    target  required row/column sum
    prefix  value indices forced into the leading cells

    Returns the list of solutions in lexicographic order, each a row-major
    tuple of indices into ``values``.  Pruning: a partial row or column sum
    never exceeds the target.  The last cell of a row and every cell of the
    last row are forced (target minus the partial sum) and looked up, not
    searched.  Placing a cell in the second-to-last row needs its column's
    forced last value to be free; placing one in the third-to-last row needs
    a free pair of distinct values that completes its column.  The forced
    cells make every row and column of a complete grid reach the target, so
    it is kept without a leaf check.
    """
    n = order
    size = n * n
    vals = tuple(values)
    m = len(vals)
    if m < size:
        raise ValueError(f"need at least {size} values, got {m}")
    if any(vals[i] >= vals[i + 1] for i in range(m - 1)):
        raise ValueError("values must be ascending and distinct")
    prefix = tuple(prefix)
    if (
        len(prefix) > size
        or len(set(prefix)) != len(prefix)
        or any(not 0 <= p < m for p in prefix)
    ):
        raise ValueError("bad prefix")

    index = _index(vals)
    pair_sums = _pair_sums(vals) if n >= 3 else {}  # only row n - 3 reads it
    used = [False] * m
    grid = [0] * size
    row_sum = [0] * n
    col_sum = [0] * n
    out: list[tuple[int, ...]] = []
    fixed = len(prefix)

    def completes(rest: int, c: int) -> bool:
        """Some free pair of distinct values other than ``c`` sums to rest."""
        for a, b in pair_sums.get(rest, ()):
            if not (used[a] or used[b]) and c != a and c != b:
                return True
        return False

    def extend(pos: int) -> None:
        if pos == size:
            out.append(tuple(grid))
            return
        i, j = divmod(pos, n)
        last_col = j == n - 1
        last_row = i == n - 1
        one_below = i == n - 2
        two_below = i == n - 3
        rs0, cs0 = row_sum[i], col_sum[j]
        if pos < fixed:
            candidates = (prefix[pos],)
        elif last_col or last_row:
            c = index.get(target - (rs0 if last_col else cs0))
            candidates = () if c is None else (c,)
        else:
            candidates = range(m)
        for c in candidates:
            if used[c]:
                continue
            v = vals[c]
            rs = rs0 + v
            if rs > target:
                break  # values ascend, no later candidate fits either
            if last_col and rs != target:
                continue
            cs = cs0 + v
            if cs > target or (last_row and cs != target):
                continue
            if one_below:
                last = index.get(target - cs)
                if last is None or last == c or used[last]:
                    continue
            elif two_below and not completes(target - cs, c):
                continue
            used[c] = True
            grid[pos] = c
            row_sum[i] = rs
            col_sum[j] = cs
            extend(pos + 1)
            used[c] = False
        # The loop reads rs0 and cs0, so the sums are restored once, here.
        row_sum[i] = rs0
        col_sum[j] = cs0

    extend(0)
    return out


# The per-values tables.  A search calls the kernel once per first row, all
# over one values tuple, so the tables are built once per search; one entry
# is kept, since a pair-sum table over many values is large.  Every call
# shares the same dicts and only reads them.


@lru_cache(maxsize=1)
def _index(vals: tuple[int, ...]) -> dict[int, int]:
    """Value -> index."""
    return {v: c for c, v in enumerate(vals)}


@lru_cache(maxsize=1)
def _pair_sums(vals: tuple[int, ...]) -> dict[int, tuple[tuple[int, int], ...]]:
    """Sum -> every index pair (a, b), a < b, whose values have that sum."""
    pairs: dict[int, list[tuple[int, int]]] = {}
    for a, b in combinations(range(len(vals)), 2):
        pairs.setdefault(vals[a] + vals[b], []).append((a, b))
    return {total: tuple(ab) for total, ab in pairs.items()}
