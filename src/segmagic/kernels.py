"""Backtracking kernel for product-square enumeration."""

from __future__ import annotations

from itertools import combinations

from .squares import line_level

KERNEL = "pure-python"


def product_square_indices(
    values,
    order: int,
    target: int,
    level: int,
    prefix=(),
):
    """Enumerate row-major ``order``×``order`` grids of distinct values.

    values  at least ``order**2`` ascending distinct integers, the values
            the cells may take; each is used at most once
    target  required row/column sum
    level   1 rows+columns, 2 adds the main diagonals, 3 adds every
            wrap-around diagonal (for order < 3 same as level 2)
    prefix  value indices forced into the leading cells

    Returns the list of solutions in lexicographic order, each a row-major
    tuple of indices into ``values``.  Pruning: a partial row or column sum
    never exceeds the target.  The last cell of a row and every cell of the
    last row are forced (target minus the partial sum) and looked up, not
    searched.  Placing a cell in the second-to-last row needs its column's
    forced last value to be free; placing one in the third-to-last row needs
    a free pair of distinct values that completes its column.
    """
    n = order
    size = n * n
    vals = list(values)
    m = len(vals)
    if m < size:
        raise ValueError(f"need at least {size} values, got {m}")
    if any(vals[i] >= vals[i + 1] for i in range(m - 1)):
        raise ValueError("values must be ascending and distinct")
    if level not in (1, 2, 3):
        raise ValueError(f"bad level {level}")
    prefix = tuple(prefix)
    if (
        len(prefix) > size
        or len(set(prefix)) != len(prefix)
        or any(not 0 <= p < m for p in prefix)
    ):
        raise ValueError("bad prefix")

    index = {v: c for c, v in enumerate(vals)}
    pair_sums: dict[int, list[tuple[int, int]]] = {}
    if n >= 3:  # only row n - 3 reads it
        for a, b in combinations(range(m), 2):
            pair_sums.setdefault(vals[a] + vals[b], []).append((a, b))
    used = [False] * m
    grid = [0] * size
    row_sum = [0] * n
    col_sum = [0] * n
    out: list[tuple[int, ...]] = []

    def forced(rest: int) -> tuple[int, ...]:
        c = index.get(rest)
        return () if c is None else (c,)

    def completes(rest: int, c: int) -> bool:
        """Some free pair of distinct values other than ``c`` sums to rest."""
        for a, b in pair_sums.get(rest, ()):
            if not (used[a] or used[b]) and c != a and c != b:
                return True
        return False

    def extend(pos: int) -> None:
        if pos == size:
            if line_level([vals[c] for c in grid], n, target) >= level:
                out.append(tuple(grid))
            return
        i, j = divmod(pos, n)
        last_col = j == n - 1
        last_row = i == n - 1
        if pos < len(prefix):
            candidates = (prefix[pos],)
        elif last_col:
            candidates = forced(target - row_sum[i])
        elif last_row:
            candidates = forced(target - col_sum[j])
        else:
            candidates = range(m)
        for c in candidates:
            if used[c]:
                continue
            v = vals[c]
            rs = row_sum[i] + v
            if rs > target:
                break  # values ascend, no later candidate fits either
            if last_col and rs != target:
                continue
            cs = col_sum[j] + v
            if cs > target or (last_row and cs != target):
                continue
            if i == n - 2:
                last = index.get(target - cs)
                if last is None or last == c or used[last]:
                    continue
            elif i == n - 3 and not completes(target - cs, c):
                continue
            used[c] = True
            grid[pos] = c
            row_sum[i] = rs
            col_sum[j] = cs
            extend(pos + 1)
            row_sum[i] -= v
            col_sum[j] -= v
            used[c] = False

    extend(0)
    return out
