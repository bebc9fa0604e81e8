"""Pure-Python backtracking kernel for product-square enumeration.

Same contract as the compiled twin in ``_kernel.pyx``; used automatically
when the extension is not built (or when SEGMAGIC_PURE is set).
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .squares import line_level


def product_square_indices(
    values,
    order: int,
    target: int,
    level: int,
    prefix=(),
):
    """Enumerate row-major grids using each of the ``order**2`` values once.

    values  ascending distinct integers, one per available cell
    target  required row/column sum
    level   1 rows+columns, 2 adds the main diagonals, 3 adds every
            wrap-around diagonal (for order < 3 same as level 2)
    prefix  value indices forced into the leading cells

    Returns the list of solutions in lexicographic order, each a row-major
    tuple of indices into ``values``.  Pruning: a partial row sum never
    exceeds the target and a complete row must hit it exactly; a column's
    partial sum plus the k smallest (largest) remaining values must stay
    below (above) the target, k being the cells the column still needs.
    """
    n = order
    m = n * n
    vals = list(values)
    if len(vals) != m:
        raise ValueError(f"need {m} values, got {len(vals)}")
    if any(vals[i] >= vals[i + 1] for i in range(m - 1)):
        raise ValueError("values must be ascending and distinct")
    if level not in (1, 2, 3):
        raise ValueError(f"bad level {level}")
    prefix = tuple(prefix)
    if (
        len(prefix) > m
        or len(set(prefix)) != len(prefix)
        or any(not 0 <= p < m for p in prefix)
    ):
        raise ValueError("bad prefix")

    used = [False] * m
    grid = [0] * m
    row_sum = [0] * n
    col_sum = [0] * n
    remaining = list(vals)
    out: list[tuple[int, ...]] = []

    def leaf_ok() -> bool:
        return line_level([vals[c] for c in grid], n, target) >= level

    def extend(pos: int) -> None:
        if pos == m:
            if leaf_ok():
                out.append(tuple(grid))
            return
        i, j = divmod(pos, n)
        last_col = j == n - 1
        last_row = i == n - 1
        candidates = (prefix[pos],) if pos < len(prefix) else range(m)
        for c in candidates:
            if used[c]:
                continue
            v = vals[c]
            rs = row_sum[i] + v
            if rs > target:
                if pos >= len(prefix):
                    break  # values ascend, no later candidate fits either
                return
            if last_col and rs != target:
                continue
            cs = col_sum[j] + v
            if cs > target or (last_row and cs != target):
                continue
            k = n - 1 - i  # cells this column still needs after placing
            if k:
                rem_at = bisect_left(remaining, v)
                del remaining[rem_at]
                low = cs + sum(remaining[:k])
                high = cs + sum(remaining[-k:])
                if low > target or high < target:
                    insort(remaining, v)
                    continue
            else:
                rem_at = bisect_left(remaining, v)
                del remaining[rem_at]
            used[c] = True
            grid[pos] = c
            row_sum[i] = rs
            col_sum[j] = cs
            extend(pos + 1)
            row_sum[i] -= v
            col_sum[j] -= v
            used[c] = False
            insort(remaining, v)

    extend(0)
    return out
