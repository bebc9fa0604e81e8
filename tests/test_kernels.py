"""The line-set generator: validation, ordering, first rows, counts."""

from itertools import permutations, product

import pytest

from segmagic import kernels

from conftest import joined_grids


def _values(alphabet):
    return sorted(10 * a + b for a, b in product(alphabet, repeat=2))


def test_solutions_are_valid_grids():
    values = _values((0, 1, 2))
    grids = joined_grids(values, 3, 33)
    assert len(grids) == 72
    magic = 0
    for indices in grids:
        assert sorted(indices) == list(range(9))  # a permutation of all cells
        grid = [values[i] for i in indices]
        rows = [sum(grid[r * 3 + c] for c in range(3)) for r in range(3)]
        cols = [sum(grid[r * 3 + c] for r in range(3)) for c in range(3)]
        assert set(rows) == set(cols) == {33}
        # Diagonals are the caller's check; 8 of the 72 grids hold them.
        diag = sum(grid[i * 3 + i] for i in range(3))
        anti = sum(grid[i * 3 + 2 - i] for i in range(3))
        magic += diag == anti == 33
    assert magic == 8


@pytest.mark.parametrize("target", [15, 16, 17, 18])
def test_kernel_chooses_from_more_values_than_cells(target):
    # 10 values for 9 cells: the nine used sum to 3 * target, so the one
    # left out is 55 - 3 * target, and each choice gives 72 semi-magic grids.
    values = list(range(1, 11))
    grids = joined_grids(values, 3, target)
    assert len(grids) == 72
    assert grids == sorted(grids)
    for indices in grids:
        assert len(set(indices)) == 9
        assert all(0 <= i < len(values) for i in indices)
        assert {values[i] for i in indices} == set(values) - {55 - 3 * target}
        grid = [values[i] for i in indices]
        assert all(sum(grid[r * 3 : r * 3 + 3]) == target for r in range(3))
        assert all(sum(grid[c::3]) == target for c in range(3))


def test_kernel_validation():
    good = _values((0, 1, 2))
    row = (0, 4, 8)  # 00 11 22, which reaches 33
    assert kernels.product_square_indices(good, 3, 33, row)
    with pytest.raises(ValueError):
        kernels.product_square_indices(good[:5], 3, 33, row)
    with pytest.raises(ValueError):
        kernels.product_square_indices(sorted(good, reverse=True), 3, 33, row)
    with pytest.raises(ValueError):
        kernels.product_square_indices([1] * 9, 3, 33, row)
    with pytest.raises(ValueError):
        kernels.product_square_indices(good, 3, 33, (1, 1, 2))
    with pytest.raises(ValueError):
        kernels.product_square_indices(good, 3, 33, (0, 4, 99))
    for wrong_length in ((), (0,), (0, 4), (0, 4, 8, 1)):
        with pytest.raises(ValueError):
            kernels.product_square_indices(good, 3, 33, wrong_length)


def test_kernel_where_latin_route_is_no_oracle():
    # 0+3 = 1+2, so the Latin route misses squares over {0,1,2,3}: pin the
    # kernel's own count for first cell 00.
    values = _values((0, 1, 2, 3))
    grids = joined_grids(values, 4, 66, (0,))
    assert len(grids) == 22104
    assert grids == sorted(grids)
    assert all(grid[0] == 0 for grid in grids)


def _line_sums_hit(grid, values, n, target):
    cells = [values[i] for i in grid]
    return all(sum(cells[r * n : r * n + n]) == target for r in range(n)) and all(
        sum(cells[c::n]) == target for c in range(n)
    )


@pytest.mark.parametrize(
    "values, target", [(_values((0, 1, 2)), 33), (list(range(1, 10)), 15)]
)
def test_order3_matches_brute_force(values, target):
    brute = sorted(
        grid
        for grid in permutations(range(9))
        if _line_sums_hit(grid, values, 3, target)
    )
    assert joined_grids(values, 3, target) == brute


def test_order1():
    values = [3, 5, 7]
    assert joined_grids(values, 1, 5) == [(1,)]
    assert joined_grids(values, 1, 4) == []
    assert kernels.product_square_indices(values, 1, 5, (1,)) == [(1,)]
    assert kernels.product_square_indices(values, 1, 5, (0,)) == []


@pytest.mark.parametrize("target", range(3, 16))
def test_order2_has_no_grid_of_distinct_cells(target):
    # a + b = a + c forces b = c: no 2x2 grid of distinct cells qualifies.
    values = list(range(1, 9))
    assert joined_grids(values, 2, target) == []
    assert not any(
        _line_sums_hit(grid, values, 2, target) for grid in permutations(range(8), 4)
    )


def test_order5_latin_first_row():
    # Keys 2**a * 4**n + 2**b hit the target along a line exactly when its
    # tens and units indices are permutations (see search.enumerate_squares).
    n = 5
    keys = [2**a * 4**n + 2**b for a in range(n) for b in range(n)]
    target = (2**n - 1) * (4**n + 1)
    head = (0, 6, 12, 18, 24)
    grids = kernels.product_square_indices(keys, n, target, head)
    assert len(grids) == 432
    assert grids == sorted(grids)
    for grid in grids:
        assert grid[:n] == head and len(set(grid)) == n * n
        assert _line_sums_hit(grid, keys, n, target)


def test_order5_direct_first_row():
    # First row 00 11 22 55 88 over {0,1,2,5,8}, magic sum 176.
    n = 5
    values = _values((0, 1, 2, 5, 8))
    head = (0, 6, 12, 18, 24)
    assert [values[c] for c in head] == [0, 11, 22, 55, 88]
    grids = kernels.product_square_indices(values, n, 176, head)
    assert len(grids) == 5640
    assert grids == sorted(grids)
    for grid in grids:
        assert grid[:n] == head and len(set(grid)) == n * n
        assert _line_sums_hit(grid, values, n, 176)
