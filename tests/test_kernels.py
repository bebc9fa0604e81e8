"""The direct-search kernel: validation, ordering, prefixes, counts."""

from itertools import product

import pytest

from segmagic import kernels


def _values(alphabet):
    return sorted(10 * a + b for a, b in product(alphabet, repeat=2))


def test_prefix_partition_reconstructs_unprefixed():
    values = _values((0, 1, 2))
    whole = kernels.product_square_indices(values, 3, 33)
    parts = []
    for k in range(9):
        parts.extend(kernels.product_square_indices(values, 3, 33, (k,)))
    assert parts == whole  # the chunks concatenate to the whole, in order
    assert sorted(whole) == whole  # unprefixed output is already sorted


def test_solutions_are_valid_grids():
    values = _values((0, 1, 2))
    grids = kernels.product_square_indices(values, 3, 33)
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
    grids = kernels.product_square_indices(values, 3, target)
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
    with pytest.raises(ValueError):
        kernels.product_square_indices(good[:5], 3, 33)
    with pytest.raises(ValueError):
        kernels.product_square_indices(sorted(good, reverse=True), 3, 33)
    with pytest.raises(ValueError):
        kernels.product_square_indices([1] * 9, 3, 33)
    with pytest.raises(ValueError):
        kernels.product_square_indices(good, 3, 33, (1, 1))
    with pytest.raises(ValueError):
        kernels.product_square_indices(good, 3, 33, (99,))


def test_kernel_where_latin_route_is_no_oracle():
    # 0+3 = 1+2, so the Latin route misses squares over {0,1,2,3}: pin the
    # kernel's own count for first cell 00.
    values = _values((0, 1, 2, 3))
    grids = kernels.product_square_indices(values, 4, 66, (0,))
    assert len(grids) == 22104
    assert grids == sorted(grids)
    assert all(grid[0] == 0 for grid in grids)
