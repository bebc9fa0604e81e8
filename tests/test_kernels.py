"""The line-set generator: validation, ordering, first rows, counts."""

import random
from itertools import combinations, permutations, product
from math import factorial

import pytest

from segmagic import kernels

from conftest import joined_grids, transversals


def _values(alphabet):
    return sorted(10 * a + b for a, b in product(alphabet, repeat=2))


def _complete(values, row):
    """The kernel's grids for ``row`` over the lines of ``values`` that reach
    the row's sum."""
    sets = kernels.line_sets(values, len(row))[sum(values[c] for c in row)]
    return kernels.product_square_indices(sets, row)


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
        # 8 of the 72 grids hold the diagonals too.
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
    assert _complete(good, row)
    with pytest.raises(ValueError):
        _complete(good[:5], row)
    with pytest.raises(ValueError):
        _complete(sorted(good, reverse=True), row)
    with pytest.raises(ValueError):
        _complete([1] * 9, row)
    sets = kernels.line_sets(good, 3)[33]
    with pytest.raises(ValueError):
        kernels.product_square_indices(sets, (1, 1, 2))
    with pytest.raises(ValueError):
        kernels.product_square_indices(sets, (0, 4, 99))
    with pytest.raises(ValueError):
        kernels.product_square_indices(sets, ())


def test_bad_row_raises():
    # The kernel checks only its first row: repeated cells, an empty row, a
    # negative cell and rows whose cells are not one of the lines.
    sets = kernels.line_sets(_values((0, 1, 2)), 3)[33]
    for row in [(0, 0, 8), (0,) * 10, (), (-1, 4, 8), (0, 1, 2), (0, 4, 100)]:
        with pytest.raises(ValueError, match="first row must be distinct"):
            kernels.product_square_indices(sets, row)


def test_lines_are_ascending_cell_tuples():
    # line_sets lists each line as its ascending cells, which sum to its
    # key; the kernel takes the lines as any sequences of cells, and a first
    # row must hold the cells of one of them.
    values = _values((0, 1, 2))
    by_sum = kernels.line_sets(values, 3)
    assert sum(map(len, by_sum.values())) == 84  # C(9, 3)
    for total, lines in by_sum.items():
        for line in lines:
            assert type(line) is tuple and list(line) == sorted(set(line))
            assert sum(values[c] for c in line) == total
    lines = by_sum[33]
    grids = kernels.product_square_indices(lines, (0, 4, 8))
    assert len(grids) == 2
    assert kernels.product_square_indices(list(map(list, lines)), (0, 4, 8)) == grids
    assert (0, 4, 8) in lines and (0, 3, 8) not in lines  # 00 10 22 sum to 32
    others = [line for line in lines if line != (0, 4, 8)]
    for family, row in [(lines, (0, 3, 8)), (others, (0, 4, 8))]:
        with pytest.raises(ValueError, match="first row must be distinct"):
            kernels.product_square_indices(family, row)


def test_kernel_where_latin_route_is_no_oracle():
    # 0+3 = 1+2, so the Latin route misses squares over {0,1,2,3}: pin the
    # kernel's own count for first cell 00.
    values = _values((0, 1, 2, 3))
    grids = joined_grids(values, 4, 66, (0,))
    assert len(grids) == 22104
    assert grids == sorted(grids)
    assert all(grid[0] == 0 for grid in grids)


# The rows, then the columns, of a 3×3 grid, as row-major positions.
_LINES_3 = [range(r, r + 3) for r in (0, 3, 6)] + [range(c, 9, 3) for c in range(3)]


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
    # The order and the target come from the row: (0,) is the 1x1 grid of 3.
    assert _complete(values, (1,)) == [(1,)]
    assert _complete(values, (0,)) == [(0,)]


@pytest.mark.parametrize("seed", range(3))
def test_order3_any_family_matches_brute_force(seed):
    # For a family of 3-cell lines that no sum or Latin pair defines, the
    # grids are still exactly those whose rows and columns are all lines:
    # the last column, which the others leave, must be one too.
    sets = random.Random(seed).sample(list(combinations(range(9), 3)), 40)
    for row in sets:
        rest = [c for c in range(9) if c not in row]
        grids = (row + tail for tail in permutations(rest))
        brute = [
            g
            for g in grids
            if all(tuple(sorted(g[p] for p in line)) in sets for line in _LINES_3)
        ]
        assert kernels.product_square_indices(sets, row) == brute


@pytest.mark.parametrize("target", range(3, 16))
def test_order2_has_no_grid_of_distinct_cells(target):
    # a + b = a + c forces b = c: no 2x2 grid of distinct cells qualifies.
    values = list(range(1, 9))
    assert joined_grids(values, 2, target) == []
    assert not any(
        _line_sums_hit(grid, values, 2, target) for grid in permutations(range(8), 4)
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_transversals_are_the_key_sum_lines(n):
    # Cell a·n + b with key 2**a * 4**n + 2**b: a sum of n powers of two is
    # 2**n - 1 only when it holds each power once, and the units part stays
    # below 4**n, so a line's keys reach (2**n - 1) * (4**n + 1) exactly when
    # its a's and its b's are permutations.  Summing values, the kernel's
    # other line family, finds the transversals the Latin route builds.
    keys = [2**a * 4**n + 2**b for a in range(n) for b in range(n)]
    lines = kernels.line_sets(keys, n)[(2**n - 1) * (4**n + 1)]
    latin = transversals(n)
    assert len(set(latin)) == factorial(n)
    assert sorted(lines) == sorted(latin)


def test_order5_latin_first_row():
    # With the transversals as lines, every row and column holds each tens
    # index a and each units index b of its cells a·n + b once.
    n = 5
    head = (0, 6, 12, 18, 24)
    grids = kernels.product_square_indices(transversals(n), head)
    assert len(grids) == 432
    assert grids == sorted(grids)
    lines = [range(r * n, r * n + n) for r in range(n)]
    lines += [range(c, n * n, n) for c in range(n)]
    for grid in grids:
        assert grid[:n] == head and len(set(grid)) == n * n
        for line in lines:
            assert {grid[p] // n for p in line} == set(range(n))
            assert {grid[p] % n for p in line} == set(range(n))


def test_order5_direct_first_row():
    # First row 00 11 22 55 88 over {0,1,2,5,8}, magic sum 176.
    n = 5
    values = _values((0, 1, 2, 5, 8))
    head = (0, 6, 12, 18, 24)
    assert [values[c] for c in head] == [0, 11, 22, 55, 88]
    grids = _complete(values, head)
    assert len(grids) == 5640
    assert grids == sorted(grids)
    for grid in grids:
        assert grid[:n] == head and len(set(grid)) == n * n
        assert _line_sums_hit(grid, values, n, 176)
