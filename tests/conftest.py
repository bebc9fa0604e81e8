"""Shared fixtures and the acceptance-summary reporter."""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

import pytest

from segmagic import Square, kernels, parse_square, search

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (number, description, passed, elapsed seconds, bound seconds) tuples filled
# in by tests/test_acceptance.py; printed after the run, outside capture.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, float, float]] = []


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.sq"


def load_fixture(name: str) -> Square:
    return parse_square(fixture_path(name).read_text(encoding="utf-8"))


def joined_grids(values, order, target, start=()):
    """The kernel's grids for every first row that begins with ``start`` and
    sums to ``target``, joined in ascending order of the rows."""
    rest = [i for i in range(len(values)) if i not in start]
    rows = (start + tail for tail in permutations(rest, order - len(start)))
    sets = kernels.line_sets(values, order).get(target, ())
    return [
        grid
        for row in rows
        if sum(values[c] for c in row) == target
        for grid in kernels.product_square_indices(sets, row)
    ]


def transversals(n):
    """The Latin route's lines: the n! ascending tuples of the n cells a·n + b
    that hold each a once and each b once."""
    return [tuple(a * n + p[a] for a in range(n)) for p in permutations(range(n))]


def diagonals_hit(grid, values, n, target):
    """Both main diagonals of the row-major index grid sum to ``target``."""
    down = sum(values[grid[i * n + i]] for i in range(n))
    up = sum(values[grid[i * n + n - 1 - i]] for i in range(n))
    return down == up == target


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """The first rows of every kernel call the test makes, in call order."""
    calls = []
    kernel = kernels.product_square_indices

    def recording(lines, row):
        calls.append(row)
        return kernel(lines, row)

    monkeypatch.setattr(kernels, "product_square_indices", recording)
    return calls


@pytest.fixture
def kernel_grids(kernel_calls, monkeypatch) -> list:
    """How many grids each kernel call the test makes returns, in call order."""
    counts = []
    kernel = kernels.product_square_indices

    def counting(lines, row):
        grids = kernel(lines, row)
        counts.append(len(grids))
        return grids

    monkeypatch.setattr(kernels, "product_square_indices", counting)
    return counts


@pytest.fixture
def first_rows(monkeypatch) -> list:
    """The admissible first rows every search the test runs generates, in
    order, on either route."""
    rows = []
    generate = search._first_rows

    def recording(*args):
        for row in generate(*args):
            rows.append(row)
            yield row

    monkeypatch.setattr(search, "_first_rows", recording)
    return rows


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, desc, passed, elapsed, bound in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {number:2d} {status}  {desc}  "
            f"[{elapsed:.2f}s < {bound:g}s]"
        )
