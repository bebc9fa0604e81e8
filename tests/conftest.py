"""Shared fixtures and the acceptance-summary reporter."""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

import pytest

from segmagic import Square, kernels, parse_square

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# (number, description, passed, elapsed seconds, bound seconds) tuples filled
# in by tests/test_acceptance.py; printed after the run, outside capture.
ACCEPTANCE_RESULTS: list[tuple[int, str, bool, float, float]] = []


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.sq"


def load_fixture(name: str) -> Square:
    return parse_square(fixture_path(name).read_text(encoding="utf-8"))


def joined_grids(values, order, target, start=()):
    """The kernel's grids for every first row that begins with ``start``,
    joined in ascending order of the rows."""
    rest = [i for i in range(len(values)) if i not in start]
    return [
        grid
        for tail in permutations(rest, order - len(start))
        for grid in kernels.product_square_indices(values, order, target, start + tail)
    ]


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """The first rows of every kernel call the test makes, in call order."""
    calls = []
    kernel = kernels.product_square_indices

    def recording(values, order, target, row):
        calls.append(row)
        return kernel(values, order, target, row)

    monkeypatch.setattr(kernels, "product_square_indices", recording)
    return calls


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
