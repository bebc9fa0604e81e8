"""The benchmark's workloads: fixed command lines and the check of each output.

No input is random.  The search workloads run one ``segmagic search``
command line; ``paper-cli`` runs the paper's own commands on the five
fixture squares, two date ranges and two palindromic searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from functools import partial
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
ALL_TRANSFORMS = "rot180,mirror-h,mirror-v,digit-reverse"


def fixture(name: str) -> checks.Grid:
    return checks.parse_grid((FIXTURES / f"{name}.sq").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Search:
    """One search command line, run in-process through segmagic.cli.main."""

    argv: tuple[str, ...]
    alphabet: str
    level: str
    jsonl: bool
    fixture: str

    def check(self, stdout: str, stderr: str, rc: int) -> list[str]:
        return checks.check_search(
            stdout, stderr, rc, self.alphabet, self.level, self.jsonl, fixture(self.fixture)
        )


SEARCHES = {
    "order4-direct": Search(
        ("search", "--alphabet", "1258", "--expect", "magic",
         "--transforms", ALL_TRANSFORMS, "--dedup"),
        "1258", "magic", False, "universal_4x4_1258",
    ),
    "order4-latin-jsonl": Search(
        ("search", "--alphabet", "0125", "--expect", "semi", "--via-latin",
         "--transforms", ALL_TRANSFORMS, "--dedup", "--jsonl"),
        "0125", "semi-magic", True, "universal_4x4_0125",
    ),
}


@dataclass(frozen=True)
class Command:
    """One ``python -m segmagic`` process and the check of its output."""

    argv: tuple[str, ...]
    check: Callable[[str, str, int], list[str]]  # (stdout, stderr, rc) -> problems


# (fixture, the paper's constant, frame label for the bordered render, universal)
PAPER_FIXTURES = (
    ("universal_5x5", 176, "88+88", True),
    ("universal_4x4_1258", 176, "88", True),
    ("universal_4x4_0125", 88, "88", True),
    ("palindromic_3x3_888", 888, "888", False),
    ("palindromic_3x3_1221", 1221, "888", False),
)

PALINDROMES_125 = ("palindromes", "--alphabet", "125", "--order", "3", "--width", "3")


def paper_commands() -> list[Command]:
    """The paper-cli operations, in the order one pass runs them (cwd: ROOT)."""
    out = []
    for name, constant, label, universal in PAPER_FIXTURES:
        path = f"fixtures/{name}.sq"
        grid = fixture(name)
        out += [
            Command(("verify", path),
                    lambda o, e, rc, g=grid, k=constant: checks.check_verify(o, rc, g, k)),
            Command(("classify", path, "--json"),
                    lambda o, e, rc, g=grid, u=universal: checks.check_classify(o, rc, g, u)),
            Command(("transform", path, "--apply", "rot180"),
                    lambda o, e, rc, g=grid: checks.check_transform(o, rc, g, "rot180")),
            Command(("render", path, "--style", "bordered", "--border-label", label),
                    lambda o, e, rc, g=grid, b=label: checks.check_bordered(o, rc, g, b)),
        ]
    exact = checks.scan_dates(date(2010, 1, 1), date(2010, 12, 31), "01258", "exact")
    subset = checks.scan_dates(date(2000, 1, 1), date(2099, 12, 31), "01258", "subset")
    out += [
        Command(("dates", "--alphabet", "01258", "--from", "01.01.2010",
                 "--to", "31.12.2010", "--mode", "exact"),
                lambda o, e, rc: checks.check_dates(o, rc, exact, checks.PAPER_DAYS_2010)),
        Command(("dates", "--alphabet", "01258", "--from", "01.01.2000",
                 "--to", "31.12.2099", "--mode", "subset"),
                lambda o, e, rc: checks.check_dates(o, rc, subset, None)),
        Command(PALINDROMES_125,
                partial(checks.check_palindromes, alphabet="125", width=3, jsonl=False,
                        fixture=fixture("palindromic_3x3_888"))),
        Command(("palindromes", "--alphabet", "0125", "--order", "3", "--width", "3", "--jsonl"),
                partial(checks.check_palindromes, alphabet="0125", width=3, jsonl=True,
                        fixture=None)),
    ]
    return out
