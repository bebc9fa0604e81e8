"""Scan calendar ranges for dates written with a restricted digit alphabet.

Dates render as dd.mm.yyyy with zero padding, always eight digits; a date
matches in ``subset`` mode when its distinct digits all come from the
alphabet, and in ``exact`` mode when they are precisely the alphabet.
"""

from __future__ import annotations

from collections import Counter
from datetime import date
from typing import Iterable

from .glyphs import parse_alphabet

SUBSET_OF = "subset"
EXACTLY_USES = "exact"
MODES = (SUBSET_OF, EXACTLY_USES)

# Days of each month (index 1..12) in a common year.
_MONTH_DAYS = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def parse_date(text: str) -> date:
    """Parse dd.mm.yyyy."""
    parts = text.split(".")
    if len(parts) != 3 or not all(p.isdigit() and p.isascii() for p in parts):
        raise ValueError(f"expected dd.mm.yyyy, got {text!r}")
    day, month, year = (int(p) for p in parts)
    if len(parts[2]) != 4:
        raise ValueError(f"year must have four digits: {text!r}")
    return date(year, month, day)


def format_date(d: date) -> str:
    return f"{d.day:02d}.{d.month:02d}.{d.year:04d}"


def digits_of(d: date) -> Counter[int]:
    """The multiset of the eight digits of dd mm yyyy."""
    return Counter(int(ch) for ch in f"{d.day:02d}{d.month:02d}{d.year:04d}")


def scan(
    start: date, end: date, alphabet: str | Iterable[int], mode: str = SUBSET_OF
) -> list[date]:
    """Ascending dates in [start, end] whose digits match the alphabet.

    Both modes need every digit of a match in the alphabet, so the scan walks
    year, then month, then day, and skips a year or a month once the digits
    written so far leave the alphabet; only the days it reaches are checked
    against the alphabet, and only the matches against the range.
    """
    alpha = {str(d) for d in parse_alphabet(alphabet)}
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if start > end:
        raise ValueError(f"empty range: {format_date(start)} > {format_date(end)}")
    if start.year < 1000 or end.year > 9999:
        raise ValueError("years must have four digits")
    out = []
    for year in range(start.year, end.year + 1):
        year_digits = set(f"{year:04d}")
        if not year_digits <= alpha:
            continue
        leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        for month in range(1, 13):
            prefix = year_digits | set(f"{month:02d}")
            if not prefix <= alpha:
                continue
            for day in range(1, _MONTH_DAYS[month] + (leap and month == 2) + 1):
                digits = prefix | set(f"{day:02d}")
                if digits == alpha or (mode == SUBSET_OF and digits <= alpha):
                    found = date(year, month, day)
                    if start <= found <= end:
                        out.append(found)
    return out
