"""Calendar scanning over digit alphabets."""

from collections import Counter
from datetime import date, timedelta

import pytest

from segmagic.dates import (
    EXACTLY_USES,
    SUBSET_OF,
    digits_of,
    format_date,
    parse_date,
    scan,
)


def test_parse_and_format_round_trip():
    assert parse_date("08.05.2010") == date(2010, 5, 8)
    assert format_date(date(2010, 5, 8)) == "08.05.2010"
    assert format_date(parse_date("01.01.1000")) == "01.01.1000"


def test_parse_rejects_bad_formats():
    for bad in ("8.5.10", "08/05/2010", "08.05", "aa.bb.cccc", "08.05.201O", ""):
        with pytest.raises(ValueError):
            parse_date(bad)


def test_parse_rejects_invalid_calendar_dates():
    with pytest.raises(ValueError):
        parse_date("31.02.2010")
    with pytest.raises(ValueError):
        parse_date("29.02.2011")  # not a leap year
    assert parse_date("29.02.2012") == date(2012, 2, 29)


def test_digits_of_multiset():
    assert digits_of(date(2010, 5, 8)) == Counter({0: 4, 8: 1, 5: 1, 2: 1, 1: 1})
    assert digits_of(date(1111, 11, 11)) == Counter({1: 8})
    assert set(digits_of(date(2010, 8, 25))) == {0, 1, 2, 5, 8}


def test_exact_scan_2010():
    found = scan(date(2010, 1, 1), date(2010, 12, 31), "01258", EXACTLY_USES)
    assert [format_date(d) for d in found] == [
        "08.05.2010",
        "18.05.2010",
        "28.05.2010",
        "05.08.2010",
        "15.08.2010",
        "25.08.2010",
    ]


def test_subset_scan_may_2010():
    found = scan(date(2010, 5, 1), date(2010, 5, 31), "0125", SUBSET_OF)
    assert [format_date(d) for d in found] == [
        "01.05.2010",
        "02.05.2010",
        "05.05.2010",
        "10.05.2010",
        "11.05.2010",
        "12.05.2010",
        "15.05.2010",
        "20.05.2010",
        "21.05.2010",
        "22.05.2010",
        "25.05.2010",
    ]


def test_scan_missing_year_digit_is_empty():
    assert scan(date(2010, 5, 1), date(2010, 5, 31), "015", SUBSET_OF) == []


def test_exact_results_subset_of_subset_results():
    start, end = date(2010, 1, 1), date(2010, 12, 31)
    exact = set(scan(start, end, "01258", EXACTLY_USES))
    subset = set(scan(start, end, "01258", SUBSET_OF))
    assert exact <= subset


def test_single_day_range():
    day = date(2010, 5, 8)
    assert scan(day, day, "01258", EXACTLY_USES) == [day]
    assert scan(day, day, "0125", SUBSET_OF) == []  # the 8 is outside


def test_scan_handles_leap_day():
    found = scan(date(2012, 2, 28), date(2012, 3, 1), "0129", EXACTLY_USES)
    assert found == [date(2012, 2, 29)]


def test_scan_alphabet_without_year_digits_empty_for_2010():
    for alphabet in ("013", "345", "025"):
        missing = {0, 1, 2} - {int(c) for c in alphabet}
        assert missing  # all three alphabets drop a year digit
        assert scan(date(2010, 1, 1), date(2010, 12, 31), alphabet, SUBSET_OF) == []


def test_scan_validation():
    with pytest.raises(ValueError):
        scan(date(2010, 5, 2), date(2010, 5, 1), "0125")
    with pytest.raises(ValueError):
        scan(date(2010, 5, 1), date(2010, 5, 2), "0125", "superset")
    with pytest.raises(ValueError):
        scan(date(999, 1, 1), date(1000, 1, 1), "0125")


# --- the pruned scan against a per-day reference --------------------------------


def reference_scan(start, end, alphabet, mode):
    """Every day of [start, end], checked one by one."""
    alpha = {int(ch) for ch in alphabet}
    out = []
    for k in range((end - start).days + 1):
        day = start + timedelta(days=k)
        digits = set(digits_of(day))
        if digits == alpha or (mode == SUBSET_OF and digits <= alpha):
            out.append(day)
    return out


RANGES = [
    (date(2010, 3, 15), date(2011, 7, 20)),  # starts and ends mid-month
    (date(1999, 12, 31), date(2013, 1, 1)),
    (date(2000, 2, 1), date(2000, 3, 31)),  # 2000 is a leap year
    (date(2012, 2, 29), date(2012, 2, 29)),
    (date(1900, 2, 1), date(1900, 3, 31)),  # 1900 and 2100 are not
    (date(2100, 2, 1), date(2100, 3, 31)),
    (date(2111, 11, 12), date(2111, 11, 12)),
    (date(1000, 1, 1), date(1000, 12, 31)),
    (date(9998, 11, 30), date(9999, 12, 31)),  # ends on the last date there is
]
ALPHABETS = ["01258", "0125", "0129", "01", "129", "19", "1", "0123456789"]


@pytest.mark.parametrize("mode", [SUBSET_OF, EXACTLY_USES])
@pytest.mark.parametrize("start, end", RANGES, ids=lambda d: format_date(d))
def test_scan_matches_per_day_reference(start, end, mode):
    for alphabet in ALPHABETS:
        assert scan(start, end, alphabet, mode) == reference_scan(
            start, end, alphabet, mode
        ), alphabet


def test_scan_counts_for_01258_over_the_century():
    start, end = date(2000, 1, 1), date(2099, 12, 31)
    assert len(scan(start, end, "01258", SUBSET_OF)) == 2450
    assert len(scan(start, end, "01258", EXACTLY_USES)) == 530
