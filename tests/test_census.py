"""The frozen census: every order-3 and order-4 query that runs in well under
a second, with its square count and stream digest.

``census.txt`` holds one query per line: alphabet, level, transforms ("-"
for none), "dedup" or "-", the number of squares and the first 16 hex digits
of the SHA-256 of the newline-joined concatenations, as in
``test_search._DIRECT_STREAMS``.  It covers every 3-digit alphabet at every
level with no transforms, with digit-reverse and dedup, and with all four
transforms and dedup, and every 4-digit alphabet at every level with all
four transforms and dedup.  The counts and digests were taken at commit
1273a57, before the search read its first rows off the kernel's target-sum
sets; a change to the search must leave them as they are.

``census_single.txt``, in the same format, holds direct-route queries that
neither file above has: every 4-digit alphabet in which two pairs of
distinct digits have the same sum (50 alphabets), at the semi-magic and the
magic level, with rot180, mirror-h or mirror-v alone and without dedup.
Its counts and digests were taken at commit 38f5dcf, before the kernel got
only the lines that reach the constant in every universality image.

``census_ci.txt``, in the same format, holds the slow half: every 4-digit
alphabet at every level with no transforms, and with digit-reverse and
dedup.  Its counts and digests were taken at commit 30a795a, before the
kernel's checked and unchecked permutation loops became one.  It takes
about 6 minutes in one process on a 2-vCPU machine, too long for the test
suite, so it runs as a script, as CI does::

    PYTHONPATH=src python tests/test_census.py
"""

import hashlib
import sys
from pathlib import Path

from segmagic import Category, enumerate_squares

CENSUS = Path(__file__).resolve().parent / "census.txt"
CENSUS_CI = CENSUS.with_name("census_ci.txt")
CENSUS_SINGLE = CENSUS.with_name("census_single.txt")

LEVELS = {
    "semi": Category.SEMI_MAGIC,
    "magic": Category.MAGIC,
    "pandiagonal": Category.PANDIAGONAL_MAGIC,
}


def census_entry(alphabet, level, transforms, dedup):
    """(count, digest prefix) of one query's stream."""
    universality = () if transforms == "-" else tuple(transforms.split(","))
    stream = enumerate_squares(
        alphabet, LEVELS[level], universality, dedup=dedup == "dedup"
    )
    concats = [square.concat for square in stream]
    digest = hashlib.sha256("\n".join(concats).encode()).hexdigest()
    return len(concats), digest[:16]


def read_census(path):
    """The fields of every query line of a census file."""
    return [
        line.split()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]


def mismatches(lines):
    """The queries of ``lines`` whose count or digest differs."""
    return [
        fields[:4]
        for fields in lines
        if census_entry(*fields[:4]) != (int(fields[4]), fields[5])
    ]


def test_census():
    lines = read_census(CENSUS)
    assert len(lines) == 1710
    assert sum(int(fields[4]) for fields in lines) == 16272
    assert mismatches(lines) == []


def test_single_transform_census():
    lines = read_census(CENSUS_SINGLE)
    assert len(lines) == 300
    assert len({fields[0] for fields in lines}) == 50
    squares = {"semi": 0, "magic": 0}
    for fields in lines:
        squares[fields[1]] += int(fields[4])
    assert squares == {"semi": 13824, "magic": 2304}
    assert mismatches(lines) == []


if __name__ == "__main__":
    lines = read_census(CENSUS_CI)
    squares = sum(int(fields[4]) for fields in lines)
    if (len(lines), squares) != (1260, 26339968):
        sys.exit(f"{CENSUS_CI.name}: {len(lines)} queries, {squares} squares")
    failed = mismatches(lines)
    for fields in failed:
        print("mismatch:", *fields)
    print(f"{len(lines)} queries, {squares} squares, {len(failed)} mismatches")
    sys.exit(1 if failed else 0)
