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
"""

import hashlib
from pathlib import Path

from segmagic import Category, enumerate_squares

CENSUS = Path(__file__).resolve().parent / "census.txt"

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


def test_census():
    lines = [
        line.split()
        for line in CENSUS.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    assert len(lines) == 1710
    assert sum(int(fields[4]) for fields in lines) == 16272
    mismatches = [
        fields[:4]
        for fields in lines
        if census_entry(*fields[:4]) != (int(fields[4]), fields[5])
    ]
    assert mismatches == []
