"""Acceptance gate: the ten criteria the artifact must reproduce exactly.

Each test covers one numbered criterion, asserts exact values, measures its
own runtime against the stated bound, and records a PASS/FAIL line that the
session prints after the run (see conftest.pytest_terminal_summary).
"""

import random
import time
from contextlib import contextmanager
from itertools import permutations, product

from segmagic import (
    ATOMIC_TRANSFORMS,
    Category,
    DIGIT_REVERSE,
    MIRROR_H,
    MIRROR_V,
    ROT180,
    apply_transform,
    classify,
    classify_universal,
    decompose_to_latin_pair,
    enumerate_squares,
    from_latin_pair,
    magic_sum,
    parse_alphabet,
    parse_square,
    render,
    scan,
)
from segmagic.dates import EXACTLY_USES, SUBSET_OF, format_date, parse_date
from segmagic.glyphs import (
    GLYPH_TRANSFORMS,
    digit_map,
    transform_mask,
)
from segmagic.squares import MAGIC_SAME_CONSTANT

from conftest import ACCEPTANCE_RESULTS, load_fixture
from test_properties import _random_pair


@contextmanager
def criterion(number: int, desc: str, bound: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        ACCEPTANCE_RESULTS.append(
            (number, desc, ok and elapsed < bound, elapsed, bound)
        )
    assert elapsed < bound, f"criterion {number} took {elapsed:.2f}s (bound {bound}s)"


def _assert_universal(name: str, constant: int) -> None:
    report = classify_universal(load_fixture(name))
    assert report.constant == constant
    for transform in ATOMIC_TRANSFORMS:
        verdict = report.universality[transform]
        assert verdict.kind == MAGIC_SAME_CONSTANT, (name, transform)
        assert verdict.constant == constant


def test_criterion_01_5x5_pandiagonal_universal():
    with criterion(1, "5x5 square: pandiagonal, 176, universal", 1.0):
        report = classify_universal(load_fixture("universal_5x5"))
        assert report.category is Category.PANDIAGONAL_MAGIC
        assert report.constant == 176
        assert str(report.cell_set) == "exact-product:01258"
        _assert_universal("universal_5x5", 176)


def test_criterion_02_4x4_1258_magic_universal():
    with criterion(2, "4x4 {1,2,5,8} square: magic, 176, universal", 1.0):
        report = classify(load_fixture("universal_4x4_1258"))
        assert report.category is Category.MAGIC
        assert report.constant == 176
        assert str(report.cell_set) == "exact-product:1258"
        _assert_universal("universal_4x4_1258", 176)


def test_criterion_03_4x4_0125_magic_universal():
    with criterion(3, "4x4 {0,1,2,5} square: magic, 88, universal", 1.0):
        report = classify(load_fixture("universal_4x4_0125"))
        assert report.category is Category.MAGIC
        assert report.constant == 88
        assert str(report.cell_set) == "exact-product:0125"
        _assert_universal("universal_4x4_0125", 88)


def test_criterion_04_palindromic_semi_magic():
    with criterion(4, "palindromic squares: semi-magic 888 / 1221", 1.0):
        for name, constant in (
            ("palindromic_3x3_888", 888),
            ("palindromic_3x3_1221", 1221),
        ):
            square = load_fixture(name)
            report = classify_universal(square)
            assert report.category is Category.SEMI_MAGIC, name
            assert report.category < Category.MAGIC  # the diagonals disagree
            assert report.constant == constant
            # Every transform image is at least semi-magic (the constant may
            # change, e.g. mirroring the 1221 square gives 1554).
            for verdict in report.universality.values():
                assert verdict.kind in ("semi-magic", "magic-same-constant",
                                        "magic-other-constant"), name


def test_criterion_05_digit_maps_and_mask_geometry():
    with criterion(5, "digit maps exact; rot180 = mirror-h after mirror-v", 1.0):
        assert digit_map(ROT180) == (0, 1, 2, None, None, 5, 9, None, 8, 6)
        mirror = (0, 1, 5, None, None, 2, None, None, 8, None)
        assert digit_map(MIRROR_H) == mirror
        assert digit_map(MIRROR_V) == mirror
        for mask in range(128):
            assert transform_mask(mask, ROT180) == transform_mask(
                transform_mask(mask, MIRROR_V), MIRROR_H
            )
            for transform in GLYPH_TRANSFORMS:
                assert (
                    transform_mask(transform_mask(mask, transform), transform)
                    == mask
                )


def _oracle_order3(alphabet):
    """Brute force all 9! cell arrangements; no pruning, no shared code."""
    cells = [f"{x}{y}" for x, y in product(alphabet, repeat=2)]
    values = [int(c) for c in cells]
    target = 11 * sum(alphabet)
    semi, magic, pandiagonal = [], [], []
    for perm in permutations(range(9)):
        v = [values[k] for k in perm]
        if v[0] + v[1] + v[2] != target:
            continue
        if v[3] + v[4] + v[5] != target or v[6] + v[7] + v[8] != target:
            continue
        if (
            v[0] + v[3] + v[6] != target
            or v[1] + v[4] + v[7] != target
            or v[2] + v[5] + v[8] != target
        ):
            continue
        concat = "".join(cells[k] for k in perm)
        semi.append(concat)
        if v[0] + v[4] + v[8] == target and v[2] + v[4] + v[6] == target:
            magic.append(concat)
            if (
                v[1] + v[5] + v[6] == target
                and v[2] + v[3] + v[7] == target
                and v[0] + v[5] + v[7] == target
                and v[1] + v[3] + v[8] == target
            ):
                pandiagonal.append(concat)
    return semi, magic, pandiagonal


def test_criterion_06_oracle_equivalence_order3():
    with criterion(6, "order-3 pruned search equals 9! brute force", 120.0):
        for alphabet in (parse_alphabet("125"), parse_alphabet("012")):
            oracle = _oracle_order3(alphabet)
            for requirement, expected in zip(
                (Category.SEMI_MAGIC, Category.MAGIC, Category.PANDIAGONAL_MAGIC),
                oracle,
            ):
                pruned = [s.concat for s in enumerate_squares(alphabet, requirement)]
                assert pruned == expected, (alphabet, requirement)


# Full order-4 counts, first computed by this enumeration and frozen as
# regression constants.
N4_MAGIC = 1152
N4_UNIVERSAL = 1152
N4_UNIVERSAL_ORBITS = 144


def test_criterion_07_full_order4_enumeration():
    with criterion(7, "full 4x4 enumeration + square reproduction", 600.0):
        for alphabet_text, fixture in (
            ("1258", "universal_4x4_1258"),
            ("0125", "universal_4x4_0125"),
        ):
            alphabet = parse_alphabet(alphabet_text)
            plain = enumerate_squares(alphabet, Category.MAGIC)
            assert sum(1 for _ in plain) == N4_MAGIC

            found = list(enumerate_squares(alphabet, Category.MAGIC, ATOMIC_TRANSFORMS))
            assert len(found) == N4_UNIVERSAL
            assert load_fixture(fixture) in found

            orbits = enumerate_squares(
                alphabet, Category.MAGIC, ATOMIC_TRANSFORMS, dedup=True
            )
            assert sum(1 for _ in orbits) == N4_UNIVERSAL_ORBITS


def test_criterion_08_latin_decomposition_round_trip():
    with criterion(8, "combination squares decompose to Latin pairs", 1.0):
        for name, alphabet in (
            ("universal_5x5", (0, 1, 2, 5, 8)),
            ("universal_4x4_1258", (1, 2, 5, 8)),
            ("universal_4x4_0125", (0, 1, 2, 5)),
        ):
            square = load_fixture(name)
            pair = decompose_to_latin_pair(square)
            assert pair is not None, name
            assert from_latin_pair(pair, alphabet) == square


def test_criterion_09_date_scans():
    with criterion(9, "2010 date scans: six exact, eleven subset", 1.0):
        found = scan(
            parse_date("01.01.2010"),
            parse_date("31.12.2010"),
            "01258",
            EXACTLY_USES,
        )
        assert [format_date(d) for d in found] == [
            "08.05.2010",
            "18.05.2010",
            "28.05.2010",
            "05.08.2010",
            "15.08.2010",
            "25.08.2010",
        ]
        found = scan(
            parse_date("01.05.2010"), parse_date("31.05.2010"), "0125", SUBSET_OF
        )
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


def test_criterion_10_property_suites():
    with criterion(10, "involutions, round-trips, 50 Latin-pair constants", 60.0):
        rng = random.Random(20100508)
        domains = {
            ROT180: "0125689",
            MIRROR_H: "01258",
            MIRROR_V: "01258",
            DIGIT_REVERSE: "0123456789",
        }
        fixture_squares = [
            load_fixture(name)
            for name in (
                "universal_5x5",
                "universal_4x4_1258",
                "universal_4x4_0125",
                "palindromic_3x3_888",
                "palindromic_3x3_1221",
            )
        ]
        # Involution wherever digit-valid: fixtures plus random squares drawn
        # from each transform's readable-digit domain.
        for transform, digits in domains.items():
            candidates = list(fixture_squares)
            for _ in range(20):
                order = rng.randint(1, 4)
                width = rng.randint(1, 3)
                rows = tuple(
                    tuple(
                        "".join(rng.choice(digits) for _ in range(width))
                        for _ in range(order)
                    )
                    for _ in range(order)
                )
                candidates.append(parse_square("\n".join(" ".join(r) for r in rows)))
            for square in candidates:
                if transform != DIGIT_REVERSE and not all(
                    ch in digits for cell in square.cells() for ch in cell
                ):
                    continue
                assert (
                    apply_transform(apply_transform(square, transform), transform)
                    == square
                )
        # Render/parse round trip.
        for square in fixture_squares:
            assert parse_square(render(square)) == square
        for _ in range(40):
            order = rng.randint(1, 4)
            width = rng.randint(1, 3)
            rows = [
                [
                    "".join(rng.choice("0123456789") for _ in range(width))
                    for _ in range(order)
                ]
                for _ in range(order)
            ]
            text = "\n".join(" ".join(row) for row in rows)
            assert render(parse_square(text)) == text
        # Fifty randomized orthogonal Latin pairs, orders 4 and 5: the
        # constant is always forced to 11 * sum(alphabet).
        for index in range(50):
            n = 4 if index % 2 == 0 else 5
            pair = _random_pair(rng, n)
            alphabet = tuple(sorted(rng.sample(range(10), n)))
            square = from_latin_pair(pair, alphabet)
            report = classify(square)
            assert report.category >= Category.SEMI_MAGIC
            assert report.constant == magic_sum(alphabet)
