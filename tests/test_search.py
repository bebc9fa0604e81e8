"""Enumeration, Latin-pair construction/decomposition, palindromic search."""

from itertools import combinations, islice, product

import pytest

from segmagic import (
    ATOMIC_TRANSFORMS,
    Category,
    LatinPair,
    Square,
    apply_transform,
    classify,
    classify_universal,
    decompose_to_latin_pair,
    enumerate_palindromic,
    enumerate_squares,
    from_latin_pair,
    magic_sum,
    parse_alphabet,
    parse_square,
)
from segmagic.search import LatinPairError
from segmagic.squares import MAGIC_SAME_CONSTANT, InvalidDigitError

from conftest import joined_grids, load_fixture


# --- alphabets and constants --------------------------------------------------


def test_parse_alphabet_normalizes():
    assert parse_alphabet("8521") == (1, 2, 5, 8)
    assert parse_alphabet([5, 0]) == (0, 5)
    assert parse_alphabet("0") == (0,)


def test_parse_alphabet_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_alphabet("12a")
    with pytest.raises(ValueError):
        parse_alphabet("1221")
    with pytest.raises(ValueError):
        parse_alphabet("")
    with pytest.raises(ValueError):
        parse_alphabet([1, 10])


def test_magic_sum_values():
    assert magic_sum((1, 2, 5, 8)) == 176
    assert magic_sum((0, 1, 2, 5, 8)) == 176
    assert magic_sum((0, 1, 2, 5)) == 88


@pytest.mark.parametrize(
    "args",
    [("12a",), ("125", Category.NOT_MAGIC), ("125", Category.MAGIC, ("transpose",))],
    ids=["non-digit-alphabet", "not-magic", "unknown-transform"],
)
@pytest.mark.parametrize("via_latin", [False, True])
def test_bad_input_raises_on_first_next(kernel_calls, args, via_latin):
    stream = enumerate_squares(*args, via_latin=via_latin)
    with pytest.raises(ValueError):
        next(stream)
    assert kernel_calls == []


def test_latin_pair_record():
    pair = LatinPair(((0,),), ((0,),))
    assert repr(pair) == "LatinPair(a=((0,),), b=((0,),))"
    assert pair == LatinPair(a=((0,),), b=((0,),))
    assert hash(pair) == hash((((0,),), ((0,),)))
    assert pair.order == 1
    with pytest.raises(AttributeError):
        pair.a = ((1,),)


# --- direct enumeration ---------------------------------------------------------


def test_order3_counts():
    # Regression constants, first computed by this enumeration and confirmed
    # by the 9!-permutation oracle in the acceptance suite.
    for alphabet, magic_count in (("125", 0), ("012", 8), ("258", 8)):
        semi = list(enumerate_squares(alphabet, Category.SEMI_MAGIC))
        magic = list(enumerate_squares(alphabet, Category.MAGIC))
        pan = list(enumerate_squares(alphabet, Category.PANDIAGONAL_MAGIC))
        assert len(semi) == 72, alphabet
        assert len(magic) == magic_count, alphabet
        assert pan == []  # no 3x3 square has all wrap diagonals magic


def test_enumeration_is_lexicographic_and_duplicate_free():
    concats = [s.concat for s in enumerate_squares("125", Category.SEMI_MAGIC)]
    assert concats == sorted(concats)
    assert len(set(concats)) == len(concats)


def test_enumeration_is_lazy(kernel_calls):
    for alphabet, requirement, via_latin in product(
        ("1258", "0125"), (Category.SEMI_MAGIC, Category.MAGIC), (False, True)
    ):
        kernel_calls.clear()
        first = next(enumerate_squares(alphabet, requirement, via_latin=via_latin))
        case = (alphabet, requirement, via_latin)
        assert classify(first).category >= requirement, case
        # One first-row call, the doubled digits (11 22 55 88 over 1258):
        # the least row that reaches the constant and the least Latin row,
        # not the whole grid space.
        assert kernel_calls == [(0, 5, 10, 15)], case


def test_emitted_squares_reverify():
    for square in enumerate_squares("012", Category.MAGIC):
        report = classify(square)
        assert report.category >= Category.MAGIC
        assert report.constant == 33
        assert str(report.cell_set) == "exact-product:012"


def test_requirement_streams_nest():
    semi = {s.concat for s in enumerate_squares("012", Category.SEMI_MAGIC)}
    magic = {s.concat for s in enumerate_squares("012", Category.MAGIC)}
    assert magic <= semi


_TRANSFORM_SUBSETS = [
    subset
    for r in range(1, len(ATOMIC_TRANSFORMS) + 1)
    for subset in combinations(ATOMIC_TRANSFORMS, r)
]


@pytest.mark.parametrize(
    "transforms", _TRANSFORM_SUBSETS, ids=["+".join(t) for t in _TRANSFORM_SUBSETS]
)
@pytest.mark.parametrize("alphabet", ["012", "069", "126", "258"])
def test_universality_filter_and_dedup_order3(alphabet, transforms):
    # The filter keeps exactly the squares whose images, built and classified
    # as whole squares, stay at the level with the same constant.  Over
    # {1,2,6} a half turn maps 6 to 9, so images leave the alphabet's cells.
    for requirement in (Category.SEMI_MAGIC, Category.MAGIC):
        target = magic_sum(parse_alphabet(alphabet))
        expected = [
            s.concat
            for s in enumerate_squares(alphabet, requirement)
            if all(_image_keeps_level(s, t, requirement, target) for t in transforms)
        ]
        universal = list(enumerate_squares(alphabet, requirement, transforms))
        assert [s.concat for s in universal] == expected
        deduped = list(enumerate_squares(alphabet, requirement, transforms, dedup=True))
        # Each surviving square is the least member of its orbit, and
        # expanding the orbits recovers the whole universal set.
        assert {s.concat for s in deduped} <= set(expected)
        for square in deduped:
            assert min(_orbit(square, transforms)) == square.concat
        recovered = set()
        for square in deduped:
            recovered |= _orbit(square, transforms)
        assert recovered == set(expected)


def _image_keeps_level(square, transform, requirement, target):
    try:
        report = classify(apply_transform(square, transform))
    except InvalidDigitError:
        return False
    return report.category >= requirement and report.constant == target


def _orbit(square, transforms):
    seen = {square.concat: square}
    frontier = [square]
    while frontier:
        current = frontier.pop()
        for name in transforms:
            try:
                image = apply_transform(current, name)
            except InvalidDigitError:
                continue
            if image.concat not in seen:
                seen[image.concat] = image
                frontier.append(image)
    return set(seen)


def test_order4_regression_counts():
    # Full-order-4 counts; frozen after the first verified run.
    assert sum(1 for _ in enumerate_squares("1258", Category.MAGIC)) == 1152
    # The paper's 144 universal orbits, and the Latin route's semi-magic
    # orbits over {0,1,2,5}.
    universal = enumerate_squares("1258", universality=ATOMIC_TRANSFORMS, dedup=True)
    assert sum(1 for _ in universal) == 144
    semi = enumerate_squares(
        "0125", Category.SEMI_MAGIC, ATOMIC_TRANSFORMS, dedup=True, via_latin=True
    )
    assert sum(1 for _ in semi) == 864


@pytest.mark.parametrize("alphabet", ["1258", "0125"])
def test_first_row_pruning_is_exact(alphabet):
    # Reference without any pruning: the kernel's grids over every first row
    # whose diagonals reach the constant, kept when every image is magic with
    # the same constant and no member of the orbit sorts below the square.
    digits = parse_alphabet(alphabet)
    cells = [f"{x}{y}" for x in digits for y in digits]
    values = [int(c) for c in cells]
    target = magic_sum(digits)
    expected = []
    for grid in joined_grids(values, 4, target):
        grid_values = [values[c] for c in grid]
        if sum(grid_values[0::5]) != target or sum(grid_values[3:13:3]) != target:
            continue
        square = Square.from_rows(
            tuple(cells[c] for c in grid[i : i + 4]) for i in range(0, 16, 4)
        )
        report = classify_universal(square)
        if all(v.kind == MAGIC_SAME_CONSTANT for v in report.universality.values()):
            if min(_orbit(square, ATOMIC_TRANSFORMS)) == square.concat:
                expected.append(square.concat)
    assert len(expected) == 144
    found = enumerate_squares(alphabet, universality=ATOMIC_TRANSFORMS, dedup=True)
    assert [s.concat for s in found] == expected


def test_first_row_pruning_call_counts(kernel_calls):
    universal = enumerate_squares("1258", universality=ATOMIC_TRANSFORMS, dedup=True)
    assert sum(1 for _ in universal) == 144
    assert len(kernel_calls) == 156  # admissible first rows
    assert kernel_calls == sorted(kernel_calls)
    kernel_calls.clear()
    assert sum(1 for _ in enumerate_squares("1258")) == 1152
    assert len(kernel_calls) == 888  # every first row that reaches 176
    assert kernel_calls == sorted(kernel_calls)


# --- Latin pairs -----------------------------------------------------------------


def _reference_squares():
    for name in ("universal_5x5", "universal_4x4_1258", "universal_4x4_0125"):
        square = load_fixture(name)
        yield name, square


def test_reference_squares_decompose_and_reconstruct():
    for name, square in _reference_squares():
        pair = decompose_to_latin_pair(square)
        assert pair is not None, name
        alphabet = parse_alphabet(sorted({int(ch) for c in square.cells() for ch in c}))
        assert from_latin_pair(pair, alphabet) == square


def test_from_latin_pair_forces_constant():
    pair = decompose_to_latin_pair(load_fixture("universal_4x4_1258"))
    square = from_latin_pair(pair, (1, 2, 5, 8))
    report = classify(square)
    assert report.constant == 176
    assert str(report.cell_set) == "exact-product:1258"


def test_from_latin_pair_trivial_order1():
    pair = LatinPair(((0,),), ((0,),))
    assert from_latin_pair(pair, (7,)) == parse_square("77")


def test_round_trip_from_pair():
    pair = decompose_to_latin_pair(load_fixture("universal_5x5"))
    rebuilt = from_latin_pair(pair, (0, 1, 2, 5, 8))
    assert decompose_to_latin_pair(rebuilt) == pair


def test_from_latin_pair_rejects_non_latin():
    grid_bad = ((0, 1), (0, 1))  # column repeats
    grid_ok = ((0, 1), (1, 0))
    with pytest.raises(LatinPairError):
        from_latin_pair(LatinPair(grid_bad, grid_ok), (1, 2))


def test_from_latin_pair_rejects_non_orthogonal():
    grid = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    with pytest.raises(LatinPairError):
        from_latin_pair(LatinPair(grid, grid), (1, 2, 5))


def test_from_latin_pair_rejects_wrong_alphabet_size():
    pair = LatinPair(((0, 1), (1, 0)), ((1, 0), (0, 1)))
    with pytest.raises(LatinPairError):
        from_latin_pair(pair, (1, 2, 5))


def test_decompose_requires_width_two():
    with pytest.raises(ValueError):
        decompose_to_latin_pair(parse_square("123 456 789\n456 789 123\n789 123 456"))


def test_decompose_rejects_non_product_cells():
    assert decompose_to_latin_pair(parse_square("11 11\n11 11")) is None
    assert decompose_to_latin_pair(parse_square("00 01\n10 11")) is None


def test_via_latin_equals_direct():
    for alphabet in ("125", "012", "1258", "0125"):
        for requirement in (Category.SEMI_MAGIC, Category.MAGIC):
            direct = [s.concat for s in enumerate_squares(alphabet, requirement)]
            latin = [
                s.concat
                for s in enumerate_squares(alphabet, requirement, via_latin=True)
            ]
            assert direct == latin, (alphabet, requirement)


def test_via_latin_refuses_colliding_pair_sums():
    # 0+3 = 1+2: the Latin route would find 6,912 of the 353,664 semi-magic
    # squares over {0,1,2,3}.  A repeated digit does not count: 5+5 = 2+8 in
    # {1,2,5,8}, which both routes agree on (test_via_latin_equals_direct).
    for requirement in (Category.SEMI_MAGIC, Category.MAGIC):
        with pytest.raises(ValueError, match="0123"):
            next(enumerate_squares("0123", requirement, via_latin=True))


@pytest.mark.parametrize("alphabet, count", [("125", 72), ("1258", 6912)])
def test_via_latin_yields_exactly_the_latin_pairs(alphabet, count):
    squares = list(enumerate_squares(alphabet, Category.SEMI_MAGIC, via_latin=True))
    assert len(squares) == count
    assert all(decompose_to_latin_pair(square) is not None for square in squares)


# Magic squares over {0,1,2,5,8} whose digit grids are not Latin: the Latin
# route cannot yield them, so without mirror-h and digit-reverse it refuses.
_NOT_LATIN_5x5 = (
    "00 01 08 82 85\n20 88 15 02 51\n58 11 50 52 05\n80 21 22 28 25\n18 55 81 12 10",
    "12 10 11 55 88\n52 58 50 01 15\n22 80 05 18 51\n08 00 85 81 02\n82 28 25 21 20",
)


@pytest.mark.parametrize("text", _NOT_LATIN_5x5)
def test_order5_magic_squares_that_are_not_latin_pairs(text):
    square = parse_square(text)
    report = classify_universal(square, ("mirror-h",))
    assert report.category >= Category.MAGIC
    assert report.constant == 176
    assert str(report.cell_set) == "exact-product:01258"
    assert decompose_to_latin_pair(square) is None
    assert report.universality["mirror-h"].kind == "not-magic"


@pytest.mark.parametrize("requirement", [Category.SEMI_MAGIC, Category.MAGIC])
@pytest.mark.parametrize(
    "universality", [(), ("mirror-h",), ("digit-reverse",), ("rot180", "mirror-v")]
)
def test_via_latin_order5_needs_mirror_h_and_digit_reverse(requirement, universality):
    with pytest.raises(ValueError, match="mirror-h and digit-reverse"):
        next(enumerate_squares("01258", requirement, universality, via_latin=True))


def test_via_latin_order5_stream_starts_lexicographically():
    stream = enumerate_squares(
        "01258", Category.MAGIC, ("mirror-h", "digit-reverse"), via_latin=True
    )
    first = list(islice(stream, 5))
    concats = [s.concat for s in first]
    assert concats == sorted(concats)
    for square in first:
        report = classify_universal(square, ("mirror-h", "digit-reverse"))
        assert report.category >= Category.MAGIC
        assert report.constant == 176
        assert all(v.kind == MAGIC_SAME_CONSTANT for v in report.universality.values())


# --- palindromic search -----------------------------------------------------------


def test_palindromic_includes_reference_squares():
    found = list(enumerate_palindromic(parse_alphabet("125"), 3, 3))
    assert len(found) == 72
    assert load_fixture("palindromic_3x3_888") in found

    found = list(enumerate_palindromic(parse_alphabet("128"), 3, 3))
    assert len(found) == 72
    assert load_fixture("palindromic_3x3_1221") in found


def test_palindromic_results_are_semi_and_palindromic():
    for square in enumerate_palindromic(parse_alphabet("125"), 3, 3):
        assert classify(square).category >= Category.SEMI_MAGIC
        cells = list(square.cells())
        assert len(set(cells)) == len(cells)
        assert all(cell == cell[::-1] for cell in cells)


def test_palindromic_trivial_single_cell():
    assert [str(s) for s in enumerate_palindromic((1,), 1, 3)] == ["111"]


def test_palindromic_lexicographic_and_unique():
    concats = [s.concat for s in enumerate_palindromic(parse_alphabet("128"), 3, 3)]
    assert concats == sorted(concats)
    assert len(set(concats)) == len(concats)


def test_palindromic_width_one_and_two():
    # Width 1: every cell is trivially palindromic, so this is a general
    # distinct-cell semi-magic search over single digits.
    squares = list(enumerate_palindromic(parse_alphabet("123456789"), 3, 1))
    assert len(squares) == 72
    for square in squares:
        assert classify(square).category >= Category.SEMI_MAGIC
    # Width 2: palindromic cells are the doubled digits, too few distinct
    # cells for a 3x3 grid.
    assert list(enumerate_palindromic(parse_alphabet("12"), 3, 2)) == []


@pytest.mark.parametrize(
    "alphabet, width, count",
    [("0123456789", 1, 288), ("0125", 3, 1152)],  # 10 and 16 cells for 9 places
)
def test_palindromic_more_cells_than_places(alphabet, width, count):
    squares = list(enumerate_palindromic(parse_alphabet(alphabet), 3, width))
    assert len(squares) == count
    concats = [s.concat for s in squares]
    assert concats == sorted(concats)
    assert len(set(concats)) == count


def test_palindromic_validation():
    with pytest.raises(ValueError):
        list(enumerate_palindromic(parse_alphabet("125"), 0, 3))
    with pytest.raises(ValueError):
        list(enumerate_palindromic(parse_alphabet("125"), 3, 0))
