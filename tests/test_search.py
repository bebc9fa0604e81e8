"""Enumeration, Latin-pair construction/decomposition, palindromic search."""

import hashlib
import re
from datetime import date
from itertools import combinations, islice, permutations, product

import pytest

from segmagic import (
    ATOMIC_TRANSFORMS,
    Category,
    DIGIT_REVERSE,
    LatinPair,
    Square,
    apply_transform,
    classify,
    classify_universal,
    decompose_to_latin_pair,
    enumerate_palindromic,
    enumerate_squares,
    from_latin_pair,
    kernels,
    magic_sum,
    parse_alphabet,
    parse_square,
    search,
)
from segmagic.dates import scan
from segmagic.search import LatinPairError
from segmagic.squares import MAGIC_SAME_CONSTANT, InvalidDigitError, _step, cell_image

from conftest import diagonals_hit, joined_grids, load_fixture, transversals


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
    # Floats and bools compare equal to digits but are not digits.
    floats = [0.0, 1.0, 2.0, 5.0, 8.0]
    digits = "alphabet must be decimal digits"
    for bad in (floats, [True, 2]):
        with pytest.raises(ValueError, match=digits):
            parse_alphabet(bad)
    with pytest.raises(ValueError, match=digits):
        scan(date(2010, 1, 1), date(2010, 12, 31), floats, "exact")
    with pytest.raises(ValueError, match=digits):
        next(enumerate_squares([1.0, 2.0, 5.0]))
    # Not iterable at all, and a one-shot iterable read once and shown.
    with pytest.raises(ValueError, match=f"{digits}, got 1258$"):
        next(enumerate_squares(1258))
    with pytest.raises(ValueError, match=re.escape(f"{digits}, got (1, 2.0)")):
        parse_alphabet(d for d in [1, 2.0])
    with pytest.raises(ValueError, match=re.escape("repeated digits: (1, 2, 1)")):
        parse_alphabet(iter([1, 2, 1]))


def test_magic_sum_values():
    assert magic_sum((1, 2, 5, 8)) == 176
    assert magic_sum((0, 1, 2, 5, 8)) == 176
    assert magic_sum((0, 1, 2, 5)) == 88


# Each bad input and the words its ValueError must hold.
_BAD_INPUTS = {
    "non-digit-alphabet": ({"alphabet": "12a"}, "decimal digits, got '12a'"),
    "not-magic": ({"requirement": Category.NOT_MAGIC}, "requirement must be"),
    "above-pandiagonal": ({"requirement": 7}, "requirement must be"),
    "between-levels": ({"requirement": 2.5}, "requirement must be"),
    "unknown-transform": ({"universality": ("transpose",)}, "'transpose'"),
    "transform-string": ({"universality": "rot180"}, "universality .* 'rot180'"),
}


@pytest.mark.parametrize("bad, words", _BAD_INPUTS.values(), ids=_BAD_INPUTS)
# 0125 takes the Latin route, 0123 (0+3 = 1+2) the direct one.
@pytest.mark.parametrize("latin", [False, True])
def test_bad_input_raises_on_first_next(kernel_calls, bad, words, latin):
    stream = enumerate_squares(**{"alphabet": "0125" if latin else "0123", **bad})
    with pytest.raises(ValueError, match=words):
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
    # The calls stop at the first square's own row, not the whole grid
    # space.  On the Latin route that is one call, the doubled digits
    # (11 22 55 88 over 1258), the least Latin row.  Over 0123 (0+3 = 1+2)
    # the search takes the direct route, whose rows start at 00 01 32 33.
    # It completes each cell set once: no ordering of 00 01 32 33 has a
    # magic square, and the first magic one, on 00 02 33 31, permutes the
    # columns of the grids of 00 02 31 33.
    direct = {
        Category.SEMI_MAGIC: [(0, 1, 14, 15)],
        Category.MAGIC: [(0, 1, 14, 15), (0, 2, 13, 15)],
    }
    for alphabet, requirement in product(
        ("1258", "0125", "0123"), (Category.SEMI_MAGIC, Category.MAGIC)
    ):
        kernel_calls.clear()
        first = next(enumerate_squares(alphabet, requirement))
        case = (alphabet, requirement)
        assert classify(first).category >= requirement, case
        if alphabet == "0123":
            assert kernel_calls == direct[requirement], case
        else:
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
    # Over {1,2,6} a half turn maps 6 to 9, so images leave the alphabet's
    # cells.
    for requirement in Category.SEMI_MAGIC, Category.MAGIC, Category.PANDIAGONAL_MAGIC:
        _check_filter_and_dedup(alphabet, requirement, transforms)


def test_universality_filter_and_dedup_order4_direct():
    # {0,1,5,6} has 0+6 = 1+5, so the search takes the direct route, and
    # digit-reverse drops 512 of its 4,736 magic squares.
    squares, expected = _check_filter_and_dedup("0156", Category.MAGIC, [DIGIT_REVERSE])
    assert (len(squares), len(expected)) == (4736, 4224)


def _check_filter_and_dedup(alphabet, requirement, transforms):
    # The filter keeps exactly the squares whose images, built and classified
    # as whole squares, stay at the level with the same constant.
    target = magic_sum(parse_alphabet(alphabet))
    squares = list(enumerate_squares(alphabet, requirement))
    expected = [
        s.concat
        for s in squares
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
    return squares, expected


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
    semi = enumerate_squares("0125", Category.SEMI_MAGIC, ATOMIC_TRANSFORMS, dedup=True)
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


def _scanned_first_rows(n, sets, values, target, images, orbit):
    """The admissible first rows found by scanning: every n-permutation of
    the cells, kept when its cells are one of the lines ``sets``, by the sum
    of every universality image's row that comes from row 0, and by the
    orbit elements that map row 0 onto row 0."""
    lines = set(sets)
    sums = [
        (src[r * n : r * n + n], image)
        for src, image in images
        for r in range(n)
        if max(src[r * n : r * n + n]) < n
    ]
    mins = [(src[:n], image) for src, image in orbit if max(src[:n]) < n]
    for row in permutations(range(len(values)), n):
        if tuple(sorted(row)) not in lines:
            continue
        if any(sum(image[row[s]] for s in src) != target for src, image in sums):
            continue
        key = [values[c] for c in row]
        if any([image[row[s]] for s in src] < key for src, image in mins):
            continue
        yield row


_ROW_TRANSFORMS = [
    ((), False),
    (("rot180",), False),
    (("mirror-h", DIGIT_REVERSE), True),
    (ATOMIC_TRANSFORMS, True),
]


@pytest.mark.parametrize(
    "alphabets, latin",
    [
        (["".join(c) for c in combinations("0123456789", 3)], True),
        (["1258", "0125"], True),
        (["1256", "0123"], False),
    ],
    ids=["order3", "order4-latin", "order4-direct"],
)
def test_first_rows_equal_the_scan(monkeypatch, alphabets, latin):
    # The search's first rows, read off the lines it hands the kernel, are
    # the rows the scan finds over all the route's lines, in the same order.
    generate = search._first_rows
    calls = []
    monkeypatch.setattr(search, "_first_rows", lambda *args: calls.append(args) or ())
    for alphabet, (universality, dedup) in product(alphabets, _ROW_TRANSFORMS):
        digits = parse_alphabet(alphabet)
        n = len(digits)
        cells = [f"{x}{y}" for x in digits for y in digits]
        identity = (tuple(range(n * n)), tuple(cells))
        steps = [_step(n, identity, t) for t in universality]
        calls.clear()
        stream = enumerate_squares(alphabet, Category.MAGIC, universality, dedup=dedup)
        assert list(stream) == []
        case = (alphabet, universality)
        if None in steps:
            assert calls == [], case  # no square over the alphabet has an image
            continue
        (args,) = calls
        n, _, values, orbit = args
        target = magic_sum(digits)
        lines = transversals(n) if latin else kernels.line_sets(values, n)[target]
        images = [(src, [int(c) for c in image]) for src, image in steps]
        expected = list(_scanned_first_rows(n, lines, values, target, images, orbit))
        assert list(generate(*args)) == expected, case


def _magic_dedup(alphabet, universality):
    return lambda: enumerate_squares(alphabet, Category.MAGIC, universality, dedup=True)


def _rebuilt_5x5():
    pair = decompose_to_latin_pair(load_fixture("universal_5x5"))
    return [from_latin_pair(pair, (0, 1, 2, 5, 8))]


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(_magic_dedup("1258", ATOMIC_TRANSFORMS), id="1258-universality0"),
        pytest.param(_magic_dedup("0125", ()), id="0125-universality1"),
        pytest.param(_magic_dedup("1256", (DIGIT_REVERSE,)), id="1256-universality2"),
        pytest.param(lambda: enumerate_palindromic("125", 3, 3), id="palindromic-125"),
        pytest.param(_rebuilt_5x5, id="latin-pair-5x5"),
    ],
)
def test_emitted_squares_pass_every_cell_check(build):
    # Every builder writes its own cells and skips Square's checks; each
    # square must equal, and hash as, the square built with every check.
    # 1256 takes the direct route, 1258 and 0125 the Latin one.
    found = list(build())
    assert found
    for square in found:
        assert type(square) is Square
        assert square == Square(square.rows)
        assert hash(square) == hash(Square(square.rows))


@pytest.mark.parametrize(
    "cells", [["12", "1x", "21", "22"], ["12", "123", "21", "22"], ["12", 12, "21", "22"]]
)
def test_cell_table_check_raises_the_square_errors(cells):
    with pytest.raises(ValueError) as whole:
        Square([cells[:2], cells[2:]])
    words = r"cell .* (is not a digit string|does not have width 2)"
    assert re.fullmatch(words, str(whole.value))


def test_first_row_pruning_call_counts(
    monkeypatch, first_rows, kernel_calls, kernel_grids
):
    lines = set()
    kernel = kernels.product_square_indices
    monkeypatch.setattr(
        kernels,
        "product_square_indices",
        lambda sets, row: lines.update(sets) or kernel(sets, row),
    )

    def counts(alphabet, requirement=Category.MAGIC, universality=(), dedup=False):
        first_rows.clear()
        kernel_calls.clear()
        kernel_grids.clear()
        lines.clear()
        stream = enumerate_squares(alphabet, requirement, universality, dedup=dedup)
        squares = sum(1 for _ in stream)
        assert first_rows == sorted(first_rows)
        assert kernel_calls == sorted(kernel_calls)
        # Every line the kernel gets reaches the magic sum in the cell values
        # and in their images under every universality transform.
        digits = parse_alphabet(alphabet)
        cells = [f"{x}{y}" for x in digits for y in digits]
        lanes = [cells] + [[cell_image(c, t) for c in cells] for t in universality]
        for line in lines:
            for lane in lanes:
                assert sum(int(lane[c]) for c in line) == magic_sum(digits)
        return squares, len(first_rows), len(kernel_calls), sum(kernel_grids)

    # The Latin route completes the canonical row 00 11 22 … once, 12 grids,
    # and relabels them for each admissible first row.
    assert counts("1258", universality=ATOMIC_TRANSFORMS, dedup=True) == (
        144, 156, 1, 12
    )
    assert kernel_calls == [(0, 5, 10, 15)]
    # Every Latin first row (4! * 4!).
    assert counts("1258") == (1152, 576, 1, 12)
    # The direct route, over an alphabet whose pair sums collide (1+6 = 2+5),
    # runs the kernel once on each of the 52 cell sets that reach 154, for
    # 12,816 semi-magic grids; each set's 24 orderings permute their
    # columns, and a magic query keeps the 4,224 whose main diagonals reach
    # the magic sum.
    assert counts("1256") == (4224, 1248, 52, 12816)
    # With rot180 the kernel gets only the lines whose rot180 images reach
    # the magic sum too: 288 grids from 24 calls over 2569 (6,672 when it
    # got every line that reaches 242), and none from the one call over
    # 1256 (240 before).
    assert counts("2569", universality=("rot180",), dedup=True) == (576, 576, 24, 288)
    assert counts("1256", universality=("rot180",), dedup=True) == (0, 24, 1, 0)
    # The order4-latin-jsonl query.
    assert counts("0125", Category.SEMI_MAGIC, ATOMIC_TRANSFORMS, dedup=True) == (
        864, 156, 1, 12
    )
    # No first row over 012 has a mirror-h image that reaches 33 (2 becomes
    # 5), so the Latin route never calls the kernel.
    assert counts("012", Category.SEMI_MAGIC, ("mirror-h",)) == (0, 0, 0, 0)


@pytest.mark.parametrize(
    "requirement, universality, dedup, calls",
    [
        # The Latin route: 3,660 of the 14,400 Latin first rows pass dedup.
        (Category.PANDIAGONAL_MAGIC, ATOMIC_TRANSFORMS, True, 3660),
        (Category.PANDIAGONAL_MAGIC, ATOMIC_TRANSFORMS, False, 14400),
        # The direct route: every first row that reaches 176.
        (Category.MAGIC, (), False, 44160),
    ],
)
def test_order5_first_row_call_counts(
    monkeypatch, first_rows, requirement, universality, dedup, calls
):
    # A kernel that completes no row counts the first rows without the
    # minutes a whole order-5 search takes.
    kernel_rows = []
    monkeypatch.setattr(
        kernels,
        "product_square_indices",
        lambda sets, row: kernel_rows.append(row) or [],
    )
    stream = enumerate_squares("01258", requirement, universality, dedup=dedup)
    assert list(stream) == []
    assert len(first_rows) == calls
    assert first_rows == sorted(first_rows)
    # The Latin route calls the kernel on the canonical row alone, the
    # direct route once per cell set, on its ascending ordering, when the
    # rows first reach the set.
    sets = dict.fromkeys(tuple(sorted(row)) for row in first_rows)
    expected = [(0, 6, 12, 18, 24)] if universality else list(sets)
    assert kernel_rows == expected
    assert len(kernel_rows) == (1 if universality else 368)


@pytest.mark.parametrize(
    "alphabet, rows, per_row, magic",
    [
        # Every Latin first row (4! * 4!); 1,152 magic grids over each.
        ("1258", None, 12, 1152),
        ("0125", None, 12, 1152),
        # Two sampled rows: tens 4 2 0 3 1 with units 1 3 4 0 2, and tens
        # 3 2 4 1 0 with units 0 4 1 2 3.
        ("01258", [(21, 13, 4, 15, 7), (15, 14, 21, 7, 3)], 432, 8),
        # The same two, then rows that repeat the tens of the first, the
        # units of the second, and the tens of the second with the units of
        # the first, so that the diagonal join reuses its sums.
        (
            "01258",
            [
                (21, 13, 4, 15, 7),
                (15, 14, 21, 7, 3),
                (20, 11, 2, 18, 9),
                (0, 9, 21, 17, 13),
                (16, 13, 24, 5, 2),
            ],
            432,
            23,
        ),
        # Every row (3! * 3!): 28 of the 36 keep no grid.  No order-5 row
        # keeps none: four canonical grids there have diagonals that hold
        # every tens and every units index, which every relabelling leaves
        # at the magic sum.
        ("012", None, 2, 8),
    ],
)
def test_latin_relabelling_equals_the_kernel(kernel_calls, alphabet, rows, per_row, magic):
    # The relabelled canonical grids of each row are the kernel's own grids
    # for that row; with the diagonal check, those whose main diagonals reach
    # the magic sum in cell values.
    digits = parse_alphabet(alphabet)
    n = len(digits)
    sets = transversals(n)
    values = [10 * x + y for x in digits for y in digits]
    target = magic_sum(digits)
    if rows is None:
        rows = sorted(
            tuple(a * n + b for a, b in zip(tens, units))
            for tens in permutations(range(n))
            for units in permutations(range(n))
        )
    relabelled = list(search._latin_grids(iter(rows), n, sets, values, None))
    checked = list(search._latin_grids(iter(rows), n, sets, values, target))
    assert kernel_calls == [tuple(range(0, n * n, n + 1))] * 2
    assert len(relabelled) == len(checked) == len(rows)
    for row, grids, kept in zip(rows, relabelled, checked):
        expected = kernels.product_square_indices(sets, row)
        assert grids == expected, row
        assert len(grids) == per_row, row
        assert kept == [g for g in expected if diagonals_hit(g, values, n, target)]
    assert sum(map(len, checked)) == magic


def _cell_values(alphabet):
    digits = parse_alphabet(alphabet)
    return [10 * x + y for x in digits for y in digits]


# (values, order, line target, first cells, grids whose diagonals reach the
# target too)
_DIAGONAL_CASES = {
    "order3": (_cell_values("012"), 3, 33, (), 8),
    "order3-none-pass": (_cell_values("125"), 3, 88, (), 0),
    "order4": (_cell_values("1258"), 4, 176, (0,), 72),
    # Every row starts with 12, so the kernel completes a set that also
    # holds 11 on its ascending ordering, which is none of the rows.
    "order4-first-ordering-not-ascending": (_cell_values("1258"), 4, 176, (1,), 72),
}


@pytest.mark.parametrize(
    "values, n, target, start, passed", _DIAGONAL_CASES.values(), ids=_DIAGONAL_CASES
)
def test_diagonal_check_filters_the_unchecked_grids(values, n, target, start, passed):
    # Each row's completions are the kernel's own grids for that row, and
    # with the diagonal check those whose main diagonals reach the target,
    # though the kernel runs once per cell set.
    rest = [i for i in range(len(values)) if i not in start]
    rows = [
        start + tail
        for tail in permutations(rest, n - len(start))
        if sum(values[c] for c in start + tail) == target
    ]
    by_sum = kernels.line_sets(values, n)
    unchecked = [kernels.product_square_indices(by_sum[target], row) for row in rows]
    assert list(search._completions(iter(rows), values, by_sum)) == unchecked
    checked = list(search._completions(iter(rows), values, by_sum, target))
    assert checked == [
        [g for g in grids if diagonals_hit(g, values, n, target)]
        for grids in unchecked
    ]
    assert sum(map(len, checked)) == passed
    assert sum(map(len, unchecked)) > passed


def test_diagonal_check_gets_rows_of_four_or_more_cells():
    # Only the direct route hands _completions a diagonal target, and that
    # route needs two pairs of distinct digits with the same sum, so four
    # digits: every alphabet of one to three digits takes the Latin route at
    # the magic and the pandiagonal level.  The census holds no order-1
    # query, so order 1 also runs whole here: its one cell is every line.
    alphabets = ["".join(c) for k in (1, 2, 3) for c in combinations("0123456789", k)]
    assert len(alphabets) == 175
    for alphabet in alphabets:
        for requirement in (Category.MAGIC, Category.PANDIAGONAL_MAGIC):
            assert _route(alphabet, requirement) == "latin", (alphabet, requirement)
            if len(alphabet) == 1:
                stream = enumerate_squares(alphabet, requirement)
                assert [s.concat for s in stream] == [alphabet * 2]


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


class _FirstCall(Exception):
    """Stops a search at its first kernel call."""


def _route(alphabet, *query):
    """The route ``enumerate_squares(alphabet, *query)`` takes: "latin"
    when its first kernel call gets the transversals, "direct" otherwise."""

    def first_call(sets, row):
        raise _FirstCall(sorted(sets))

    with pytest.MonkeyPatch.context() as patch, pytest.raises(_FirstCall) as stop:
        patch.setattr(kernels, "product_square_indices", first_call)
        next(enumerate_squares(alphabet, *query))
    n = len(parse_alphabet(alphabet))
    return "latin" if stop.value.args[0] == sorted(transversals(n)) else "direct"


# The direct route's streams, frozen as (count, SHA-256 of the newline-joined
# concatenations) before the search chose its route itself.
_DIRECT_STREAMS = {
    ("125", Category.SEMI_MAGIC): (72, "34d29382bb425a70"),
    ("125", Category.MAGIC): (0, "e3b0c44298fc1c14"),
    ("012", Category.SEMI_MAGIC): (72, "db8c8252d1661d95"),
    ("012", Category.MAGIC): (8, "7e29da4d0dcc4f32"),
    ("1258", Category.SEMI_MAGIC): (6912, "6e9f86af8deca709"),
    ("1258", Category.MAGIC): (1152, "99b6aaef359f04f6"),
    ("0125", Category.SEMI_MAGIC): (6912, "59c63670e2a1ee88"),
    ("0125", Category.MAGIC): (1152, "2139d9ad0173d432"),
}


def test_latin_route_keeps_the_direct_streams():
    for (alphabet, requirement), expected in _DIRECT_STREAMS.items():
        concats = [s.concat for s in enumerate_squares(alphabet, requirement)]
        digest = hashlib.sha256("\n".join(concats).encode()).hexdigest()
        assert (len(concats), digest[:16]) == expected, (alphabet, requirement)
        assert _route(alphabet, requirement) == "latin"


def test_colliding_pair_sums_take_the_direct_route():
    # 0+3 = 1+2: the Latin route would find 6,912 of the 353,664 semi-magic
    # squares over {0,1,2,3}, so the search takes the direct route there and
    # its first squares are not Latin pairs.  A repeated digit does not
    # count: 5+5 = 2+8 in {1,2,5,8}, which takes the Latin route.
    heads = {
        Category.SEMI_MAGIC: "00013233121320212322111031300302",
        Category.MAGIC: "00023331133201203011220323211012",
    }
    for requirement, head in heads.items():
        first = next(enumerate_squares("0123", requirement))
        assert first.concat == head
        assert decompose_to_latin_pair(first) is None
        assert _route("0123", requirement) == "direct"


@pytest.mark.parametrize("alphabet, count", [("125", 72), ("1258", 6912)])
def test_via_latin_yields_exactly_the_latin_pairs(alphabet, count):
    squares = list(enumerate_squares(alphabet, Category.SEMI_MAGIC))
    assert len(squares) == count
    assert all(decompose_to_latin_pair(square) is not None for square in squares)


# Magic squares over {0,1,2,5,8} whose digit grids are not Latin: the Latin
# route cannot yield them, so without mirror-h and digit-reverse the search
# takes the direct route.  The first is the direct route's first magic square.
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
    assert _route("01258", requirement, universality) == "direct"
    both = universality + ("mirror-h", "digit-reverse")
    assert _route("01258", requirement, both) == "latin"


def test_latin_route_builds_no_value_lines(monkeypatch):
    # The Latin route's lines are the transversals alone: it never sums the
    # cell values into target-sum sets.
    def refuse(values, n):
        raise AssertionError("the Latin route built value-sum lines")

    monkeypatch.setattr(kernels, "line_sets", refuse)
    assert sum(1 for _ in enumerate_squares("1258", Category.MAGIC)) == 1152
    universality = ("mirror-h", "digit-reverse")
    stream = enumerate_squares("01258", Category.MAGIC, universality, dedup=True)
    assert sum(1 for _ in stream) == 14520


def test_order5_latin_route_stream_starts_lexicographically():
    stream = enumerate_squares("01258", Category.MAGIC, ("mirror-h", "digit-reverse"))
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


# The palindromic streams, frozen as (count, SHA-256 prefix of the
# newline-joined concatenations) while the kernel still completed every
# ordering of a first row.
_PALINDROMIC_STREAMS = {
    ("125", 3, 3): (72, "700e07c5a55b64fc"),
    ("128", 3, 3): (72, "348671f23dc35b41"),
    ("0125", 3, 3): (1152, "31c8580a85d3ea94"),
    ("01258", 3, 3): (7200, "6479992566197c81"),
    ("0125", 4, 3): (6912, "43e366eae832f99f"),
}


@pytest.mark.parametrize("query", _PALINDROMIC_STREAMS)
def test_palindromic_streams_are_frozen(query):
    concats = [s.concat for s in enumerate_palindromic(*query)]
    digest = hashlib.sha256("\n".join(concats).encode()).hexdigest()
    assert (len(concats), digest[:16]) == _PALINDROMIC_STREAMS[query]


@pytest.mark.parametrize(
    "alphabet, calls, solutions", [("125", 84, 12), ("0125", 560, 192)]
)
def test_palindromic_completes_each_cell_set_once(
    kernel_calls, kernel_grids, alphabet, calls, solutions
):
    # One call per 3-set of the 9 or 16 cells, on its ascending ordering;
    # the five other orderings of each set permute its grids' columns.  The
    # kernel ran 504 and 3,360 times, for 72 and 1,152 grids, when it
    # completed every ordering.
    squares = list(enumerate_palindromic(alphabet, 3, 3))
    assert all(row == tuple(sorted(row)) for row in kernel_calls)
    assert (len(kernel_calls), sum(kernel_grids)) == (calls, solutions)
    assert len(squares) == 6 * solutions


def test_palindromic_first_square_streams(kernel_calls, kernel_grids):
    # 64 cells of width 5 over 0125: the kernel rejects a first row when no
    # target-sum set meets the row in one of its cells alone, before it
    # combines any row sets, so the first square, on 00000 00100 02220
    # 12521, comes after 477 calls, the 476 before it finding no grid.
    first = next(enumerate_palindromic("0125", 4, 5))
    assert first.rows[0] == ("00000", "00100", "02220", "12521")
    assert len(kernel_calls) == 477
    assert kernel_calls[-1] == (0, 1, 10, 27)
    assert kernel_grids[:-1] == [0] * 476 and kernel_grids[-1] == 12


def test_palindromic_validation(kernel_calls):
    with pytest.raises(ValueError):
        list(enumerate_palindromic(parse_alphabet("125"), 0, 3))
    with pytest.raises(ValueError):
        list(enumerate_palindromic(parse_alphabet("125"), 3, 0))
    # An order or a width must be an int, and a bool is not one.
    for order, width in [(3.0, 3), (3, 3.0), ("3", 3), (3, "3"), (3, True), (True, 3)]:
        with pytest.raises(ValueError, match=r"(order|width) must be an int"):
            next(enumerate_palindromic("125", order, width))
    assert kernel_calls == []
