"""Parsing, classification, transformation and rendering of squares."""

import json
from itertools import combinations, permutations

import pytest

from segmagic import (
    ATOMIC_TRANSFORMS,
    Category,
    DIGIT_REVERSE,
    InvalidDigitError,
    MIRROR_H,
    MIRROR_V,
    ROT180,
    Square,
    SquareParseError,
    alphabet_of,
    apply_transform,
    classify,
    classify_universal,
    magic_constant,
    parse_square,
    render,
    report_to_json,
)
from segmagic.squares import (
    CellSet,
    IMAGE_INVALID_DIGITS,
    IMAGE_NOT_MAGIC,
    IMAGE_SEMI_MAGIC,
    MAGIC_OTHER_CONSTANT,
    MAGIC_SAME_CONSTANT,
    Verdict,
    cell_image,
    line_level,
    lines,
    source_positions,
)

from conftest import FIXTURES, load_fixture


# --- parsing ---------------------------------------------------------------


def test_parse_basic():
    square = parse_square("00 11\n11 00\n")
    assert square.order == 2
    assert square.width == 2
    assert square.rows == (("00", "11"), ("11", "00"))
    assert square.concat == "00111100"


def test_parse_skips_comments_and_blank_lines():
    text = "# heading\n\n52 11 05 20\n00 25 51 12\n# note\n21 02 10 55\n15 50 22 01\n"
    assert parse_square(text).order == 4


def test_parse_accepts_tabs_and_extra_spaces():
    assert parse_square(" 01\t12 \n 12  01 ").rows == (("01", "12"), ("12", "01"))


def test_parse_single_cell():
    square = parse_square("777")
    assert square.order == 1 and square.width == 3


def test_parse_error_ragged_row():
    with pytest.raises(SquareParseError) as err:
        parse_square("12 34\n56")
    assert err.value.line == 2 and err.value.column == 3
    assert "ragged" in str(err.value)
    with pytest.raises(SquareParseError) as err:
        parse_square("12 34\n56 78 90")
    assert err.value.line == 2 and err.value.column == 7
    assert "ragged row: 3 cells, expected 2" in str(err.value)


def test_parse_error_non_digit():
    with pytest.raises(SquareParseError) as err:
        parse_square("12 3x\n56 78")
    assert err.value.line == 1 and err.value.column == 5
    assert "'x'" in str(err.value)


def test_parse_error_mixed_width():
    with pytest.raises(SquareParseError) as err:
        parse_square("1 23\n45 67")
    assert "width" in str(err.value)


def test_parse_error_not_square():
    with pytest.raises(SquareParseError):
        parse_square("12 34 56\n78 90 12")


def test_parse_error_empty():
    with pytest.raises(SquareParseError):
        parse_square("# only a comment\n")


def test_square_validates_construction():
    with pytest.raises(ValueError, match="square has no rows"):
        Square([])
    with pytest.raises(ValueError):
        Square((("1", "2"), ("3",)))
    with pytest.raises(ValueError):
        Square((("1", "22"), ("3", "4")))
    with pytest.raises(ValueError):
        Square((("1a", "22"), ("33", "44")))
    with pytest.raises(ValueError, match=r"cell 5 is not a digit string"):
        Square([[5]])
    with pytest.raises(ValueError, match=r"cell \['1', '2'\] is not a digit string"):
        Square([["11", ["1", "2"]], ["33", "44"]])


def test_square_repr_equality_and_hash():
    rows = (("1", "2"), ("3", "4"))
    square = Square(rows)
    assert repr(square) == "Square(rows=(('1', '2'), ('3', '4')))"
    assert square == Square.from_rows([["1", "2"], ["3", "4"]])
    assert square != Square((("1", "2"), ("4", "3")))
    assert square != (rows,)
    assert hash(square) == hash((rows,))
    assert len({square, Square(rows)}) == 1


def test_square_normalises_rows_given_as_lists():
    square = Square([["1", "2"], ["3", "4"]])
    assert square.rows == (("1", "2"), ("3", "4"))
    assert square == Square.from_rows([["1", "2"], ["3", "4"]])
    assert len({square, Square.from_rows((("1", "2"), ("3", "4")))}) == 1


def test_square_is_immutable():
    square = Square((("1",),))
    with pytest.raises(AttributeError):
        square.rows = (("2",),)
    with pytest.raises(AttributeError):
        square.extra = 1
    with pytest.raises(AttributeError):
        del square.rows
    assert square.rows == (("1",),)


def test_square_from_rows_is_a_classmethod():
    # perfbench/spans.py reads and replaces it to count constructions.
    assert isinstance(Square.__dict__["from_rows"], classmethod)


def test_record_reprs_equality_and_hash():
    cell_set = CellSet("exact-product", (1, 2, 5, 8))
    assert repr(cell_set) == "CellSet(kind='exact-product', alphabet=(1, 2, 5, 8))"
    assert repr(CellSet("other")) == "CellSet(kind='other', alphabet=())"
    assert cell_set == CellSet("exact-product", (1, 2, 5, 8)) != CellSet("other")
    assert hash(cell_set) == hash(("exact-product", (1, 2, 5, 8)))
    verdict = Verdict(IMAGE_INVALID_DIGITS, position=(0, 1))
    assert repr(verdict) == (
        "Verdict(kind='invalid-digits', constant=None, position=(0, 1))"
    )
    assert verdict == Verdict(IMAGE_INVALID_DIGITS, None, (0, 1))
    assert hash(verdict) == hash((IMAGE_INVALID_DIGITS, None, (0, 1)))
    assert repr(classify(parse_square("1 2\n3 4"))) == (
        "ClassificationReport(order=2, width=1, category=<Category.NOT_MAGIC: 0>, "
        "constant=None, cell_set=CellSet(kind='all-distinct', alphabet=()), "
        "universality={})"
    )
    same = "Verdict(kind='magic-same-constant', constant=176, position=None)"
    assert repr(classify_universal(load_fixture("universal_4x4_1258"))) == (
        "ClassificationReport(order=4, width=2, category=<Category.MAGIC: 2>, "
        "constant=176, cell_set=CellSet(kind='exact-product', alphabet=(1, 2, 5, 8)), "
        f"universality={{'rot180': {same}, 'mirror-h': {same}, "
        f"'mirror-v': {same}, 'digit-reverse': {same}}})"
    )
    square = load_fixture("universal_5x5")
    assert classify_universal(square) == classify_universal(square)
    with pytest.raises(AttributeError):
        classify(square).constant = 0


def test_classify_reports_do_not_share_universality():
    square = load_fixture("universal_4x4_0125")
    first, second = classify(square), classify(square)
    assert first.universality == {} and first.universality is not second.universality


def test_str_round_trip():
    for name in (
        "universal_5x5",
        "universal_4x4_1258",
        "universal_4x4_0125",
        "palindromic_3x3_888",
        "palindromic_3x3_1221",
    ):
        square = load_fixture(name)
        assert parse_square(str(square)) == square


def test_values_and_alphabet():
    square = parse_square("01 12\n12 01")
    assert square.values() == [[1, 12], [12, 1]]
    assert alphabet_of(square) == (0, 1, 2)


# --- classification ----------------------------------------------------------


def test_magic_constant_of_fixtures():
    assert magic_constant(load_fixture("universal_5x5")) == 176
    assert magic_constant(load_fixture("universal_4x4_1258")) == 176
    assert magic_constant(load_fixture("universal_4x4_0125")) == 88
    assert magic_constant(load_fixture("palindromic_3x3_888")) == 888
    assert magic_constant(load_fixture("palindromic_3x3_1221")) == 1221


def test_magic_constant_none_when_rows_disagree():
    assert magic_constant(parse_square("11 12\n11 11")) is None


def test_classify_reference_5x5():
    report = classify(load_fixture("universal_5x5"))
    assert report.category is Category.PANDIAGONAL_MAGIC
    assert report.constant == 176
    assert str(report.cell_set) == "exact-product:01258"


def test_classify_reference_4x4s():
    report = classify(load_fixture("universal_4x4_1258"))
    assert report.category is Category.MAGIC  # wrap diagonals break
    assert report.constant == 176
    assert str(report.cell_set) == "exact-product:1258"

    report = classify(load_fixture("universal_4x4_0125"))
    assert report.category is Category.MAGIC
    assert report.constant == 88
    assert str(report.cell_set) == "exact-product:0125"


def test_classify_palindromic_squares_semi_only():
    for name, constant in (
        ("palindromic_3x3_888", 888),
        ("palindromic_3x3_1221", 1221),
    ):
        report = classify(load_fixture(name))
        assert report.category is Category.SEMI_MAGIC, name
        assert report.constant == constant
        assert str(report.cell_set) == "all-distinct"


def test_classify_not_magic():
    report = classify(parse_square("11 12\n21 22"))
    assert report.category is Category.NOT_MAGIC
    assert report.constant is None


def test_classify_semi_but_not_magic_example():
    # Rows and columns hit 33, the diagonals do not.
    report = classify(parse_square("11 22\n22 11"))
    assert report.category is Category.SEMI_MAGIC
    assert report.constant == 33


def test_line_level_checks_only_the_lines_of_its_table():
    # The diagonals of "11 22 / 22 11" miss 33; without them in the table,
    # every category is reached.
    values = [11, 22, 22, 11]
    diagonals = [(c, line) for c, line in lines(2) if c >= Category.MAGIC]
    assert line_level(values, lines(2), 33) is Category.SEMI_MAGIC
    assert line_level(values, diagonals, 33) is Category.SEMI_MAGIC
    assert line_level(values, lines(2)[:4], 33) is Category.PANDIAGONAL_MAGIC
    assert line_level(values, (), 0) is Category.PANDIAGONAL_MAGIC


def test_small_orders_treat_pandiagonal_as_magic():
    # Below order 3 there are no broken diagonals to test, so a magic square
    # is reported pandiagonal.
    assert classify(parse_square("7")).category is Category.PANDIAGONAL_MAGIC
    assert classify(parse_square("5 5\n5 5")).category is Category.PANDIAGONAL_MAGIC


def test_cell_set_other():
    report = classify(parse_square("11 11\n11 11"))
    assert str(report.cell_set) == "other"


def test_category_ordering():
    assert (
        Category.NOT_MAGIC
        < Category.SEMI_MAGIC
        < Category.MAGIC
        < Category.PANDIAGONAL_MAGIC
    )
    assert Category.MAGIC.label == "magic"


# --- transformations --------------------------------------------------------


def test_rot180_of_reference_5x5_first_row():
    image = apply_transform(load_fixture("universal_5x5"), ROT180)
    assert image.rows[0] == ("21", "10", "05", "58", "82")


def test_digit_reverse_swaps_cell_digits_in_place():
    square = load_fixture("universal_4x4_1258")
    i, j = next(
        (i, j)
        for i, row in enumerate(square.rows)
        for j, cell in enumerate(row)
        if cell == "52"
    )
    image = apply_transform(square, DIGIT_REVERSE)
    assert image.rows[i][j] == "25"


def test_mirror_h_of_palindromic_cell():
    image = apply_transform(parse_square("252"), MIRROR_H)
    assert image.rows[0][0] == "525"


def test_mirror_semantics_differ_on_digit_order():
    # Left-right mirroring flips columns and reverses each cell's digit
    # sequence; top-bottom mirroring flips rows and keeps the sequence.
    square = parse_square("10 21\n52 80")
    mh = apply_transform(square, MIRROR_H)
    assert mh.rows == (("15", "01"), ("08", "52"))
    mv = apply_transform(square, MIRROR_V)
    assert mv.rows == (("25", "80"), ("10", "51"))


def test_transforms_are_involutions_on_fixtures():
    for name in ("universal_5x5", "universal_4x4_1258", "universal_4x4_0125"):
        square = load_fixture(name)
        for transform in ATOMIC_TRANSFORMS:
            assert apply_transform(apply_transform(square, transform), transform) == square


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("transform", ATOMIC_TRANSFORMS)
def test_transforms_map_lines_onto_lines_of_their_category(transform, n):
    # An image's line sums are the square's sums along the source lines, so
    # the search checks every image on the square's own lines.
    src = source_positions(n, transform)
    for category in Category:
        own = {frozenset(line) for c, line in lines(n) if c == category}
        assert {frozenset(src[p] for p in line) for line in own} == own


@pytest.mark.parametrize("size", range(2, 6))
@pytest.mark.parametrize("transform", ATOMIC_TRANSFORMS)
def test_transforms_sum_alike_along_every_latin_line(transform, size):
    # A Latin line is n cells whose tens digits and whose units digits are
    # each a permutation of the alphabet.  A transform maps a cell digit by
    # digit, at most swapping the places, so an image's cell values sum
    # alike along every Latin line.  So the Latin route's lines, the
    # transversals, pass the search's line filter all together or not at
    # all.
    checked = 0
    for alphabet in combinations(range(10), size):
        images = {
            (x, y): cell_image(f"{x}{y}", transform) for x in alphabet for y in alphabet
        }
        if None in images.values():
            continue  # the search is empty: no square over it has an image
        sums = {
            sum(int(images[cell]) for cell in zip(alphabet, units))
            for units in permutations(alphabet)
        }
        assert len(sums) == 1, (alphabet, sums)
        checked += 1
    assert checked > 0


def test_rot180_equals_mirror_h_after_mirror_v():
    square = load_fixture("universal_5x5")
    assert apply_transform(square, (MIRROR_V, MIRROR_H)) == apply_transform(
        square, ROT180
    )


def test_apply_transform_sequence_order():
    square = load_fixture("universal_4x4_0125")
    seq = apply_transform(square, (ROT180, DIGIT_REVERSE))
    assert seq == apply_transform(apply_transform(square, ROT180), DIGIT_REVERSE)


def test_invalid_digit_reports_first_offending_cell():
    with pytest.raises(InvalidDigitError) as err:
        apply_transform(parse_square("13 31\n31 13"), ROT180)
    assert err.value.row == 0 and err.value.col == 0
    assert err.value.digit == 3
    assert err.value.transform == ROT180


def test_digit_reverse_never_raises():
    square = parse_square("34 79\n97 43")
    image = apply_transform(square, DIGIT_REVERSE)
    assert image.rows == (("43", "97"), ("79", "34"))


def test_unknown_square_transform_rejected():
    with pytest.raises(ValueError):
        apply_transform(parse_square("1"), "transpose")


# --- universality -------------------------------------------------------------


def test_universal_verdicts_reference_squares():
    for name, constant in (
        ("universal_5x5", 176),
        ("universal_4x4_1258", 176),
        ("universal_4x4_0125", 88),
    ):
        report = classify_universal(load_fixture(name))
        assert set(report.universality) == set(ATOMIC_TRANSFORMS)
        for verdict in report.universality.values():
            assert verdict.kind == MAGIC_SAME_CONSTANT
            assert verdict.constant == constant


def test_palindromic_universality_semi_with_changed_constant():
    report = classify_universal(load_fixture("palindromic_3x3_1221"))
    assert report.universality[DIGIT_REVERSE].kind == IMAGE_SEMI_MAGIC
    assert report.universality[DIGIT_REVERSE].constant == 1221
    assert report.universality[MIRROR_H].kind == IMAGE_SEMI_MAGIC
    assert report.universality[MIRROR_H].constant == 1554
    assert report.universality[MIRROR_V].constant == 1554


def test_digit_reverse_fixes_palindromic_squares():
    square = load_fixture("palindromic_3x3_1221")
    assert apply_transform(square, DIGIT_REVERSE) == square


def test_invalid_digits_verdict_carries_position():
    report = classify_universal(parse_square("13 31\n31 13"), (ROT180,))
    verdict = report.universality[ROT180]
    assert verdict.kind == IMAGE_INVALID_DIGITS
    assert verdict.position == (0, 0)


def test_magic_image_with_another_constant():
    report = classify_universal(parse_square("16"))
    assert report.universality == {
        ROT180: Verdict(MAGIC_OTHER_CONSTANT, constant=91),
        MIRROR_H: Verdict(IMAGE_INVALID_DIGITS, position=(0, 0)),
        MIRROR_V: Verdict(IMAGE_INVALID_DIGITS, position=(0, 0)),
        DIGIT_REVERSE: Verdict(MAGIC_OTHER_CONSTANT, constant=61),
    }


def test_not_magic_image_verdict():
    report = classify_universal(parse_square("11 12\n21 22"), (DIGIT_REVERSE,))
    assert report.universality[DIGIT_REVERSE].kind == IMAGE_NOT_MAGIC


def test_classify_universal_transform_subset():
    report = classify_universal(load_fixture("universal_5x5"), (ROT180,))
    assert list(report.universality) == [ROT180]


def test_classify_universal_rejects_a_bare_transform_name():
    # A string is a sequence of one-letter names; take it for none of them.
    with pytest.raises(ValueError, match="transforms .* 'rot180'"):
        classify_universal(load_fixture("universal_5x5"), ROT180)


# --- reports and rendering ----------------------------------------------------


def test_report_json_schema():
    report = classify_universal(load_fixture("universal_4x4_0125"))
    data = report_to_json(report)
    assert list(data) == [
        "order",
        "width",
        "category",
        "constant",
        "cell_set",
        "universality",
    ]
    assert data["order"] == 4
    assert data["width"] == 2
    assert data["category"] == "magic"
    assert data["constant"] == 88
    assert data["cell_set"] == "exact-product:0125"
    for name in ATOMIC_TRANSFORMS:
        entry = data["universality"][name]
        assert entry["verdict"] == "magic-same-constant"
        assert entry["constant"] == 88
    json.dumps(data)  # must be serializable


def test_invalid_verdict_json_has_position():
    report = classify_universal(parse_square("13 31\n31 13"), (ROT180,))
    entry = report_to_json(report)["universality"]["rot180"]
    assert entry["verdict"] == "invalid-digits"
    assert entry["position"] == [0, 0]


def test_render_plain_round_trip():
    square = load_fixture("universal_5x5")
    assert parse_square(render(square)) == square
    assert render(square, "plain") == str(square)


def test_render_json_round_trip():
    square = load_fixture("universal_4x4_1258")
    data = json.loads(render(square, "json"))
    assert data["rows"] == [list(row) for row in square.rows]


def test_render_sevenseg_small():
    art = render(parse_square("25"), "sevenseg")
    assert art == " _   _\n _| |_\n|_   _|"


def test_render_sevenseg_rows_separated_by_blank_line():
    art = render(parse_square("1 2\n2 1"), "sevenseg")
    blocks = art.split("\n\n")
    assert len(blocks) == 2
    assert all(len(block.splitlines()) == 3 for block in blocks)


def test_render_bordered_golden_5x5():
    golden = (FIXTURES / "bordered_5x5_88plus88.golden").read_text(encoding="utf-8")
    square = load_fixture("universal_5x5")
    assert render(square, "bordered", "88+88") + "\n" == golden
    assert len(golden.rstrip("\n").splitlines()) == 7  # 5x5 framed is 7x7


def test_render_bordered_golden_4x4():
    golden = (FIXTURES / "bordered_4x4_88.golden").read_text(encoding="utf-8")
    square = load_fixture("universal_4x4_0125")
    assert render(square, "bordered", "88") + "\n" == golden
    assert len(golden.rstrip("\n").splitlines()) == 6  # 4x4 framed is 6x6


def test_render_bordered_requires_digit_label():
    with pytest.raises(ValueError):
        render(parse_square("1"), "bordered", None)


def test_render_unknown_style():
    with pytest.raises(ValueError):
        render(parse_square("1"), "fancy")


# --- internal consistency -----------------------------------------------------


def _transpose(square: Square) -> Square:
    return Square.from_rows(zip(*square.rows))


def test_classification_invariant_under_transpose():
    for name in (
        "universal_5x5",
        "universal_4x4_1258",
        "universal_4x4_0125",
        "palindromic_3x3_888",
    ):
        square = load_fixture(name)
        flipped = _transpose(square)
        assert classify(flipped).category is classify(square).category
        assert classify(flipped).constant == classify(square).constant
