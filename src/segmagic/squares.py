"""Digit-string squares: parsing, magic classification, transforms, rendering.

Cells are fixed-width digit strings, not integers: "05" and "5" are different
cells and every operation preserves the width (leading zeros included).

Square-level transformations combine a cell permutation with per-cell digit
rewriting.  The geometric rules, worked out on the 2x1 cell "52":

    rot180        cell moves to the opposite position, digit order reverses,
                  every digit takes a half turn        52 -> 25 -> 25
    mirror-h      cell moves to the mirrored column, digit order reverses,
                  every digit is left-right mirrored   52 -> 25 -> 52
    mirror-v      cell moves to the mirrored row, digit order is KEPT (a
                  top-bottom flip does not change left-to-right reading
                  order), every digit is flipped       52 -> 25
    digit-reverse cell stays put, digit order reverses,
                  digits untouched                     52 -> 25

A square is *universal* when it stays magic with the same constant under all
four transformations.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import IntEnum
from functools import cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import glyphs
from .glyphs import MIRROR_H, MIRROR_V, ROT180, parse_alphabet

DIGIT_REVERSE = "digit-reverse"

#: The four atomic square transformations, in canonical order.
ATOMIC_TRANSFORMS = (ROT180, MIRROR_H, MIRROR_V, DIGIT_REVERSE)

_DIGITS = frozenset("0123456789")

_CELL = re.compile(r"\S+")


class SquareParseError(ValueError):
    """Malformed square text; carries the offending line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
        self.line = line
        self.column = column


class InvalidDigitError(ValueError):
    """A glyph transform hit a digit with no readable image."""

    def __init__(self, transform: str, row: int, col: int, digit: int):
        super().__init__(
            f"{transform}: digit {digit} in cell ({row}, {col}) has no image"
        )
        self.transform = transform
        self.row = row
        self.col = col
        self.digit = digit


class Category(IntEnum):
    """Magic-ness lattice; comparisons follow the implication chain."""

    NOT_MAGIC = 0
    SEMI_MAGIC = 1
    MAGIC = 2
    PANDIAGONAL_MAGIC = 3

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


class Square:
    """An n x n grid of equal-width digit-string cells; immutable, compared
    and hashed by its rows, and equal only to a ``Square``."""

    rows: tuple[tuple[str, ...], ...]

    def __init__(self, rows: Iterable[Iterable[str]]):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("square has no rows")
        if any(len(row) != n for row in rows):
            raise ValueError("grid is not square")
        first = rows[0][0]
        for cell in (cell for row in rows for cell in row):
            if not isinstance(cell, str) or not cell or not set(cell) <= _DIGITS:
                raise ValueError(f"cell {cell!r} is not a digit string")
            if len(cell) != len(first):
                raise ValueError(f"cell {cell!r} does not have width {len(first)}")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows,))

    def __repr__(self) -> str:
        return f"Square(rows={self.rows!r})"

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[str]]) -> "Square":
        return cls(rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    @property
    def width(self) -> int:
        return len(self.rows[0][0])

    @property
    def concat(self) -> str:
        """Row-major concatenation of all cells; the lexicographic sort key."""
        return "".join(cell for row in self.rows for cell in row)

    def cells(self) -> Iterator[str]:
        for row in self.rows:
            yield from row

    def values(self) -> list[list[int]]:
        return [[int(cell) for cell in row] for row in self.rows]

    def __str__(self) -> str:
        return render(self)


def alphabet_of(square: Square) -> tuple[int, ...]:
    """Distinct digits occurring in the square, ascending."""
    return tuple(sorted({int(ch) for cell in square.cells() for ch in cell}))


class CellSet(NamedTuple):
    """What the multiset of cells looks like."""

    kind: str  # "exact-product" | "all-distinct" | "other"
    alphabet: tuple[int, ...] = ()

    def __str__(self) -> str:
        if self.kind == "exact-product":
            return "exact-product:" + "".join(str(d) for d in self.alphabet)
        return self.kind


class Verdict(NamedTuple):
    """Outcome of classifying the image of one transformation."""

    kind: str  # one of the five constants below
    constant: int | None = None
    position: tuple[int, int] | None = None


MAGIC_SAME_CONSTANT = "magic-same-constant"
MAGIC_OTHER_CONSTANT = "magic-other-constant"
IMAGE_SEMI_MAGIC = "semi-magic"
IMAGE_INVALID_DIGITS = "invalid-digits"
IMAGE_NOT_MAGIC = "not-magic"


class ClassificationReport(NamedTuple):
    order: int
    width: int
    category: Category
    constant: int | None
    cell_set: CellSet
    universality: dict[str, Verdict]  # each report gets its own dict


def parse_square(text: str) -> Square:
    """Parse the square text format.

    UTF-8 lines; ``#`` starts a comment; blank lines are skipped; each data
    line is one row of whitespace-separated cells; every cell must have the
    same character length and the grid must be square.
    """
    rows: list[tuple[str, ...]] = []
    width: int | None = None
    ncols: int | None = None
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = [
            (m.start() + 1, m.group()) for m in _CELL.finditer(raw.split("#", 1)[0])
        ]
        if not tokens:
            continue
        for col, tok in tokens:
            for k, ch in enumerate(tok):
                if ch not in _DIGITS:
                    raise SquareParseError(
                        f"non-digit character {ch!r}", lineno, col + k
                    )
            if width is None:
                width = len(tok)
            elif len(tok) != width:
                raise SquareParseError(
                    f"cell {tok!r} has width {len(tok)}, expected {width}",
                    lineno,
                    col,
                )
        if ncols is None:
            ncols = len(tokens)
        elif len(tokens) != ncols:
            # The column of the first extra cell, or just past a short row.
            raise SquareParseError(
                f"ragged row: {len(tokens)} cells, expected {ncols}",
                lineno,
                tokens[ncols][0] if len(tokens) > ncols else tokens[-1][0] + width,
            )
        rows.append(tuple(tok for _, tok in tokens))
    if not rows:
        raise SquareParseError("no cells found")
    if len(rows) != ncols:
        raise SquareParseError(
            f"{len(rows)} rows of {ncols} cells do not form a square", lineno
        )
    return Square(rows)


def magic_constant(square: Square) -> int | None:
    """The common row sum, or None when the rows disagree."""
    sums = {sum(map(int, row)) for row in square.rows}
    if len(sums) == 1:
        return sums.pop()
    return None


@cache
def lines(n: int) -> tuple[tuple[Category, tuple[int, ...]], ...]:
    """Every line of an n x n grid as row-major positions, ascending by the
    lowest category that constrains it: rows and columns (semi-magic), the
    two main diagonals (magic), then the wrap-around diagonals in both
    directions (pandiagonal; none for n < 3, where pandiagonal is magic).
    """
    out = [(Category.SEMI_MAGIC, tuple(i * n + j for j in range(n))) for i in range(n)]
    out += [(Category.SEMI_MAGIC, tuple(i * n + j for i in range(n))) for j in range(n)]
    out.append((Category.MAGIC, tuple(i * n + i for i in range(n))))
    out.append((Category.MAGIC, tuple(i * n + n - 1 - i for i in range(n))))
    if n >= 3:
        out += [
            (Category.PANDIAGONAL_MAGIC, tuple(i * n + (i + k) % n for i in range(n)))
            for k in range(1, n)
        ]
        out += [
            (Category.PANDIAGONAL_MAGIC, tuple(i * n + (k - i) % n for i in range(n)))
            for k in range(n - 1)
        ]
    return tuple(out)


def line_level(
    values: Sequence[int],
    table: Iterable[tuple[Category, tuple[int, ...]]],
    target: int,
) -> Category:
    """The highest category whose lines in ``table`` all sum to ``target``;
    ``values`` is the row-major grid of cell values and ``table`` holds
    lines as ``lines`` does, ascending by category.  A category with no line
    in the table is reached whenever the ones below it are."""
    for category, line in table:
        if sum(map(values.__getitem__, line)) != target:
            return Category(category - 1)
    return Category.PANDIAGONAL_MAGIC


def classify(square: Square) -> ClassificationReport:
    """Magic category, constant and cell-set shape (no universality verdicts).

    Semi-magic: all rows and all columns share one sum.  Magic: both main
    diagonals too.  Pandiagonal: every wrap-around diagonal in both
    directions as well; for order < 3 pandiagonal coincides with magic.
    """
    constant = magic_constant(square)
    category = Category.NOT_MAGIC
    if constant is not None:
        values = [int(cell) for cell in square.cells()]
        category = line_level(values, lines(square.order), constant)
    return ClassificationReport(
        order=square.order,
        width=square.width,
        category=category,
        constant=constant,
        cell_set=_cell_set(square),
        universality={},
    )


def _cell_set(square: Square) -> CellSet:
    cells = Counter(square.cells())
    if square.width == 2:
        digits = alphabet_of(square)
        pairs = Counter(f"{x}{y}" for x, y in product(digits, repeat=2))
        if cells == pairs:
            return CellSet("exact-product", digits)
    if all(count == 1 for count in cells.values()):
        return CellSet("all-distinct")
    return CellSet("other")


@cache
def source_positions(n: int, transform: str) -> tuple[int, ...]:
    """For each row-major cell of the image, the position it comes from."""
    flip_rows = transform in (ROT180, MIRROR_V)
    flip_cols = transform in (ROT180, MIRROR_H)
    return tuple(
        (n - 1 - i if flip_rows else i) * n + (n - 1 - j if flip_cols else j)
        for i in range(n)
        for j in range(n)
    )


@cache
def cell_image(cell: str, transform: str) -> str | None:
    """The image of one cell, or None when one of its digits has no image."""
    if transform == DIGIT_REVERSE:
        return cell[::-1]
    table = glyphs.digit_map(transform)
    mapped = [table[int(ch)] for ch in cell]
    if None in mapped:
        return None
    image = "".join(map(str, mapped))
    return image if transform == MIRROR_V else image[::-1]


def apply_transform(square: Square, transform: str | Iterable[str]) -> Square:
    """Apply one atomic transformation, or a sequence of them left to right.

    Raises InvalidDigitError naming the first offending cell (row-major scan
    of the input square) when a digit has no image.
    """
    names = (transform,) if isinstance(transform, str) else transform
    for name in _transform_names(names, "transform"):
        square = _apply_atomic(square, name)
    return square


def _transform_names(names: Iterable[str], argument: str) -> tuple[str, ...]:
    """``names`` as a tuple, each an atomic transform; ``argument`` names the
    caller's parameter in the error for a bare string."""
    if isinstance(names, str):
        raise ValueError(f"{argument} must be transform names, not {names!r}")
    names = tuple(names)
    for name in names:
        if name not in ATOMIC_TRANSFORMS:
            raise ValueError(
                f"unknown transform {name!r}; choose from "
                + ", ".join(ATOMIC_TRANSFORMS)
            )
    return names


def _apply_atomic(square: Square, transform: str) -> Square:
    n = square.order
    cells = tuple(square.cells())
    element = _step(n, (range(n * n), cells), transform)
    if element is None:
        k = next(k for k, c in enumerate(cells) if cell_image(c, transform) is None)
        table = glyphs.digit_map(transform)
        digit = next(int(ch) for ch in cells[k] if table[int(ch)] is None)
        raise InvalidDigitError(transform, k // n, k % n, digit)
    src, images = element
    return _from_grid(n, images, src)


def _step(n, element, transform):
    """A group element, (source positions, image of each cell index),
    followed by ``transform``; None when some cell has no image."""
    src, images = element
    images = tuple(cell_image(c, transform) for c in images)
    if None in images:
        return None
    return tuple(src[s] for s in source_positions(n, transform)), images


def _group(n, identity, generators):
    """The non-identity elements of the group the generators generate on
    squares over the identity's cells, reached through valid images only."""
    group, frontier = {identity}, [identity]
    while frontier:
        element = frontier.pop()
        for t in generators:
            image = _step(n, element, t)
            if image is not None and image not in group:
                group.add(image)
                frontier.append(image)
    return group - {identity}


def _from_grid(n: int, cells: Sequence[str], grid: Sequence[int]) -> Square:
    """The n x n square whose row-major cell p is ``cells[grid[p]]``.

    The cells are not checked: every caller builds them as non-empty digit
    strings of one width.  ``search`` writes each cell from digits of an
    alphabet that ``parse_alphabet`` passed (ints 0-9, never bools), as
    ``f"{x}{y}"`` or through ``palindromic_cells``; ``apply_transform`` takes
    the images of a ``Square``'s cells, which keep the digits and the width.
    """
    flat = tuple(map(cells.__getitem__, grid))
    square = object.__new__(Square)
    object.__setattr__(
        square, "rows", tuple(flat[i : i + n] for i in range(0, n * n, n))
    )
    return square


def classify_universal(
    square: Square, transforms: Iterable[str] = ATOMIC_TRANSFORMS
) -> ClassificationReport:
    """Classify the square and the image of each requested transformation.

    A universal magic square answers magic-same-constant for every atomic
    transformation; the palindromic semi-magic family only promises an image
    that is at least semi-magic (the constant may change).
    """
    transforms = _transform_names(transforms, "transforms")
    base = classify(square)
    verdicts: dict[str, Verdict] = {}
    for name in transforms:
        try:
            image = apply_transform(square, name)
        except InvalidDigitError as err:
            verdicts[name] = Verdict(IMAGE_INVALID_DIGITS, position=(err.row, err.col))
            continue
        rep = classify(image)
        if rep.category >= Category.MAGIC:
            if rep.constant == base.constant:
                verdicts[name] = Verdict(MAGIC_SAME_CONSTANT, constant=rep.constant)
            else:
                verdicts[name] = Verdict(MAGIC_OTHER_CONSTANT, constant=rep.constant)
        elif rep.category >= Category.SEMI_MAGIC:
            verdicts[name] = Verdict(IMAGE_SEMI_MAGIC, constant=rep.constant)
        else:
            verdicts[name] = Verdict(IMAGE_NOT_MAGIC)
    return base._replace(universality=verdicts)


def report_to_json(report: ClassificationReport) -> dict:
    """JSON form of a report, with stable key names."""
    universality = {}
    for name, verdict in report.universality.items():
        entry: dict = {"verdict": verdict.kind}
        if verdict.constant is not None:
            entry["constant"] = verdict.constant
        if verdict.position is not None:
            entry["position"] = list(verdict.position)
        universality[name] = entry
    return {
        "order": report.order,
        "width": report.width,
        "category": report.category.label,
        "constant": report.constant,
        "cell_set": str(report.cell_set),
        "universality": universality,
    }


def format_report(report: ClassificationReport) -> str:
    """Human-readable multi-line report."""
    lines = [
        f"order: {report.order}",
        f"width: {report.width}",
        f"category: {report.category.label}",
        f"constant: {report.constant if report.constant is not None else 'undefined'}",
        f"cell-set: {report.cell_set}",
    ]
    if report.universality:
        lines.append("universality:")
        for name, verdict in report.universality.items():
            extra = ""
            if verdict.constant is not None:
                extra = f" (constant {verdict.constant})"
            if verdict.position is not None:
                extra = f" (cell {verdict.position[0]},{verdict.position[1]})"
            lines.append(f"  {name}: {verdict.kind}{extra}")
    return "\n".join(lines)


def render(square: Square, style: str = "plain", border_label: str | None = None) -> str:
    """Render a square as text.

    plain      the parseable text format
    json       one JSON object with order, width and rows
    sevenseg   ASCII seven-segment art, three lines per digit row
    bordered   the square framed by a repeated label cell (presentational;
               requires border_label)
    """
    if style == "plain":
        return "\n".join(" ".join(row) for row in square.rows)
    if style == "json":
        import json  # only this style needs it

        return json.dumps(
            {
                "order": square.order,
                "width": square.width,
                "rows": [list(row) for row in square.rows],
            }
        )
    if style == "sevenseg":
        return _render_sevenseg(square)
    if style == "bordered":
        if not border_label:
            raise ValueError("bordered style needs a border label")
        return _render_bordered(square, border_label)
    raise ValueError(f"unknown style {style!r}")


def _render_sevenseg(square: Square) -> str:
    blocks = []
    for row in square.rows:
        lines = ["", "", ""]
        for c, cell in enumerate(row):
            art = [glyphs.ascii_glyph(glyphs.digit_mask(int(ch))) for ch in cell]
            for k in range(3):
                piece = " ".join(a[k] for a in art)
                lines[k] += ("   " if c else "") + piece
        blocks.append("\n".join(line.rstrip() for line in lines))
    return "\n\n".join(blocks)


def _render_bordered(square: Square, label: str) -> str:
    colw = max(len(label), square.width)
    frame = [label] * (square.order + 2)
    grid = [frame]
    for row in square.rows:
        grid.append([label, *row, label])
    grid.append(frame)
    return "\n".join(
        " ".join(f"{cell:>{colw}}" for cell in row).rstrip() for row in grid
    )
