"""Enumeration of magic squares over restricted digit alphabets.

A *combination square* over an alphabet D uses every ordered two-digit pair
of D exactly once as a cell; its semi-magic constant is forced to 11 * sum(D)
(tens contribute ten times the digit sum, units once).  Both routes of
``enumerate_squares`` generate the admissible first rows here and run the
line-set generator in ``kernels`` (the kernel) once per row, then filter
complete grids by one line-sum check, for universality and for
orbit-minimality.

The direct route hands the kernel the cell values and the magic sum.  The
Latin route (``via_latin``) hands it a key per cell that sums to its target
along a line exactly when the line's tens digits and its units digits are
each a permutation of D, so the kernel enumerates superimposed orthogonal
Latin pairs.  Every such square is semi-magic; the converse fails for some
alphabets: over {0,1,2,3}, where 0+3 = 1+2, the direct route finds 353,664
semi-magic squares and only 6,912 of them have Latin digit grids.
``via_latin`` therefore refuses every alphabet in which two pairs of
distinct digits have the same sum.  Over the other alphabets both routes
were checked to give the same squares, at the semi-magic and the magic
level: all 120 alphabets of order 3 (three distinct digits never collide)
and the 160 of the 210 alphabets of order 4 that are not refused (the 50
refused ones lose squares at both levels).

At order 5 that rule is not enough: some magic squares over {0,1,2,5,8}
are not Latin pairs.  From order 5 on, ``via_latin`` also needs mirror-h
and digit-reverse among the universality transforms, and refuses
otherwise.  With both, every universal square is a Latin pair:
digit-reverse makes the tens and the units of each line sum alike, and
mirror-h, which swaps 2 and 5, then leaves only the digit multisets
{0,1,2,5,8} and {0,0,0,8,8} for a line; 1 appears five times in the tens
grid and at most once per line, so every line is {0,1,2,5,8}.  Every other
alphabet of order 5 or more holds a digit with no mirror-h image, so no
square over it is universal and the search is empty.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator, NamedTuple, Sequence

from . import kernels
from .squares import (
    ATOMIC_TRANSFORMS,
    DIGIT_REVERSE,
    MIRROR_H,
    Category,
    Square,
    alphabet_of,
    cell_image,
    line_level,
    parse_alphabet,
    source_positions,
)


def magic_sum(alphabet: Sequence[int]) -> int:
    """Forced row/column sum of any combination square over the alphabet."""
    return 11 * sum(alphabet)


def enumerate_squares(
    alphabet: Sequence[int] | str,
    requirement: Category = Category.MAGIC,
    universality: Sequence[str] = (),
    *,
    dedup: bool = False,
    via_latin: bool = False,
) -> Iterator[Square]:
    """Every combination square over ``alphabet`` (digits, or a string such
    as "1258") whose lines reach ``requirement``, in lexicographic order of
    the row-major cell concatenation, each exactly once.

    ``universality`` lists the atomic transforms whose image must again
    reach ``requirement`` with the same constant.  ``dedup`` keeps only the
    lexicographically least square of each orbit under the group those
    transforms generate (skipping transforms that break digit validity).
    The order is the alphabet's size.  A non-digit alphabet, a requirement
    below semi-magic or an unknown transform raises ValueError on the first
    ``next``, before any kernel call.

    The kernel runs once per admissible first row, in lexicographic order,
    and each row's squares are yielded as soon as its call returns, so the
    first square waits only for the calls up to its row.  The kernel yields
    grids whose rows and columns reach their target; each is kept when its
    lines reach ``requirement``, every universality image reaches it with
    the same constant, and (with ``dedup``) no orbit element sorts it
    lower.  On the direct route a first row is admissible when its values
    reach the magic sum, every universality image's row taken from it does
    too, and (with ``dedup``) no orbit element that maps row 0 onto row 0
    sorts it lower; the rows left out hold only squares the filter would
    drop.  ``via_latin`` runs the kernel over Latin-pair keys instead (see
    the module docstring) and prunes first rows by their keys alone; it
    raises ValueError (on the first ``next``) where it would miss squares.
    """
    alphabet = parse_alphabet(alphabet)
    if requirement < Category.SEMI_MAGIC:
        raise ValueError("requirement must be at least semi-magic")
    universality = tuple(universality)
    for name in universality:
        if name not in ATOMIC_TRANSFORMS:
            raise ValueError(f"unknown transform {name!r}")
    n = len(alphabet)
    cells = [f"{x}{y}" for x, y in product(alphabet, repeat=2)]
    values = [int(c) for c in cells]
    target = magic_sum(alphabet)
    if via_latin:
        name = "".join(map(str, alphabet))
        sums = [a + b for a, b in combinations(alphabet, 2)]
        if len(set(sums)) != len(sums):
            raise ValueError(
                f"via_latin would miss squares over {name}: "
                "two pairs of its distinct digits have the same sum"
            )
        if n >= 5 and not {MIRROR_H, DIGIT_REVERSE} <= set(universality):
            raise ValueError(
                f"via_latin would miss squares over {name}: at order {n} it "
                "needs mirror-h and digit-reverse among the transforms"
            )

    # Transforms as (source positions, image value of each cell index).
    # Images may leave the alphabet (rot180 turns 16 into 91 over {1,2,6}),
    # so they are compared and summed as values, never as indices.
    identity = (tuple(range(n * n)), tuple(cells))
    steps = [_step(n, identity, t) for t in universality]
    if None in steps:
        return  # a transform has no image of some cell of every square
    orbit = _group(n, identity, universality) if dedup else ()
    images = [(src, [int(c) for c in image]) for src, image in steps]
    orbit = [(src, [int(c) for c in image]) for src, image in orbit]

    if via_latin:
        # Cell (a, b) gets key 2**a * 4**n + 2**b.  A sum of n powers of two
        # is 2**n - 1 only when it holds each power once, and the units part
        # stays below 4**n, so a line's keys sum to the target exactly when
        # its tens indices and its units indices are permutations.  The keys
        # ascend in cell order, so the kernel's order is the cells' order.
        keys = [2**a * 4**n + 2**b for a in range(n) for b in range(n)]
        key_target = (2**n - 1) * (4**n + 1)
        rows = _first_rows(n, keys, key_target, (), ())
    else:
        keys, key_target = values, target
        rows = _first_rows(n, values, target, images, orbit)

    for row in rows:
        for grid in kernels.product_square_indices(keys, n, key_target, row):
            key = [values[c] for c in grid]
            if line_level(key, n, target) < requirement or any(
                line_level([image[grid[s]] for s in src], n, target) < requirement
                for src, image in images
            ):
                continue
            if any([image[grid[s]] for s in src] < key for src, image in orbit):
                continue
            yield Square.from_rows(
                tuple(cells[grid[i * n + j]] for j in range(n)) for i in range(n)
            )


def _first_rows(n, values, target, images, orbit) -> Iterator[tuple[int, ...]]:
    """The admissible first rows of ``enumerate_squares``, ascending.

    A row is n distinct cell indices whose values sum to the target; its
    last cell is forced.  Every transform maps rows to rows, so a
    universality image whose row comes from row 0 must sum to the target
    too.  An orbit element whose image row 0 comes from row 0 and is below
    it lexicographically puts the whole image below the square, which dedup
    would then drop.
    """
    index = {v: c for c, v in enumerate(values)}
    sums = [
        (src[r * n : r * n + n], image)
        for src, image in images
        for r in range(n)
        if max(src[r * n : r * n + n]) < n
    ]
    mins = [(src[:n], image) for src, image in orbit if max(src[:n]) < n]
    for head in permutations(range(len(values)), n - 1):
        last = index.get(target - sum(values[c] for c in head))
        if last is None or last in head:
            continue
        row = head + (last,)
        if any(sum(image[row[s]] for s in src) != target for src, image in sums):
            continue
        key = [values[c] for c in row]
        if any([image[row[s]] for s in src] < key for src, image in mins):
            continue
        yield row


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


class LatinPair(NamedTuple):
    """Two Latin squares over 0..n-1 whose superimposed pairs are distinct."""

    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.a)


class LatinPairError(ValueError):
    """Input grids are not an orthogonal Latin pair."""


def _check_latin(grid: Sequence[Sequence[int]], n: int, name: str) -> None:
    full = set(range(n))
    if len(grid) != n or any(len(row) != n for row in grid):
        raise LatinPairError(f"grid {name} is not {n}x{n}")
    for i, row in enumerate(grid):
        if set(row) != full:
            raise LatinPairError(f"grid {name} row {i} is not a permutation")
    for j in range(n):
        if {grid[i][j] for i in range(n)} != full:
            raise LatinPairError(f"grid {name} column {j} is not a permutation")


def from_latin_pair(pair: LatinPair, alphabet: Sequence[int]) -> Square:
    """Superimpose an orthogonal Latin pair over a digit alphabet.

    Cell (i, j) is the digit alphabet[a[i][j]] followed by alphabet[b[i][j]];
    the result has every row and column summing to 11 * sum(alphabet).
    """
    alphabet = parse_alphabet(alphabet)
    n = len(alphabet)
    _check_latin(pair.a, n, "a")
    _check_latin(pair.b, n, "b")
    pairs = {(pair.a[i][j], pair.b[i][j]) for i in range(n) for j in range(n)}
    if len(pairs) != n * n:
        raise LatinPairError("grids are not orthogonal")
    return Square.from_rows(
        tuple(f"{alphabet[pair.a[i][j]]}{alphabet[pair.b[i][j]]}" for j in range(n))
        for i in range(n)
    )


def decompose_to_latin_pair(square: Square) -> LatinPair | None:
    """Split a width-2 square into its tens/units index grids.

    Returns None unless the cells are exactly the alphabet product and both
    digit grids are Latin (orthogonality then comes free from cell
    distinctness).  The index order is the ascending digit order, so
    ``from_latin_pair(pair, alphabet_of(square))`` reconstructs the square.
    """
    if square.width != 2:
        raise ValueError(f"need width-2 cells, got width {square.width}")
    n = square.order
    digits = alphabet_of(square)
    if len(digits) != n:
        return None
    index = {str(d): k for k, d in enumerate(digits)}
    cells = set(square.cells())
    if len(cells) != n * n or cells != {
        f"{x}{y}" for x, y in product(digits, repeat=2)
    }:
        return None
    a = tuple(tuple(index[cell[0]] for cell in row) for row in square.rows)
    b = tuple(tuple(index[cell[1]] for cell in row) for row in square.rows)
    try:
        _check_latin(a, n, "a")
        _check_latin(b, n, "b")
    except LatinPairError:
        return None
    return LatinPair(a, b)


def palindromic_cells(alphabet: Sequence[int], width: int) -> list[str]:
    """All width-w palindromic digit strings over the alphabet, ascending."""
    alphabet = parse_alphabet(alphabet)
    if width < 1:
        raise ValueError("width must be at least 1")
    half = (width + 1) // 2
    out = []
    for head in product(alphabet, repeat=half):
        tail = head[: width // 2][::-1]
        out.append("".join(str(d) for d in head + tail))
    return out


def enumerate_palindromic(
    alphabet: Sequence[int], order: int, width: int
) -> Iterator[Square]:
    """Stream all semi-magic squares of distinct palindromic cells.

    Cells are drawn without repetition from the width-w palindromes over the
    alphabet; rows and columns must share one sum (the diagonals are free).
    Output is lexicographic by row-major concatenation.  The first row sets
    the sum: the kernel runs once per first row, in lexicographic order,
    with that row's sum as its target.
    """
    cells = palindromic_cells(alphabet, width)
    values = [int(c) for c in cells]
    n = order
    if n < 1:
        raise ValueError("order must be at least 1")
    if len(cells) < n * n:
        return
    for row in permutations(range(len(cells)), n):
        target = sum(values[c] for c in row)
        for grid in kernels.product_square_indices(values, n, target, row):
            yield Square.from_rows(
                tuple(cells[grid[i * n + j]] for j in range(n)) for i in range(n)
            )
