"""Enumeration of magic squares over restricted digit alphabets.

A *combination square* over an alphabet D uses every ordered two-digit pair
of D exactly once as a cell; its semi-magic constant is forced to 11 * sum(D)
(tens contribute ten times the digit sum, units once).  ``enumerate_squares``
takes the admissible first rows from the route's lines (below), completes
them with the line-set generator in ``kernels`` (the kernel), then filters
complete grids for universality and for orbit-minimality.  One line-sum
check covers a grid and all its universality images at once: each cell
index carries one integer that packs the cell's value and the value of its
image under each transform, and the packed line sums reach the packed
target exactly when every lane reaches the magic sum.  Every transform maps
rows and columns onto rows and columns, so a set of cells can be a row or a
column of a kept square only if its packed sum reaches the packed target:
the kernel gets only the route's lines that do, and the grids' rows and
columns need no further check.  For a magic or pandiagonal query both
routes yield only grids whose main diagonals reach the magic sum in every
lane, so the check on each grid reads only its wrap-around diagonals, and on
a magic query none.  The kept grids are index grids into the query's cell
strings; ``enumerate_squares`` builds a ``Square`` from each, while the
command line prints plain text straight from the grids and builds squares
only for its JSONL output, which classifies each one.

The kernel completes a first row from the lines it is given, and the search
runs on one of two routes.  The direct route's lines are the sets of n cells
whose values reach the magic sum (``kernels.line_sets``); it runs the
kernel once per such set, on the line's own ascending order; permuting
a first row's cells permutes the columns of its completions, so every other
ordering of the set permutes the columns of those grids, testing their main
diagonals first on a magic or pandiagonal query.  The palindromic search
completes its first rows the same way.  The Latin route's lines are the
transversals: the n! sets of n cells that hold each tens digit once and
each units digit once, so the kernel enumerates superimposed orthogonal
Latin pairs.  It runs the kernel once per search, on the canonical first row
of doubled digits (11 22 55 88 over {1,2,5,8}), and relabels the tens and
the units of those grids to reach every other first row, whose completions
they are one to one (the isotopy action through which Latin squares are
counted from reduced forms; McKay, Meynert and Myrvold, "Small Latin
squares, quasigroups and loops", 2007).  On a magic or pandiagonal query it
relabels only the grids whose main diagonals then reach the magic sum in
every lane: a cell's packed value adds a part of its tens index and a part
of its units index, so a diagonal's sum depends only on the tens and the
units index multisets of its canonical cells; the canonical grids are
grouped by those multisets once, and each row joins the groups' sums under
its relabellings instead of summing every grid's diagonals (the
transversal view of Wanless, "Transversals in Latin squares", 2011).
Every such square is semi-magic; the converse fails for some alphabets: over
{0,1,2,3}, where 0+3 = 1+2, there are 353,664 semi-magic squares and only
6,912 of them have Latin digit grids.  The search takes the Latin route only
where it misses no square, so the route changes the speed, never the stream,
and the direct route everywhere else.  Up to order 4 that is every alphabet
in which no two pairs of distinct digits have the same sum: both routes were
checked to give the same squares at the semi-magic and the magic level over
every alphabet of one to three digits (three distinct digits never collide)
and the 160 of the 210 alphabets of order 4 without such sums.

At order 5 that rule is not enough: some magic squares over {0,1,2,5,8}
are not Latin pairs.  From order 5 on, the Latin route also needs mirror-h
and digit-reverse among the universality transforms.  With both, every
universal square is a Latin pair: digit-reverse makes the tens and the
units of each line sum alike, and mirror-h, which swaps 2 and 5, then
leaves only the digit multisets {0,1,2,5,8} and {0,0,0,8,8} for a line; 1
appears five times in the tens grid and at most once per line, so every
line is {0,1,2,5,8}.  Every other alphabet of order 5 or more holds a digit
with no mirror-h image, so no square over it is universal and the search is
empty.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain, combinations, permutations, product
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from . import kernels
from .squares import (
    DIGIT_REVERSE,
    MIRROR_H,
    Category,
    Square,
    _cell_set,
    _from_grid,
    _group,
    _step,
    _transform_names,
    line_level,
    lines,
    parse_alphabet,
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
) -> Iterator[Square]:
    """Every combination square over ``alphabet`` (digits, or a string such
    as "1258") whose lines reach ``requirement``, in lexicographic order of
    the row-major cell concatenation, each exactly once.

    ``universality`` lists the atomic transforms whose image must again
    reach ``requirement`` with the same constant.  ``dedup`` keeps only the
    lexicographically least square of each orbit under the group those
    transforms generate (skipping transforms that break digit validity).
    The order is the alphabet's size.  A non-digit alphabet, a requirement
    other than semi-magic, magic or pandiagonal, a string for ``universality``
    or an unknown transform raises ValueError on the first ``next``, before
    any kernel call.

    The admissible first rows are completed in lexicographic order, and each
    row's squares are yielded as soon as its grids are known, so the first
    square waits only for the rows up to its own.  The direct route runs the
    kernel once per cell set, on the set's ascending ordering, at its first
    admissible row, and permutes the columns of its grids for the set's other
    orderings; the Latin route runs it once, on the canonical row, at the first
    admissible row, and relabels its grids for each row, from the magic level
    on only those whose main diagonals, and those of every universality image,
    the row's relabelling takes to the magic sum (see the module docstring).
    The kernel gets only the route's lines (the transversals on the Latin
    route, the sets of n cells that reach the magic sum on the direct one)
    whose cells' images under every universality transform reach the magic sum
    too: every transform maps rows and columns onto rows and columns, so no
    other line can be a row or a column of a kept square.  A row's grids have
    rows and columns made of those lines, and from the magic level on main
    diagonals that reach the magic sum, as do those of every universality
    image; each is kept when, at the pandiagonal level, its wrap-around
    diagonals and those of every universality image reach the magic sum too
    (one ``line_level`` call on the packed values of the module docstring;
    none below that level), and (with ``dedup``) no orbit element sorts it
    lower.  A first row is admissible when it orders one of those lines and
    (with ``dedup``) no orbit element that maps row 0 onto row 0 sorts it
    lower; the rows left out hold only squares the filter would drop.  The
    cells are written from the parsed alphabet, so the squares skip
    ``Square``'s cell checks.  The command line prints plain text straight
    from the index grids and builds no ``Square``; its JSONL output still
    builds each square from this stream and classifies it.
    """
    n, cells, grids = _square_grids(alphabet, requirement, universality, dedup)
    yield from map(partial(_from_grid, n, cells), grids)


def _square_grids(alphabet, requirement, universality, dedup):
    """The order, the cell strings and a lazy stream of the index grids of
    ``enumerate_squares``: a grid's square holds ``cells[grid[p]]`` at
    row-major position p.  The query's ValueErrors are raised by this call,
    before any kernel call."""
    alphabet = parse_alphabet(alphabet)
    if requirement not in range(Category.SEMI_MAGIC, Category.PANDIAGONAL_MAGIC + 1):
        raise ValueError("requirement must be semi-magic, magic or pandiagonal")
    universality = _transform_names(universality, "universality")
    n = len(alphabet)
    cells = [f"{x}{y}" for x, y in product(alphabet, repeat=2)]
    values = [int(c) for c in cells]
    target = magic_sum(alphabet)

    # Transforms as (source positions, image value of each cell index).
    # Images may leave the alphabet (rot180 turns 16 into 91 over {1,2,6}),
    # so they are compared and summed as values, never as indices.
    identity = (tuple(range(n * n)), tuple(cells))
    steps = [_step(n, identity, t) for t in universality]
    if None in steps:  # a transform has no image of some cell of every square
        return n, cells, iter(())
    orbit = _group(n, identity, universality) if dedup else ()
    orbit = [(src, [int(c) for c in image]) for src, image in orbit]

    pair_sums = [a + b for a, b in combinations(alphabet, 2)]
    latin = len(set(pair_sums)) == len(pair_sums) and (
        n < 5 or {MIRROR_H, DIGIT_REVERSE} <= set(universality)
    )

    # Every transform maps the lines of each category onto lines of that
    # category, so an image reaches the requirement exactly when its value
    # lane does on the grid's own lines.  One integer per cell holds every
    # lane, each in a field wide enough that no line sum or target carries
    # into the next, so one packed sum checks a line of the grid and of its
    # images.  The kernel gets only the route's lines whose packed sum
    # reaches the target, which settles every row and column.
    lanes = [values] + [[int(c) for c in image] for _, image in steps]
    bits = max(n * max(map(max, lanes)), target).bit_length()
    packed = [
        sum(lane[c] << bits * k for k, lane in enumerate(lanes))
        for c in range(n * n)
    ]
    packed_target = sum(target << bits * k for k in range(len(lanes)))
    if latin:
        # Cell a·n + b holds tens index a and units index b, so the
        # transversal of permutation p holds cells a·n + p[a].
        route = [tuple(a * n + p[a] for a in range(n)) for p in permutations(range(n))]
    else:
        route = kernels.line_sets(values, n)[target]
    kept = [line for line in route if sum(packed[c] for c in line) == packed_target]
    # Both routes settle the main diagonals of every lane, so the grids need
    # only the wrap-around diagonals checked.
    table = [(c, line) for c, line in lines(n) if Category.MAGIC < c <= requirement]

    magic = packed_target if requirement >= Category.MAGIC else None
    rows = _first_rows(n, kept, values, orbit)
    if latin:
        per_row = _latin_grids(rows, n, kept, packed, magic)
    else:
        per_row = _completions(rows, packed, {packed_target: kept}, magic)

    def kept_grids():
        for grids in per_row:
            for grid in grids:
                if table:
                    level = line_level([packed[c] for c in grid], table, packed_target)
                    if level < requirement:
                        continue
                if not _sorts_lower(grid, values, orbit):
                    yield grid

    return n, cells, kept_grids()


def _sorts_lower(cells, values, elements):
    """Whether one of ``elements`` (source positions, image value per cell
    index) maps the cells onto a sequence below their ``values``: at the
    first cell, or on a tie there, by the whole sequence."""
    head = values[cells[0]]
    for src, image in elements:
        lead = image[cells[src[0]]]
        if lead < head or lead == head and (
            [image[cells[s]] for s in src] < [values[c] for c in cells]
        ):
            return True
    return False


def _first_rows(n, lines, values, orbit):
    """The admissible first rows of ``enumerate_squares``, ascending.

    A row is an ordering of one of ``lines``, the kept lines' ascending cell
    tuples.  An orbit element whose image row 0 comes from row 0 and is
    below it lexicographically puts the whole image below the square, which
    dedup would then drop; the grid filter's orbit test, ``_sorts_lower``,
    finds such rows.  The rows come one first cell at a time, in ascending
    order: each cell's bucket holds the orderings of the rest of every line
    that holds the cell, each after the cell, and is sorted, pruned and
    yielded before the next cell's is built.
    """
    mins = [(src[:n], image) for src, image in orbit if max(src[:n]) < n]
    rests = {}  # first cell -> each line that holds it, without it
    for line in lines:
        for i, c in enumerate(line):
            rests.setdefault(c, []).append(line[:i] + line[i + 1 :])
    for c in sorted(rests):
        prepend = (c,).__add__
        orders = (map(prepend, permutations(rest)) for rest in rests[c])
        for row in sorted(chain.from_iterable(orders)):
            if not _sorts_lower(row, values, mins):
                yield row


def _latin_grids(rows, n, sets, values, target) -> Iterator[list[tuple[int, ...]]]:
    """The Latin grids of each of ``rows`` in turn, each row's ascending;
    with ``target``, only those whose main diagonals sum to it in
    ``values``.  These must weigh cell a·n + b as a part of a plus a part
    of b.  The cell values of a combination square do, and so do the
    search's packed values, since every transform maps a cell's two digits
    one by one, in either order.

    Cell index a·n + b holds tens index a and units index b.  Relabelling
    the tens by σ and the units by τ maps orthogonal Latin pairs onto
    orthogonal Latin pairs, so with σ(j) = a_j and τ(j) = b_j it maps the
    completions of the canonical row (j, j) one to one onto those of the
    row with cells (a_j, b_j).  The kernel completes the canonical row,
    the main diagonal of ``lines(n)``, from ``sets``, the transversals,
    once, at the first row, and never if there is none; its grids are then
    relabelled for every row; with ``target``, only those that
    ``_diagonal_join`` picks for the row.
    """
    main = _diagonals(n)[0]
    canonical = None
    for row in rows:
        if canonical is None:
            canonical = kernels.product_square_indices(sets, main)
            if target is not None:
                hits = _diagonal_join(canonical, n, values, target)
        grids = canonical if target is None else hits(row)
        table = [a // n * n + b % n for a in row for b in row]
        yield sorted(tuple(map(table.__getitem__, g)) for g in grids)


def _diagonal_join(grids, n, values, target):
    """A function from a Latin first row to those of ``grids``, canonical
    Latin grids, whose main diagonals reach ``target`` once relabelled for
    the row as in ``_latin_grids``.

    Cell a·n + b weighs T[a] + U[b], with T[a] = values[a·n] − values[0] and
    U[b] = values[b], so a relabelled diagonal whose canonical cells hold
    the tens indices A and the units indices B sums to Σ T[σ(a)] over A plus
    Σ U[τ(b)] over B.  So the grids are grouped once by the tens and the
    units index multisets of their main diagonal, then by those of their
    anti-diagonal, and no grid's diagonal is summed.  The tens multisets are
    summed once per σ, and the units multisets once per τ and indexed by
    their sum.  For each tens multiset of a main group the row looks up the
    units multisets whose sum completes the target, and within the groups
    it finds, it does the same for the anti-diagonal, all in one loop.
    """
    tens_part = [values[a * n] - values[0] for a in range(n)]  # T
    units_part = values[:n]  # U
    diagonals = _diagonals(n)
    tens, units = {}, {}  # multiset -> its key, numbered as first seen
    groups = {}  # main tens key -> units key -> anti tens key -> units key -> grids
    for g in grids:
        (main_t, main_u), (anti_t, anti_u) = (
            (
                tens.setdefault(tuple(sorted(g[p] // n for p in d)), len(tens)),
                units.setdefault(tuple(sorted(g[p] % n for p in d)), len(units)),
            )
            for d in diagonals
        )
        by_anti = groups.setdefault(main_t, {}).setdefault(main_u, {})
        by_anti.setdefault(anti_t, {}).setdefault(anti_u, []).append(g)

    @cache
    def per_sigma(sigma):
        return [sum(tens_part[sigma[a]] for a in key) for key in tens]

    @cache
    def per_tau(tau):
        by_sum = {}  # sum -> the units keys that reach it
        for key, multiset in enumerate(units):
            total = sum(units_part[tau[b]] for b in multiset)
            by_sum[total] = by_sum.get(total, ()) + (key,)
        return by_sum

    def hits(row):
        ten = per_sigma(tuple([c // n for c in row]))
        completing = per_tau(tuple([c % n for c in row]))
        found = []
        for t, by_units in groups.items():
            for u in completing.get(target - ten[t], ()):
                if u in by_units:
                    for anti_t, by_anti_units in by_units[u].items():
                        for anti_u in completing.get(target - ten[anti_t], ()):
                            if anti_u in by_anti_units:
                                found += by_anti_units[anti_u]
        return found

    return hits


def _diagonals(n):
    """The two main diagonals of an n×n grid: the magic lines of ``lines``."""
    return [line for c, line in lines(n) if c == Category.MAGIC]


def _completions(rows, values, by_sum, target=None) -> Iterator[list[tuple[int, ...]]]:
    """The kernel's grids of each of ``rows`` in turn, each row's ascending,
    over the lines that ``by_sum`` maps the row's sum in ``values`` to; with
    ``target``, only those whose main diagonals sum to it in ``values``.
    The direct route of ``enumerate_squares`` passes the packed values,
    ``{packed target: kept lines}`` and, from the magic level on, the packed
    target, with rows of four or more cells; ``enumerate_palindromic``
    passes cell values, all of ``kernels.line_sets`` and no target.

    The rows must ascend.  Permuting a first row's cells permutes the
    columns of each of its completions, so the kernel completes each cell
    set once, on its ascending ordering, and every ordering among ``rows``
    but that one permutes the columns of those grids, the diagonal cells
    tested first.  Each set's grids are kept as the kernel returned them,
    an empty list too, until the rows' first cell passes the set's largest
    cell, after which no ordering of the set can follow.
    """
    completed = {}  # ascending cells -> their grids
    first = None
    for row in rows:
        if row[0] != first:
            first = row[0]
            completed = {s: v for s, v in completed.items() if s[-1] >= first}
        cells = tuple(sorted(row))
        if cells not in completed:
            sets = by_sum[sum(values[c] for c in row)]
            completed[cells] = kernels.product_square_indices(sets, cells)
        grids = completed[cells]
        if not grids:
            yield grids
            continue
        n = len(row)
        columns = [cells.index(c) for c in row]
        # Position p of this row's grids is position source[p] of cells'.
        source = [p - p % n + columns[p % n] for p in range(n * n)]
        if target is not None:
            main, anti = (itemgetter(*[source[p] for p in d]) for d in _diagonals(n))
            value = values.__getitem__
            grids = [
                g
                for g in grids
                if sum(map(value, main(g))) == target
                and sum(map(value, anti(g))) == target
            ]
        if row != cells:
            grids = sorted(tuple(map(g.__getitem__, source)) for g in grids)
        yield grids


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
    grid = [pair.a[i][j] * n + pair.b[i][j] for i in range(n) for j in range(n)]
    if len(set(grid)) != n * n:
        raise LatinPairError("grids are not orthogonal")
    cells = [f"{x}{y}" for x, y in product(alphabet, repeat=2)]
    return _from_grid(n, cells, grid)


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
    cell_set = _cell_set(square)
    if cell_set.kind != "exact-product":
        return None
    index = {str(d): k for k, d in enumerate(cell_set.alphabet)}
    a = tuple(tuple(index[cell[0]] for cell in row) for row in square.rows)
    b = tuple(tuple(index[cell[1]] for cell in row) for row in square.rows)
    try:
        _check_latin(a, n, "a")
        _check_latin(b, n, "b")
    except LatinPairError:
        return None
    return LatinPair(a, b)


def palindromic_cells(alphabet: Sequence[int] | str, width: int) -> list[str]:
    """All width-w palindromic digit strings over the alphabet, ascending."""
    alphabet = parse_alphabet(alphabet)
    if type(width) is not int or width < 1:
        raise ValueError(f"width must be an int of at least 1, got {width!r}")
    half = (width + 1) // 2
    out = []
    for head in product(alphabet, repeat=half):
        tail = head[: width // 2][::-1]
        out.append("".join(str(d) for d in head + tail))
    return out


def enumerate_palindromic(
    alphabet: Sequence[int] | str, order: int, width: int
) -> Iterator[Square]:
    """Stream all semi-magic squares of distinct palindromic cells.

    Cells are drawn without repetition from the width-w palindromes over the
    alphabet; rows and columns must share one sum (the diagonals are free).
    Output is lexicographic by row-major concatenation.  The first row sets
    the sum, and the first rows come in lexicographic order.  Permuting a
    first row's cells permutes the columns of each of its completions, so
    the kernel runs once per cell set, on its ascending ordering, which
    comes first; every other ordering permutes the columns of those grids,
    as on the direct route of ``enumerate_squares``.
    An order or a width that is not an ``int`` of at least 1 raises
    ValueError on the first ``next``.  As with ``enumerate_squares``, the
    command line prints plain text straight from the index grids.
    """
    n, cells, grids = _palindromic_grids(alphabet, order, width)
    yield from map(partial(_from_grid, n, cells), grids)


def _palindromic_grids(alphabet, order, width):
    """The order, the cell strings and a lazy stream of the index grids of
    ``enumerate_palindromic``, as ``_square_grids`` gives them."""
    cells = palindromic_cells(alphabet, width)
    values = [int(c) for c in cells]
    n = order
    if type(n) is not int or n < 1:
        raise ValueError(f"order must be an int of at least 1, got {n!r}")
    if len(cells) < n * n:
        return n, cells, iter(())
    rows = permutations(range(len(cells)), n)
    per_row = _completions(rows, values, kernels.line_sets(values, n))
    return n, cells, chain.from_iterable(per_row)
