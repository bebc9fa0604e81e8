"""Independent oracles for the benchmark's output checks.

Nothing here imports segmagic.  Line sums, the seven-segment digit maps, the
four square transforms, orthogonal Latin pairs and the calendar scan are
computed from their definitions, so a fault in the package cannot hide in
its own checker.  Every checker returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
from datetime import date, timedelta
from functools import lru_cache
from itertools import permutations

Grid = tuple[tuple[str, ...], ...]

TRANSFORMS = ("rot180", "mirror-h", "mirror-v", "digit-reverse")

# The paper's digit maps: a half turn fixes 0, 1, 2, 5, 8 and swaps 6 and 9;
# both mirrors fix 0, 1, 8 and swap 2 and 5.  Other digits have no image.
ROT180_DIGITS = {"0": "0", "1": "1", "2": "2", "5": "5", "8": "8", "6": "9", "9": "6"}
MIRROR_DIGITS = {"0": "0", "1": "1", "8": "8", "2": "5", "5": "2"}

# Each glyph transform: digit map, source cell of target (i, j) in an n x n
# grid, and whether the digit order inside a cell reverses.
_GEOMETRY = {
    "rot180": (ROT180_DIGITS, lambda i, j, n: (n - 1 - i, n - 1 - j), True),
    "mirror-h": (MIRROR_DIGITS, lambda i, j, n: (i, n - 1 - j), True),
    "mirror-v": (MIRROR_DIGITS, lambda i, j, n: (n - 1 - i, j), False),
}

CATEGORIES = ("not-magic", "semi-magic", "magic", "pandiagonal-magic")

PAPER_DAYS_2010 = [
    "08.05.2010",
    "18.05.2010",
    "28.05.2010",
    "05.08.2010",
    "15.08.2010",
    "25.08.2010",
]


# ---------------------------------------------------------------- parsing


def parse_grid(text: str) -> Grid:
    """Rows of whitespace-separated cells; ``#`` comments and blanks skipped."""
    rows = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens:
            rows.append(tuple(tokens))
    return tuple(rows)


def parse_grids(text: str) -> list[Grid]:
    """Squares separated by blank lines, as the plain search output writes them."""
    return [parse_grid(block) for block in text.split("\n\n") if block.strip()]


def reported_count(stderr: str) -> int | None:
    """The ``N squares`` total a search command writes to stderr."""
    for line in stderr.splitlines():
        words = line.split()
        if len(words) == 2 and words[1] == "squares" and words[0].isdigit():
            return int(words[0])
    return None


def concat(grid: Grid) -> str:
    return "".join(cell for row in grid for cell in row)


# ------------------------------------------------------------- line sums


def row_constant(grid: Grid) -> int | None:
    """The common row sum, or None when the rows disagree."""
    sums = {sum(int(cell) for cell in row) for row in grid}
    return sums.pop() if len(sums) == 1 else None


def category(grid: Grid) -> str:
    """not-magic, semi-magic, magic or pandiagonal-magic, from the line sums."""
    v = [[int(cell) for cell in row] for row in grid]
    n = len(v)
    sums = {sum(row) for row in v} | {sum(v[i][j] for i in range(n)) for j in range(n)}
    if len(sums) != 1:
        return "not-magic"
    k = sums.pop()
    if sum(v[i][i] for i in range(n)) != k or sum(v[i][n - 1 - i] for i in range(n)) != k:
        return "semi-magic"
    wrapped = [sum(v[i][(i + s) % n] for i in range(n)) for s in range(n)]
    wrapped += [sum(v[i][(s - i) % n] for i in range(n)) for s in range(n)]
    if n < 3 or all(w == k for w in wrapped):
        return "pandiagonal-magic"
    return "magic"


def at_least(found: str, required: str) -> bool:
    return CATEGORIES.index(found) >= CATEGORIES.index(required)


def cell_set(grid: Grid) -> str:
    cells = [cell for row in grid for cell in row]
    digits = sorted({ch for cell in cells for ch in cell})
    if len(cells[0]) == 2 and sorted(cells) == sorted(a + b for a in digits for b in digits):
        return "exact-product:" + "".join(digits)
    return "all-distinct" if len(set(cells)) == len(cells) else "other"


# ------------------------------------------------------------- transforms


def bad_digit_cell(grid: Grid, name: str) -> tuple[int, int] | None:
    """First cell, row-major, holding a digit the transform cannot map."""
    if name == "digit-reverse":
        return None
    table = _GEOMETRY[name][0]
    for i, row in enumerate(grid):
        for j, cell in enumerate(row):
            if any(ch not in table for ch in cell):
                return (i, j)
    return None


def transform(grid: Grid, name: str) -> Grid | None:
    """Image of the grid under one transform, or None when a digit has none."""
    n = len(grid)
    if name == "digit-reverse":
        return tuple(tuple(cell[::-1] for cell in row) for row in grid)
    if bad_digit_cell(grid, name) is not None:
        return None
    table, source, reverse = _GEOMETRY[name]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            si, sj = source(i, j, n)
            mapped = "".join(table[ch] for ch in grid[si][sj])
            row.append(mapped[::-1] if reverse else mapped)
        out.append(tuple(row))
    return tuple(out)


def orbit(grid: Grid, names=TRANSFORMS) -> set[Grid]:
    """Closure of the grid under the named transforms (invalid images skipped)."""
    seen = {grid}
    frontier = [grid]
    while frontier:
        current = frontier.pop()
        for name in names:
            image = transform(current, name)
            if image is not None and image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def verdict(grid: Grid, name: str) -> dict:
    """The universality verdict for one transform, in the CLI's JSON form."""
    bad = bad_digit_cell(grid, name)
    if bad is not None:
        return {"verdict": "invalid-digits", "position": list(bad)}
    image = transform(grid, name)
    found = category(image)
    constant = row_constant(image)
    if at_least(found, "magic"):
        base = row_constant(grid)
        kind = "magic-same-constant" if base is not None and constant == base else "magic-other-constant"
        return {"verdict": kind, "constant": constant}
    if found == "semi-magic":
        return {"verdict": "semi-magic", "constant": constant}
    return {"verdict": "not-magic"}


def expected_report(grid: Grid, names=TRANSFORMS) -> dict:
    """What ``classify --json`` and a JSONL search record must say about a grid."""
    return {
        "order": len(grid),
        "width": len(grid[0][0]),
        "category": category(grid),
        "constant": row_constant(grid),
        "cell_set": cell_set(grid),
        "universality": {name: verdict(grid, name) for name in names},
    }


# --------------------------------------------------- orthogonal Latin pairs


@lru_cache(maxsize=None)
def latin_squares(n: int) -> tuple[tuple[int, ...], ...]:
    """Every Latin square of order n over 0..n-1, as flat row-major tuples."""
    rows = list(permutations(range(n)))
    out = []

    def extend(chosen):
        if len(chosen) == n:
            out.append(tuple(x for row in chosen for x in row))
            return
        for row in rows:
            if all(row[j] != prev[j] for prev in chosen for j in range(n)):
                extend(chosen + [row])

    extend([])
    return tuple(out)


@lru_cache(maxsize=None)
def orthogonal_pairs(n: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every ordered pair of Latin squares whose superimposed pairs are distinct."""
    squares = latin_squares(n)
    return tuple(
        (a, b) for a in squares for b in squares if len(set(zip(a, b))) == n * n
    )


@lru_cache(maxsize=None)
def combination_squares(alphabet: str) -> frozenset:
    """The squares over the alphabet built from all ordered orthogonal Latin pairs.

    Cell (i, j) is alphabet[a] followed by alphabet[b]; its rows and columns
    all sum to 11 times the digit sum.
    """
    n = len(alphabet)
    return frozenset(
        tuple(
            tuple(alphabet[a[i * n + j]] + alphabet[b[i * n + j]] for j in range(n))
            for i in range(n)
        )
        for a, b in orthogonal_pairs(n)
    )


# ------------------------------------------------------------- checkers


def exit_problems(rc) -> list[str]:
    return [] if rc == 0 else [f"exit status {rc}"]


def read_squares(stdout: str, stderr: str, jsonl: bool, names, problems: list[str]) -> list[Grid]:
    """The squares a search or palindromes command printed, plain or JSONL.

    Each JSONL record's report must equal ``expected_report(grid, names)``,
    and the ``N squares`` total on stderr must match; mismatches are
    appended to ``problems``.
    """
    if not jsonl:
        grids = parse_grids(stdout)
    else:
        grids = []
        for number, line in enumerate(stdout.splitlines(), start=1):
            try:
                record = json.loads(line)
                grid = tuple(tuple(row) for row in record.pop("rows"))
            except (ValueError, KeyError, TypeError, AttributeError) as err:
                problems.append(f"record {number}: unreadable ({err})")
                continue
            if record != expected_report(grid, names):
                problems.append(f"record {number}: report {record} != {expected_report(grid, names)}")
            grids.append(grid)
    if reported_count(stderr) != len(grids):
        problems.append(f"stderr reports {reported_count(stderr)} squares, stdout has {len(grids)}")
    return grids


def check_search(stdout: str, stderr: str, rc: int, alphabet: str, level: str,
                 jsonl: bool, fixture: Grid) -> list[str]:
    """Check a ``search --transforms <all four> --dedup`` run over the alphabet.

    Every square must be a combination square over the alphabet at the
    required level with constant 11 * digit sum, its four images must reach
    that level with the same constant, it must be the least of its orbit,
    the orbits must be disjoint and together equal the squares built here
    from orthogonal Latin pairs, and the fixture must lie among them.
    """
    problems = exit_problems(rc)
    grids = read_squares(stdout, stderr, jsonl, TRANSFORMS, problems)
    if [concat(g) for g in grids] != sorted(concat(g) for g in grids):
        problems.append("squares are not in ascending order")

    constant = 11 * sum(int(d) for d in alphabet)
    cells = sorted(a + b for a in alphabet for b in alphabet)
    union: set[Grid] = set()
    for number, grid in enumerate(grids, start=1):
        where = f"square {number} {concat(grid)}"
        if sorted(cell for row in grid for cell in row) != cells:
            problems.append(f"{where}: cells are not the ordered pairs over {alphabet}")
            continue
        if not at_least(category(grid), level) or row_constant(grid) != constant:
            problems.append(f"{where}: not {level} with constant {constant}")
        for name in TRANSFORMS:
            image = transform(grid, name)
            if image is None or not at_least(category(image), level) or row_constant(image) != constant:
                problems.append(f"{where}: {name} image is not {level} with constant {constant}")
        members = orbit(grid)
        if min(concat(m) for m in members) != concat(grid):
            problems.append(f"{where}: not the least member of its orbit")
        if members & union:
            problems.append(f"{where}: orbit overlaps an earlier one")
        union |= members

    expected = {g for g in combination_squares(alphabet) if at_least(category(g), level)}
    if union != expected:
        problems.append(
            f"orbit union has {len(union)} squares; the Latin-pair construction "
            f"gives {len(expected)} {level} squares ({len(union - expected)} extra, "
            f"{len(expected - union)} missing)"
        )
    if fixture not in union:
        problems.append("the fixture square is in no orbit")
    return problems


def check_verify(stdout: str, rc: int, fixture: Grid, paper_constant: int) -> list[str]:
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    problems = exit_problems(rc)
    if fields.get("constant") != str(paper_constant) or row_constant(fixture) != paper_constant:
        problems.append(f"constant {fields.get('constant')}, paper says {paper_constant}")
    if fields.get("category") != category(fixture):
        problems.append(f"category {fields.get('category')}, expected {category(fixture)}")
    if fields.get("cell-set") != cell_set(fixture):
        problems.append(f"cell-set {fields.get('cell-set')}, expected {cell_set(fixture)}")
    return problems


def check_classify(stdout: str, rc: int, fixture: Grid, universal: bool) -> list[str]:
    problems = exit_problems(rc)
    try:
        report = json.loads(stdout)
    except ValueError as err:
        return problems + [f"not JSON: {err}"]
    expected = expected_report(fixture)
    if report != expected:
        problems.append(f"report {report} != {expected}")
    verdicts = report.get("universality", {}) if isinstance(report, dict) else {}
    if universal and (
        set(verdicts) != set(TRANSFORMS)
        or any(v.get("verdict") != "magic-same-constant" for v in verdicts.values())
    ):
        problems.append("a universal fixture is not magic-same-constant under all four transforms")
    return problems


def check_transform(stdout: str, rc: int, fixture: Grid, name: str) -> list[str]:
    problems = exit_problems(rc)
    image = parse_grid(stdout)
    if image != transform(fixture, name):
        problems.append(f"{name} image {image} != {transform(fixture, name)}")
    if category(image) != category(fixture) or row_constant(image) != row_constant(fixture):
        problems.append(f"{name} image changed category or constant")
    return problems


def check_bordered(stdout: str, rc: int, fixture: Grid, label: str) -> list[str]:
    """Strip the frame of a bordered render and compare what is left."""
    problems = exit_problems(rc)
    rows = [line.split() for line in stdout.splitlines() if line.strip()]
    n = len(fixture)
    frame = [label] * (n + 2)
    if len(rows) != n + 2 or rows[0] != frame or rows[-1] != frame:
        return problems + ["frame rows missing or wrong"]
    inner = []
    for row in rows[1:-1]:
        if len(row) != n + 2 or row[0] != label or row[-1] != label:
            return problems + [f"frame column missing in {row}"]
        inner.append(tuple(row[1:-1]))
    if tuple(inner) != fixture:
        problems.append(f"framed square {tuple(inner)} != fixture {fixture}")
    return problems


def scan_dates(start: date, end: date, alphabet: str, mode: str) -> list[str]:
    """dd.mm.yyyy dates whose digits are within (subset) or exactly (exact) the alphabet."""
    wanted = set(alphabet)
    out = []
    day = start
    while day <= end:
        text = day.strftime("%d.%m.%Y")
        digits = set(text.replace(".", ""))
        if digits == wanted or (mode == "subset" and digits <= wanted):
            out.append(text)
        day += timedelta(days=1)
    return out


def check_dates(stdout: str, rc: int, expected: list[str], paper: list[str] | None) -> list[str]:
    problems = exit_problems(rc)
    found = stdout.split()
    if found != expected:
        missing = sorted(set(expected) - set(found))
        extra = sorted(set(found) - set(expected))
        problems.append(f"{len(found)} dates, expected {len(expected)}: missing {missing[:5]}, extra {extra[:5]}")
    if paper is not None and expected != paper:
        problems.append(f"the datetime scan gives {expected}, the paper {paper}")
    return problems


def _palindromic_images(grid: Grid) -> list[Grid]:
    """Generators of the row-permutation, column-permutation and transpose group."""
    rows = list(grid)
    cols = list(zip(*grid))
    swap_rows = tuple([rows[1], rows[0], *rows[2:]])
    cycle_rows = tuple(rows[1:] + rows[:1])
    swap_cols = tuple(zip(*[cols[1], cols[0], *cols[2:]]))
    cycle_cols = tuple(zip(*(cols[1:] + cols[:1])))
    return [swap_rows, cycle_rows, swap_cols, cycle_cols, tuple(cols)]


def check_palindromes(stdout: str, stderr: str, rc: int, alphabet: str, width: int,
                      jsonl: bool, fixture: Grid | None) -> list[str]:
    """Semi-magic squares of distinct palindromic cells over the alphabet.

    The result set must be closed under row permutation, column permutation
    and transposition, since those keep every row and column sum.
    """
    problems = exit_problems(rc)
    grids = read_squares(stdout, stderr, jsonl, (), problems)
    found = set(grids)
    if len(found) != len(grids):
        problems.append("a square is listed twice")
    for grid in grids:
        cells = [cell for row in grid for cell in row]
        if not at_least(category(grid), "semi-magic"):
            problems.append(f"{concat(grid)}: not semi-magic")
        if len(set(cells)) != len(cells):
            problems.append(f"{concat(grid)}: repeated cell")
        if any(len(c) != width or c != c[::-1] or not set(c) <= set(alphabet) for c in cells):
            problems.append(f"{concat(grid)}: a cell is not a width-{width} palindrome over {alphabet}")
        if any(image not in found for image in _palindromic_images(grid)):
            problems.append(f"{concat(grid)}: set not closed under row/column permutation and transposition")
    if fixture is not None and fixture not in found:
        problems.append("the fixture square is missing")
    return problems
