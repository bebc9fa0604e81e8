"""Command-line front end.

Exit status: 0 success, 1 a requested property check failed, 2 usage or
parse error, 141 (128 + SIGPIPE) stdout was closed early, as by ``| head``.
Squares are read from a file argument or standard input; stdout carries
data, stderr diagnostics.  Each command imports only the modules it runs:
``squares`` for the commands that read, build or print squares, ``search``
(and the kernel) for search and palindromes, ``dates`` for dates, ``json``
for JSON output; help and usage errors import none of them.  When the
command line starts with a command, ``main`` builds that command's subparser
alone, whose usage, help and errors read as those of the parser of every
command (``build_parser()``); any other line gets the parser of every
command.  Each square, JSON line or date list goes to
stdout in one write, so unbuffered output (``python -u``) costs one system
call per record, and squares still go out as they are found.  The plain text
of ``search`` and ``palindromes`` is printed straight from the search's index
grids, through one ``%`` template of the order, with no ``Square`` built;
their JSONL output still builds each square and classifies it.
"""

from __future__ import annotations

import argparse
import os
import sys

# Every command and its help line, in the order of the usage and the help.
_COMMANDS = {
    "verify": "classify a square and check expectations",
    "classify": "classify plus universality verdicts",
    "transform": "apply transforms and print the image",
    "search": "enumerate combination squares",
    "palindromes": "enumerate palindromic semi-magic squares",
    "dates": "scan a date range for alphabet membership",
    "render": "print a square in another style",
}

# --expect level -> name of its squares.Category member.
_EXPECT_LEVELS = {
    "semi": "SEMI_MAGIC",
    "magic": "MAGIC",
    "pandiagonal": "PANDIAGONAL_MAGIC",
}


def _expected(level: str):
    from . import squares

    return squares.Category[_EXPECT_LEVELS[level]]


def _read_square(path: str | None):
    from . import squares

    if path is None or path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    return squares.parse_square(text)


def _parse_transforms(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _print_json(obj) -> None:
    import json  # only --json and --jsonl load it

    sys.stdout.write(json.dumps(obj) + "\n")


def cmd_verify(args) -> int:
    from . import squares

    square = _read_square(args.file)
    report = squares.classify(square)
    if args.json:
        _print_json(squares.report_to_json(report))
    else:
        print(squares.format_report(report))
    failed = []
    if args.expect and report.category < _expected(args.expect):
        failed.append(f"expected {args.expect}, got {report.category.label}")
    if args.constant is not None and report.constant != args.constant:
        failed.append(f"expected constant {args.constant}, got {report.constant}")
    for reason in failed:
        print(f"check failed: {reason}", file=sys.stderr)
    return 1 if failed else 0


def cmd_classify(args) -> int:
    from . import squares

    square = _read_square(args.file)
    transforms = (
        _parse_transforms(args.transforms)
        if args.transforms
        else squares.ATOMIC_TRANSFORMS
    )
    report = squares.classify_universal(square, transforms)
    if args.json:
        _print_json(squares.report_to_json(report))
    else:
        print(squares.format_report(report))
    return 0


def cmd_transform(args) -> int:
    from . import squares

    square = _read_square(args.file)
    try:
        image = squares.apply_transform(square, args.apply)
    except squares.InvalidDigitError as err:
        print(str(err), file=sys.stderr)
        return 1
    print(squares.render(image))
    return 0


def cmd_search(args) -> int:
    from . import search

    transforms = _parse_transforms(args.transforms) if args.transforms else ()
    query = (args.alphabet, _expected(args.expect), transforms)
    if args.jsonl:
        stream = search.enumerate_squares(*query, dedup=args.dedup)
        return _emit(_reports(stream, transforms))
    return _emit(_texts(*search._square_grids(*query, args.dedup)))


def cmd_palindromes(args) -> int:
    from . import search

    query = (args.alphabet, args.order, args.width)
    if args.jsonl:
        return _emit(_reports(search.enumerate_palindromic(*query), ()))
    return _emit(_texts(*search._palindromic_grids(*query)))


def _emit(records) -> int:
    """Write each record as it comes, in one write, then the ``N squares``
    line; the exit status."""
    count = 0
    for count, record in enumerate(records, 1):
        sys.stdout.write(record)
    print(f"{count} squares", file=sys.stderr)
    return 0


def _texts(n, cells, grids):
    """The plain text of each square whose cell p is ``cells[grid[p]]``, as
    ``squares.render`` prints it, after the blank line that separates it from
    the one before: one ``%`` template of the order, and no ``Square``."""
    text = "\n".join([" ".join(["%s"] * n)] * n) + "\n"
    following = "\n" + text
    for grid in grids:
        yield text % tuple(map(cells.__getitem__, grid))
        text = following


def _reports(stream, transforms):
    """The JSONL line of each square: its universality report and its rows."""
    import json  # only --json and --jsonl load it

    from . import squares

    for square in stream:
        record = squares.report_to_json(squares.classify_universal(square, transforms))
        record["rows"] = [list(row) for row in square.rows]
        yield json.dumps(record) + "\n"


def cmd_dates(args) -> int:
    from . import dates

    found = dates.scan(
        dates.parse_date(args.start),
        dates.parse_date(args.end),
        args.alphabet,
        args.mode,
    )
    if args.json:
        _print_json([dates.format_date(d) for d in found])
    else:
        sys.stdout.write("".join(f"{dates.format_date(day)}\n" for day in found))
    return 0


def cmd_render(args) -> int:
    from . import squares

    square = _read_square(args.file)
    print(squares.render(square, args.style, args.border_label))
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser: of every command when ``command`` is None,
    else of ``command`` alone.  The parser of one command holds no other
    subparser, yet its usage still spells out every command, and on a line
    that starts with ``command`` it parses, prints and exits as the parser of
    every command does."""
    parser = argparse.ArgumentParser(
        prog="segmagic",
        description="Verify, transform and enumerate universal magic squares "
        "built from seven-segment digits.",
    )
    # The parser of one command spells out what argparse derives from every
    # command: the command list of the usage, and the subparsers' prog, which
    # it derives by formatting a usage.  The parser of every command keeps
    # argparse's defaults: a metavar would also rename the command argument
    # in the errors that a missing or unknown command raises.
    spelt = {"metavar": "{%s}" % ",".join(_COMMANDS), "prog": "segmagic"}
    sub = parser.add_subparsers(
        dest="command", required=True, **(spelt if command else {})
    )

    def add(name, func):
        """The subparser of ``name``; None when the parser leaves it out."""
        if command not in (None, name):
            return None
        p = sub.add_parser(name, help=_COMMANDS[name])
        p.set_defaults(func=func)
        return p

    def add_square_arg(p):
        p.add_argument("file", nargs="?", help="square file (default: stdin)")

    p = add("verify", cmd_verify)
    if p:
        add_square_arg(p)
        p.add_argument("--expect", choices=sorted(_EXPECT_LEVELS))
        p.add_argument("--constant", type=int)
        p.add_argument("--json", action="store_true")

    p = add("classify", cmd_classify)
    if p:
        add_square_arg(p)
        p.add_argument("--transforms", help="comma-separated (default: all four)")
        p.add_argument("--json", action="store_true")

    p = add("transform", cmd_transform)
    if p:
        add_square_arg(p)
        # squares.ATOMIC_TRANSFORMS, spelt out so that building the parser
        # does not import squares
        p.add_argument(
            "--apply",
            action="append",
            required=True,
            choices=("rot180", "mirror-h", "mirror-v", "digit-reverse"),
            help="repeatable; applied left to right",
        )

    p = add("search", cmd_search)
    if p:
        p.add_argument("--alphabet", required=True, help="digit string, e.g. 1258")
        p.add_argument("--expect", choices=sorted(_EXPECT_LEVELS), default="magic")
        p.add_argument("--transforms", help="universality filter, comma-separated")
        p.add_argument(
            "--dedup", action="store_true", help="orbit-minimal squares only"
        )
        # Accepted and ignored: the search picks the Latin route itself.  It
        # stays because the benchmark's order4-latin-jsonl command line still
        # passes it.
        p.add_argument("--via-latin", action="store_true", help=argparse.SUPPRESS)
        p.add_argument("--jsonl", action="store_true", help="one report per line")

    p = add("palindromes", cmd_palindromes)
    if p:
        p.add_argument("--alphabet", required=True)
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--width", type=int, required=True)
        p.add_argument("--jsonl", action="store_true")

    p = add("dates", cmd_dates)
    if p:
        p.add_argument("--alphabet", required=True)
        p.add_argument("--from", dest="start", required=True, metavar="DD.MM.YYYY")
        p.add_argument("--to", dest="end", required=True, metavar="DD.MM.YYYY")
        # dates.MODES, spelt out so that building the parser does not
        # import dates
        p.add_argument("--mode", choices=("subset", "exact"), default="subset")
        p.add_argument("--json", action="store_true")

    p = add("render", cmd_render)
    if p:
        add_square_arg(p)
        p.add_argument(
            "--style",
            choices=("plain", "json", "sevenseg", "bordered"),
            default="plain",
        )
        p.add_argument("--border-label", help="frame cell for the bordered style")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A command in first place takes every argument after it, so its
    # subparser alone parses the line; any other line (an option first, no
    # command, an unknown one) gets the parser of every command.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        from .squares import SquareParseError  # loaded on the error path only

        kind = "parse" if isinstance(err, SquareParseError) else "usage"
        print(f"{kind} error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left; send what is still buffered to /dev/null so the
        # flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as err:
        print(f"cannot read {err.filename}: {err.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
