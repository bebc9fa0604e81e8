"""Command-line front end.

Exit status: 0 success, 1 a requested property check failed, 2 usage or
parse error, 141 (128 + SIGPIPE) stdout was closed early, as by ``| head``.
Squares are read from a file argument or standard input; stdout carries
data, stderr diagnostics.  Each command imports only the modules it runs:
``search`` (and the kernel) for search and palindromes, ``dates`` for dates,
``json`` for JSON output.  ``main`` builds the parser with every command and
its help, but adds arguments only to the command it runs, so usage, help and
errors read as those of the parser of every command (``build_parser()``).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import squares
from .squares import Category, InvalidDigitError, SquareParseError

_EXPECT_LEVELS = {
    "semi": Category.SEMI_MAGIC,
    "magic": Category.MAGIC,
    "pandiagonal": Category.PANDIAGONAL_MAGIC,
}


def _read_square(path: str | None) -> squares.Square:
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

    print(json.dumps(obj))


def cmd_verify(args) -> int:
    square = _read_square(args.file)
    report = squares.classify(square)
    if args.json:
        _print_json(squares.report_to_json(report))
    else:
        print(squares.format_report(report))
    failed = []
    if args.expect and report.category < _EXPECT_LEVELS[args.expect]:
        failed.append(f"expected {args.expect}, got {report.category.label}")
    if args.constant is not None and report.constant != args.constant:
        failed.append(f"expected constant {args.constant}, got {report.constant}")
    for reason in failed:
        print(f"check failed: {reason}", file=sys.stderr)
    return 1 if failed else 0


def cmd_classify(args) -> int:
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
    square = _read_square(args.file)
    try:
        image = squares.apply_transform(square, args.apply)
    except InvalidDigitError as err:
        print(str(err), file=sys.stderr)
        return 1
    print(squares.render(image))
    return 0


def cmd_search(args) -> int:
    from . import search

    transforms = _parse_transforms(args.transforms) if args.transforms else ()
    stream = search.enumerate_squares(
        args.alphabet,
        _EXPECT_LEVELS[args.expect],
        transforms,
        dedup=args.dedup,
    )
    return _emit_squares(stream, args.jsonl, transforms)


def cmd_palindromes(args) -> int:
    from . import search

    stream = search.enumerate_palindromic(args.alphabet, args.order, args.width)
    return _emit_squares(stream, args.jsonl, ())


def _emit_squares(stream, jsonl: bool, transforms) -> int:
    """Print each square, then the ``N squares`` line; the exit status."""
    count = 0
    for square in stream:
        if jsonl:
            record = squares.report_to_json(
                squares.classify_universal(square, transforms)
            )
            record["rows"] = [list(row) for row in square.rows]
            _print_json(record)
        else:
            if count:
                print()
            print(squares.render(square))
        count += 1
    print(f"{count} squares", file=sys.stderr)
    return 0


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
        for day in found:
            print(dates.format_date(day))
    return 0


def cmd_render(args) -> int:
    square = _read_square(args.file)
    print(squares.render(square, args.style, args.border_label))
    return 0


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser: every command with its help, and the
    arguments of ``command`` alone, or of every command when it is None.
    On a command line whose command is ``command`` it parses, prints and
    exits as the parser of every command does."""
    parser = argparse.ArgumentParser(
        prog="segmagic",
        description="Verify, transform and enumerate universal magic squares "
        "built from seven-segment digits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_square_arg(p):
        p.add_argument("file", nargs="?", help="square file (default: stdin)")

    p = sub.add_parser("verify", help="classify a square and check expectations")
    if command in (None, "verify"):
        add_square_arg(p)
        p.add_argument("--expect", choices=sorted(_EXPECT_LEVELS))
        p.add_argument("--constant", type=int)
        p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="classify plus universality verdicts")
    if command in (None, "classify"):
        add_square_arg(p)
        p.add_argument("--transforms", help="comma-separated (default: all four)")
        p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("transform", help="apply transforms and print the image")
    if command in (None, "transform"):
        add_square_arg(p)
        p.add_argument(
            "--apply",
            action="append",
            required=True,
            choices=squares.ATOMIC_TRANSFORMS,
            help="repeatable; applied left to right",
        )
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("search", help="enumerate combination squares")
    if command in (None, "search"):
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
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("palindromes", help="enumerate palindromic semi-magic squares")
    if command in (None, "palindromes"):
        p.add_argument("--alphabet", required=True)
        p.add_argument("--order", type=int, required=True)
        p.add_argument("--width", type=int, required=True)
        p.add_argument("--jsonl", action="store_true")
    p.set_defaults(func=cmd_palindromes)

    p = sub.add_parser("dates", help="scan a date range for alphabet membership")
    if command in (None, "dates"):
        p.add_argument("--alphabet", required=True)
        p.add_argument("--from", dest="start", required=True, metavar="DD.MM.YYYY")
        p.add_argument("--to", dest="end", required=True, metavar="DD.MM.YYYY")
        # dates.MODES, spelt out so that building the parser does not
        # import dates
        p.add_argument("--mode", choices=("subset", "exact"), default="subset")
        p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dates)

    p = sub.add_parser("render", help="print a square in another style")
    if command in (None, "render"):
        add_square_arg(p)
        p.add_argument(
            "--style",
            choices=("plain", "json", "sevenseg", "bordered"),
            default="plain",
        )
        p.add_argument("--border-label", help="frame cell for the bordered style")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no option that takes a value, so the command
    # argparse runs is the first argument that is not an option; only its
    # subparser needs arguments.
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except SquareParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
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
