"""Command-line interface: flags, exit codes, stream formats."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import segmagic
from segmagic import ATOMIC_TRANSFORMS, Category, cli, render, search, squares
from segmagic.cli import main

from conftest import fixture_path

FIX_5x5 = str(fixture_path("universal_5x5"))
FIX_4x4_1258 = str(fixture_path("universal_4x4_1258"))
FIX_4x4_0125 = str(fixture_path("universal_4x4_0125"))
FIX_PAL_888 = str(fixture_path("palindromic_3x3_888"))


def child_env() -> dict[str, str]:
    """The environment of a child that imports this same package."""
    env = dict(os.environ)
    src = str(Path(segmagic.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def segmagic_process(*argv, env=None, **kwargs):
    """``python -m segmagic`` in a child that imports this same package,
    with ``env`` added to its environment."""
    return subprocess.Popen(
        [sys.executable, "-m", "segmagic", *argv],
        env={**child_env(), **(env or {})},
        **kwargs,
    )


def run(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(argv)


# --- verify ---------------------------------------------------------------


def test_verify_pandiagonal_with_constant(capsys):
    assert main(["verify", FIX_5x5, "--expect", "pandiagonal", "--constant", "176"]) == 0
    out = capsys.readouterr().out
    assert "pandiagonal-magic" in out
    assert "176" in out


def test_verify_expectation_failure_is_exit_1(capsys):
    assert main(["verify", FIX_4x4_1258, "--expect", "pandiagonal"]) == 1
    captured = capsys.readouterr()
    assert "check failed" in captured.err
    assert "magic" in captured.err


def test_verify_wrong_constant_is_exit_1(capsys):
    assert main(["verify", FIX_4x4_0125, "--expect", "magic", "--constant", "176"]) == 1
    assert "88" in capsys.readouterr().err


def test_verify_json_output(capsys):
    assert main(["verify", FIX_4x4_0125, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["category"] == "magic"
    assert data["constant"] == 88


def test_verify_reads_stdin(capsys, monkeypatch):
    assert run(["verify", "--expect", "semi"], "11 22\n22 11\n", monkeypatch) == 0
    assert "semi-magic" in capsys.readouterr().out


def test_missing_file_is_exit_2(capsys):
    assert main(["verify", "no/such/file.sq"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_unreadable_path_is_exit_2_without_traceback(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    assert f"cannot read {tmp_path}: " in capsys.readouterr().err


def test_parse_error_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.sq"
    bad.write_text("12 3x\n45 67\n", encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err
    assert "line 1" in err


def test_unknown_flag_is_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", FIX_5x5, "--nope"])
    assert err.value.code == 2


def test_no_command_is_exit_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


_COMMANDS = ("verify", "classify", "transform", "search", "palindromes", "dates", "render")


def _parser_exit(parse, argv):
    """(stdout, stderr, exit code) of a parse that exits, as for help or an
    error; both streams captured in-process."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_:
        parse(argv)
    return out.getvalue(), err.getvalue(), exit_.value.code


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["-h", "search"],
        *([name, "--help"] for name in _COMMANDS),
        [],
        ["nosuch"],
        ["--", "nosuch", "verify"],
        ["verify", FIX_5x5, "--nope"],
        ["dates", "--alphabet", "1", "--from", "01.01.2010", "--to", "01.01.2010", "-x"],
        ["search"],
        ["transform", FIX_5x5],
        ["palindromes", "--alphabet", "125", "--order", "3"],
        ["search", "--alphabet", "1258", "--expect", "nosuch"],
        ["search", "--alphabet", "1258", "bogus"],
        ["search", "--alphabet", "1258", "--", "x"],
        ["search", "--alph", "1258", "--zzz"],
        ["search", "--alphabet"],
        ["transform", FIX_5x5, "--apply", "nosuch"],
        ["verify", FIX_5x5, "extra", "more"],
        ["render", FIX_5x5, "--style", "nosuch"],
        ["palindromes", "--order", "x"],
    ],
    ids=" ".join,
)
def test_parser_of_the_invoked_command_alone_prints_the_same(argv):
    # main builds the subparser of the command it runs alone when the line
    # starts with it, and otherwise the parser of every command; help, usage
    # and errors equal those of the parser of every command.
    assert _parser_exit(main, argv) == _parser_exit(cli.build_parser().parse_args, argv)


@pytest.mark.parametrize(
    "argv",
    [["--help"], [], ["nosuch"], ["search", "--alphabet", "1258", "bogus"]],
    ids=" ".join,
)
def test_spelt_out_command_list_reads_as_argparse_derives_it(argv, monkeypatch):
    # The parser of one command gives its subparsers action the metavar and
    # prog that argparse derives from every command; the reference parser's
    # action keeps argparse's defaults.
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def with_defaults(self, **kwargs):
        kwargs.pop("metavar", None)
        kwargs.pop("prog", None)
        return add_subparsers(self, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "add_subparsers", with_defaults)
        reference = cli.build_parser()
    assert _parser_exit(main, argv) == _parser_exit(reference.parse_args, argv)


@pytest.mark.parametrize(
    "argv, parsers",
    [
        (["search", "--alphabet", "125", "--expect", "semi"], 2),
        (["verify", FIX_5x5], 2),
        (["--help"], 8),
    ],
    ids=["search", "verify", "--help"],
)
def test_main_builds_the_invoked_command_s_parser_alone(
    argv, parsers, monkeypatch, capsys
):
    # The top-level parser and the command's subparser; --help lists every
    # command, so it builds all seven subparsers.
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    try:
        assert main(argv) == 0
    except SystemExit as exit_:
        assert exit_.code == 0
    assert len(built) == parsers, built


# --- classify / transform ----------------------------------------------------


def test_classify_all_transforms_json(capsys):
    assert main(["classify", FIX_4x4_1258, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["universality"]) == {
        "rot180",
        "mirror-h",
        "mirror-v",
        "digit-reverse",
    }
    for entry in data["universality"].values():
        assert entry["verdict"] == "magic-same-constant"
        assert entry["constant"] == 176


def test_classify_transform_subset(capsys):
    assert main(["classify", FIX_PAL_888, "--transforms", "rot180", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data["universality"]) == ["rot180"]
    assert data["universality"]["rot180"]["verdict"] == "semi-magic"


def test_classify_unknown_transform_is_exit_2(capsys):
    assert main(["classify", FIX_PAL_888, "--transforms", "spin"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_transform_round_trip(capsys):
    assert main(["transform", FIX_5x5, "--apply", "rot180", "--apply", "rot180"]) == 0
    out = capsys.readouterr().out
    from segmagic import parse_square

    assert parse_square(out) == parse_square(
        fixture_path("universal_5x5").read_text(encoding="utf-8")
    )


def test_transform_single(capsys):
    assert main(["transform", FIX_5x5, "--apply", "rot180"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "21 10 05 58 82"


def test_transform_invalid_digit_is_exit_1(capsys, monkeypatch):
    assert run(["transform", "--apply", "rot180"], "13 31\n31 13\n", monkeypatch) == 1
    err = capsys.readouterr().err
    assert "digit 3" in err


def test_transform_bad_choice_is_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["transform", FIX_5x5, "--apply", "spin"])
    assert err.value.code == 2


# --- search / palindromes ------------------------------------------------------


def test_search_plain_stream(capsys):
    assert main(["search", "--alphabet", "012", "--expect", "magic"]) == 0
    captured = capsys.readouterr()
    blocks = captured.out.strip().split("\n\n")
    assert len(blocks) == 8
    assert "8 squares" in captured.err
    assert blocks == sorted(blocks)


def test_search_jsonl(capsys):
    assert main(
        [
            "search",
            "--alphabet",
            "012",
            "--expect",
            "magic",
            "--transforms",
            "rot180,digit-reverse",
            "--jsonl",
        ]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        record = json.loads(line)
        assert record["category"] == "magic"
        assert record["constant"] == 33
        assert record["universality"]["rot180"]["verdict"] == "magic-same-constant"
        assert len(record["rows"]) == 3


def test_search_dedup(capsys):
    assert main(
        [
            "search",
            "--alphabet",
            "012",
            "--expect",
            "magic",
            "--transforms",
            "rot180,digit-reverse",
            "--dedup",
        ]
    ) == 0
    captured = capsys.readouterr()
    assert "2 squares" in captured.err


def test_search_via_latin_matches_direct(capsys):
    assert main(["search", "--alphabet", "125", "--expect", "semi"]) == 0
    direct = capsys.readouterr().out
    assert main(["search", "--alphabet", "125", "--expect", "semi", "--via-latin"]) == 0
    assert capsys.readouterr().out == direct


def test_search_via_latin_on_colliding_pair_sums_matches_direct(capsys):
    # 0+3 = 1+2: over 0123 the search takes the direct route, and the
    # ignored flag changes nothing.  The digest is the stdout of the same
    # command without the flag, frozen from the direct route.
    argv = ["search", "--alphabet", "0123", "--transforms", "digit-reverse", "--dedup"]
    assert main([*argv, "--via-latin"]) == 0
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == "d9509220022b4445"
    assert captured.err == "2624 squares\n"


def test_search_order5_pandiagonal_universal_dedup(capsys):
    # The README's order-5 queries, on the Latin route: one kernel call on
    # the canonical first row, relabelled for each of the 3,660 admissible
    # rows.  The streams were frozen before the kernel checked diagonals.
    for expect, count, digest in [
        ("pandiagonal", 3660, "41f0e49c0226d888"),
        ("magic", 7320, "b76ca33847516d5f"),
    ]:
        argv = ["search", "--alphabet", "01258", "--expect", expect]
        assert main([*argv, "--transforms", ALL_TRANSFORMS, "--dedup"]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == digest
        assert captured.err == f"{count} squares\n"


def test_search_order5_universal_without_dedup(capsys):
    # The same queries without --dedup; the streams were frozen in CI
    # before they ran in the test suite.
    for expect, count, digest in [
        ("magic", 57600, "af420b0306c6a254"),
        ("pandiagonal", 28800, "c3b47db45bdbce5a"),
    ]:
        argv = ["search", "--alphabet", "01258", "--expect", expect]
        assert main([*argv, "--transforms", ALL_TRANSFORMS]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == digest
        assert captured.err == f"{count} squares\n"


# The first two squares over 01258 without mirror-h and digit-reverse, on the
# direct route; the first magic one is not a Latin pair.
_ORDER5_HEADS = {
    "semi": "00 01 02 85 88\n08 18 80 55 15\n28 25 52 21 50\n58 81 20 05 12\n"
    "82 51 22 10 11\n\n00 01 02 85 88\n08 18 80 55 15\n28 25 52 21 50\n"
    "82 51 22 10 11\n58 81 20 05 12\n",
    "magic": "00 01 08 82 85\n20 88 15 02 51\n58 11 50 52 05\n80 21 22 28 25\n"
    "18 55 81 12 10\n\n00 01 81 82 12\n85 22 10 08 51\n18 58 55 25 20\n"
    "52 80 28 11 05\n21 15 02 50 88\n",
}


@pytest.mark.parametrize("expect", ["semi", "magic"])
def test_search_order5_without_mirror_h_and_digit_reverse_streams(expect):
    # The whole search is far too long for a test, so read its first
    # squares, as under `| head`, and close the pipe.
    proc = segmagic_process(
        "search", "--alphabet", "01258", "--expect", expect, "--via-latin",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={"PYTHONUNBUFFERED": "1"},
    )
    try:
        head = "".join(proc.stdout.readline() for _ in range(11))
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert head == _ORDER5_HEADS[expect]
    assert proc.returncode == 141
    assert "Traceback" not in err


def test_search_order_flag_is_rejected():
    # The order is always the alphabet size, so there is no --order flag.
    with pytest.raises(SystemExit) as err:
        main(["search", "--alphabet", "0125", "--order", "4"])
    assert err.value.code == 2


def test_search_jobs_flag_is_rejected():
    # Every search runs one serial, streaming path, so there is no --jobs flag.
    with pytest.raises(SystemExit) as err:
        main(["search", "--alphabet", "012", "--jobs", "2"])
    assert err.value.code == 2


# --- golden outputs -------------------------------------------------------------

ALL_TRANSFORMS = "rot180,mirror-h,mirror-v,digit-reverse"

# SHA-256 of stdout: a byte-identity oracle for changes to the search, the
# classifier or the emitters.  The first two searches are the benchmark's
# order-4 command lines; the plain-text palindromes and the bare semi-magic
# 0125 search (6,912 squares) print straight from index grids; the last
# classify is the README's example.
_GOLDEN = {
    "search-1258-magic": (
        ("search", "--alphabet", "1258", "--expect", "magic",
         "--transforms", ALL_TRANSFORMS, "--dedup"),
        "6e6e7d63bbd53c254dbc47b434b7103a1e11d1358dea22c12a27664cb7a2c451",
    ),
    "search-0125-semi-jsonl": (
        ("search", "--alphabet", "0125", "--expect", "semi",
         "--transforms", ALL_TRANSFORMS, "--dedup", "--jsonl"),
        "16e0a8d99a1b755cb4f38c4a00524a06b90c49bff7e2a51b7ec4ec5abb397107",
    ),
    "palindromes-125": (
        ("palindromes", "--alphabet", "125", "--order", "3", "--width", "3"),
        "977d07cf2c89905ed81d3f69394f0559ea4a8d84a8acadf96063487aaa7f2de0",
    ),
    "search-0125-semi": (
        ("search", "--alphabet", "0125", "--expect", "semi"),
        "467f45742cb93fe3112f5a0a6f4b51496c41957fd82bfa486b8851495686f760",
    ),
    **{
        f"classify-{name}": (("classify", str(fixture_path(name)), "--json"), digest)
        for name, digest in {
            "palindromic_3x3_1221":
                "d2ef60bb2b02917c3f5a4aae58550598a3e64914d571851b5a45d40917b60701",
            "palindromic_3x3_888":
                "dc9b1c3da0120d57ba1c1b47e249faaa20b84b135d6219d6da449a5d793794f7",
            "universal_4x4_0125":
                "e38df3da60738b5651e6960ab47973560c5555f31d585df5aa40a5527c587c9c",
            "universal_4x4_1258":
                "c8d6bc38d05da8e014320320aa49bdb70efb4694af57e3fc699599196ec405f1",
            "universal_5x5":
                "1bb5434c62b8309099dd29230e41895456b0e425e9fc53db6a8995ec0f6c57a8",
        }.items()
    },
    **{
        f"classify-{name}-text": (("classify", str(fixture_path(name))), digest)
        for name, digest in {
            "palindromic_3x3_1221":
                "d51f7692258f956237d729e15f34d53f54011672133f73ea12136b6f90a7e339",
            "palindromic_3x3_888":
                "b51b66f989f1d815ee66052775708b94f7ddf98f29b1ddd5fd5ea686afdb9df8",
            "universal_4x4_0125":
                "e6c0c31b54d604bd8847885f288fc9bb029ad2794ae1a11abaf5bb02d3b3f152",
            "universal_4x4_1258":
                "3619b2f3fd9ab64089e63a9d01d4981ee41eb8ebe2a7392c9d300ac2d53e0d38",
            "universal_5x5":
                "73200fe187eb7f34cfde0080dbd0450a47fcd769b5af1f6c0f2a5d34a8ebd018",
        }.items()
    },
    "classify-readme-888": (
        ("classify", str(fixture_path("palindromic_3x3_888")),
         "--transforms", "rot180,digit-reverse"),
        "7003c953b68c6087548a883baf8abab01fd93264b62d366e680e154298730609",
    ),
}


@pytest.mark.parametrize("argv, digest", _GOLDEN.values(), ids=_GOLDEN)
def test_golden_stdout(capsys, argv, digest):
    assert main(list(argv)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# (command line, the API stream it prints)
_PLAIN_STREAMS = {
    "order1": (
        ("search", "--alphabet", "5", "--expect", "semi"),
        lambda: search.enumerate_squares("5", Category.SEMI_MAGIC),
    ),
    "012-magic": (
        ("search", "--alphabet", "012", "--expect", "magic"),
        lambda: search.enumerate_squares("012", Category.MAGIC),
    ),
    "0123-direct": (
        ("search", "--alphabet", "0123", "--expect", "magic",
         "--transforms", "digit-reverse", "--dedup"),
        lambda: search.enumerate_squares(
            "0123", Category.MAGIC, ("digit-reverse",), dedup=True
        ),
    ),
    "1258-latin": (
        ("search", "--alphabet", "1258", "--transforms", ALL_TRANSFORMS, "--dedup"),
        lambda: search.enumerate_squares(
            "1258", Category.MAGIC, ATOMIC_TRANSFORMS, dedup=True
        ),
    ),
    "0134-empty": (
        ("search", "--alphabet", "0134", "--transforms", "rot180"),
        lambda: search.enumerate_squares("0134", Category.MAGIC, ("rot180",)),
    ),
    "palindromes-125": (
        ("palindromes", "--alphabet", "125", "--order", "3", "--width", "3"),
        lambda: search.enumerate_palindromic("125", 3, 3),
    ),
    "palindromes-0125": (
        ("palindromes", "--alphabet", "0125", "--order", "3", "--width", "3"),
        lambda: search.enumerate_palindromic("0125", 3, 3),
    ),
}


@pytest.mark.parametrize("argv, stream", _PLAIN_STREAMS.values(), ids=_PLAIN_STREAMS)
def test_plain_text_prints_the_api_stream(capsys, argv, stream):
    # The command line prints plain text from the index grids; the squares
    # of the API stream, rendered and separated by blank lines, read the same.
    texts = [render(square) for square in stream()]
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.out == ("\n\n".join(texts) + "\n" if texts else "")
    assert captured.err == f"{len(texts)} squares\n"


def test_plain_text_builds_no_square(capsys, monkeypatch):
    # Plain text goes from the grids to stdout without a Square; --jsonl and
    # the API still build one from each grid.
    def refuse(*args):
        raise AssertionError("a Square was built")

    monkeypatch.setattr(squares, "_from_grid", refuse)
    monkeypatch.setattr(search, "_from_grid", refuse)
    for name in ("search-1258-magic", "palindromes-125", "search-0125-semi"):
        argv, digest = _GOLDEN[name]
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name
    with pytest.raises(AssertionError, match="a Square was built"):
        main(list(_GOLDEN["search-0125-semi-jsonl"][0]))
    with pytest.raises(AssertionError, match="a Square was built"):
        main(["palindromes", "--alphabet", "125", "--order", "3", "--width", "3",
              "--jsonl"])
    with pytest.raises(AssertionError, match="a Square was built"):
        next(search.enumerate_squares("1258"))
    with pytest.raises(AssertionError, match="a Square was built"):
        next(search.enumerate_palindromic("125", 3, 3))


_UNKNOWN_TRANSFORM = (
    "unknown transform 'spin'; choose from rot180, mirror-h, mirror-v, digit-reverse"
)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("search", "--alphabet", "0125", "--transforms", "spin"), _UNKNOWN_TRANSFORM),
        (("classify", FIX_PAL_888, "--transforms", "rot180,spin"), _UNKNOWN_TRANSFORM),
        (("search", "--alphabet", "12a"), "alphabet must be decimal digits, got '12a'"),
        (
            ("palindromes", "--alphabet", "1221", "--order", "3", "--width", "3"),
            "alphabet has repeated digits: '1221'",
        ),
    ],
    ids=["search-transform", "classify-transform", "search-alphabet", "palindromes-alphabet"],
)
def test_usage_errors(capsys, argv, message):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_palindromes_cli(capsys):
    assert main(
        ["palindromes", "--alphabet", "125", "--order", "3", "--width", "3"]
    ) == 0
    captured = capsys.readouterr()
    assert "72 squares" in captured.err
    blocks = captured.out.strip().split("\n\n")
    assert len(blocks) == 72
    first_fixture = fixture_path("palindromic_3x3_888").read_text(encoding="utf-8")
    wanted = "\n".join(
        line for line in first_fixture.splitlines() if not line.startswith("#")
    ).strip()
    assert wanted in blocks


# --- dates ----------------------------------------------------------------------


def test_dates_exact(capsys):
    assert main(
        [
            "dates",
            "--alphabet",
            "01258",
            "--from",
            "01.01.2010",
            "--to",
            "31.12.2010",
            "--mode",
            "exact",
        ]
    ) == 0
    assert capsys.readouterr().out.splitlines() == [
        "08.05.2010",
        "18.05.2010",
        "28.05.2010",
        "05.08.2010",
        "15.08.2010",
        "25.08.2010",
    ]


def test_dates_subset_json(capsys):
    assert main(
        [
            "dates",
            "--alphabet",
            "0125",
            "--from",
            "01.05.2010",
            "--to",
            "31.05.2010",
            "--json",
        ]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 11
    assert data[0] == "01.05.2010" and data[-1] == "25.05.2010"


def test_dates_bad_range_is_exit_2(capsys):
    assert main(
        ["dates", "--alphabet", "0125", "--from", "02.05.2010", "--to", "01.05.2010"]
    ) == 2
    assert "usage error" in capsys.readouterr().err


def test_dates_bad_format_is_exit_2(capsys):
    assert main(
        ["dates", "--alphabet", "0125", "--from", "2010-05-01", "--to", "31.05.2010"]
    ) == 2


# --- render ----------------------------------------------------------------------


def test_render_plain_round_trip(capsys):
    assert main(["render", FIX_4x4_0125]) == 0
    out = capsys.readouterr().out
    from segmagic import parse_square

    assert parse_square(out) == parse_square(
        fixture_path("universal_4x4_0125").read_text(encoding="utf-8")
    )


def test_render_bordered_matches_golden(capsys, fixtures_dir):
    assert main(
        ["render", FIX_5x5, "--style", "bordered", "--border-label", "88+88"]
    ) == 0
    golden = (fixtures_dir / "bordered_5x5_88plus88.golden").read_text(
        encoding="utf-8"
    )
    assert capsys.readouterr().out == golden


def test_render_sevenseg(capsys, monkeypatch):
    assert run(["render", "-", "--style", "sevenseg"], "8\n", monkeypatch) == 0
    assert capsys.readouterr().out == " _\n|_|\n|_|\n"


def test_render_json(capsys):
    assert main(["render", FIX_PAL_888, "--style", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][1] == ["111", "222", "555"]


# --- entry point -------------------------------------------------------------------


def test_console_script_runs():
    proc = segmagic_process(
        "verify", FIX_5x5, "--expect", "magic",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert "pandiagonal-magic" in out


def test_closed_stdout_is_exit_141_without_traceback():
    # About 339 KB of squares, more than a pipe holds: the writer must meet
    # the closed pipe, as under `segmagic search ... | head -1`.
    proc = segmagic_process(
        "search", "--alphabet", "0125", "--expect", "semi",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline() == "00 11 22 55\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 141
    assert "Traceback" not in err


# --- imports per command -----------------------------------------------------------

# Runs segmagic.cli.main like ``python -m segmagic`` and lists on stderr every
# module the command loaded; what the interpreter had loaded before is left out.
_LIST_IMPORTS = """
import sys
before = set(sys.modules)
from segmagic.cli import main
try:
    main(sys.argv[1:])
finally:
    print(*sorted(set(sys.modules) - before), file=sys.stderr)
"""

_SEARCH_MODULES = {"segmagic.search", "segmagic.kernels"}


def _modules_loaded_by(*argv, status=0) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", _LIST_IMPORTS, *argv],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == status, proc.stderr
    return set(proc.stderr.split())


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", FIX_4x4_1258),
        ("classify", FIX_5x5, "--json"),
        ("transform", FIX_5x5, "--apply", "rot180"),
        ("render", FIX_4x4_0125, "--style", "bordered", "--border-label", "88"),
    ],
    ids=lambda argv: argv[0],
)
def test_square_commands_load_neither_search_nor_dates(argv):
    loaded = _modules_loaded_by(*argv)
    assert "segmagic.squares" in loaded
    assert not loaded & (_SEARCH_MODULES | {"segmagic.dates", "dataclasses"})


@pytest.mark.parametrize(
    "argv, status",
    [
        (("--help",), 0),
        (("verify", "--help"), 0),
        (("search", "--help"), 0),
        (("search", "--alphabet", "1258", "--expect", "nosuch"), 2),
        (("search", "--alphabet", "1258", "bogus"), 2),
        (("transform", "--help"), 0),
        (("-h", "transform"), 0),
    ],
    ids=[
        "--help", "verify --help", "search --help", "usage-error", "unrecognized",
        "transform --help", "-h transform",
    ],
)
def test_help_and_usage_errors_load_neither_squares_nor_glyphs(argv, status):
    # The parser needs no square code: cli is the only submodule loaded.
    loaded = _modules_loaded_by(*argv, status=status)
    assert "segmagic.cli" in loaded
    square_code = {"segmagic.squares", "segmagic.glyphs", "segmagic.dates"}
    assert not loaded & (_SEARCH_MODULES | square_code)


def test_dates_command_loads_no_search():
    loaded = _modules_loaded_by(
        "dates", "--alphabet", "01258", "--from", "01.01.2010", "--to", "31.12.2010"
    )
    assert {"segmagic.dates", "segmagic.glyphs"} <= loaded
    assert not loaded & (_SEARCH_MODULES | {"segmagic.squares"})


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--alphabet", "125", "--expect", "semi"),
        ("palindromes", "--alphabet", "125", "--order", "3", "--width", "3"),
    ],
    ids=lambda argv: argv[0],
)
def test_search_commands_load_no_dataclasses(argv):
    loaded = _modules_loaded_by(*argv)
    assert _SEARCH_MODULES <= loaded
    assert "dataclasses" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", FIX_4x4_1258),
        ("render", FIX_4x4_0125, "--style", "bordered", "--border-label", "88"),
    ],
    ids=lambda argv: argv[0],
)
def test_text_output_loads_no_json(argv):
    assert "json" not in _modules_loaded_by(*argv)


def test_dates_mode_choices_are_the_modes():
    from segmagic import dates
    from segmagic.cli import build_parser

    base = ["dates", "--alphabet", "1", "--from", "01.01.2010", "--to", "01.01.2010"]
    assert build_parser().parse_args(base).mode == dates.SUBSET_OF
    for mode in dates.MODES:
        assert build_parser().parse_args(base + ["--mode", mode]).mode == mode


def test_transform_apply_choices_are_the_atomic_transforms():
    from segmagic import squares
    from segmagic.cli import build_parser

    # The help lists the choices in their order.
    out, _, code = _parser_exit(build_parser().parse_args, ["transform", "--help"])
    assert code == 0
    assert "--apply {%s}" % ",".join(squares.ATOMIC_TRANSFORMS) in out
    for name in squares.ATOMIC_TRANSFORMS:
        args = build_parser().parse_args(["transform", "--apply", name])
        assert args.apply == [name]


def test_every_public_name_resolves_and_is_listed():
    listed = dir(segmagic)
    for name in segmagic.__all__:
        assert getattr(segmagic, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        segmagic.no_such_name


def test_parse_alphabet_has_one_home_in_glyphs():
    from segmagic import glyphs, squares

    assert segmagic.parse_alphabet is glyphs.parse_alphabet is squares.parse_alphabet
    # The public name resolves through glyphs alone.
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, segmagic; segmagic.parse_alphabet; print(*sorted(sys.modules))",
        ],
        env=child_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "segmagic.glyphs" in loaded
    assert "segmagic.squares" not in loaded
