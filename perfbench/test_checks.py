"""Every output check of the benchmark accepts good output and rejects bad.

    python3 -m pytest perfbench -q

Good outputs come from the oracles in checks.py or from segmagic itself,
run in-process on cheap commands; bad ones change one thing in them.  The
spans and the reference-speed scaling are tested here too.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
from datetime import date
from pathlib import Path
from statistics import fmean
from time import perf_counter

import pytest

import checks
import refspeed
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from segmagic import cli  # noqa: E402


def segmagic(*argv: str) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return out.getvalue(), err.getvalue(), rc


def render_plain(grids: list[checks.Grid]) -> str:
    return "\n\n".join("\n".join(" ".join(row) for row in grid) for grid in grids) + "\n"


def swap_two_cells(grid: checks.Grid) -> checks.Grid:
    rows = [list(row) for row in grid]
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]
    return tuple(tuple(row) for row in rows)


def orbit_minima(alphabet: str, level: str) -> list[checks.Grid]:
    members = {g for g in checks.combination_squares(alphabet) if checks.at_least(checks.category(g), level)}
    return sorted({min(checks.orbit(g), key=checks.concat) for g in members}, key=checks.concat)


def paper_command(*argv: str) -> workloads.Command:
    return next(c for c in workloads.paper_commands() if c.argv == argv)


# ------------------------------------------------------------- oracles


def test_latin_pair_counts():
    assert len(checks.latin_squares(4)) == 576
    assert len(checks.orthogonal_pairs(4)) == 6912
    assert len(checks.orthogonal_pairs(3)) == 72


def test_oracle_transforms_match_the_paper_fixture():
    grid = workloads.fixture("universal_5x5")
    assert checks.category(grid) == "pandiagonal-magic"
    for name in checks.TRANSFORMS:
        assert checks.verdict(grid, name) == {"verdict": "magic-same-constant", "constant": 176}
    assert len(checks.orbit(grid)) == 8


# ------------------------------------------------------ search outputs


@pytest.fixture(scope="module")
def direct_output():
    grids = orbit_minima("1258", "magic")
    return render_plain(grids), f"{len(grids)} squares\n"


def test_direct_check_accepts_the_orbit_minima(direct_output):
    stdout, stderr = direct_output
    assert stderr == "144 squares\n"
    assert workloads.SEARCHES["order4-direct"].check(stdout, stderr, 0) == []


def test_direct_check_rejects_two_swapped_cells(direct_output):
    stdout, stderr = direct_output
    grids = checks.parse_grids(stdout)
    grids[5] = swap_two_cells(grids[5])
    assert workloads.SEARCHES["order4-direct"].check(render_plain(grids), stderr, 0)


def test_direct_check_rejects_a_missing_square(direct_output):
    stdout, _ = direct_output
    grids = checks.parse_grids(stdout)[1:]
    problems = workloads.SEARCHES["order4-direct"].check(
        render_plain(grids), f"{len(grids)} squares\n", 0
    )
    assert any("missing" in p for p in problems)


@pytest.fixture(scope="module")
def latin_records():
    records = []
    for grid in orbit_minima("0125", "semi-magic"):
        record = checks.expected_report(grid)
        record["rows"] = [list(row) for row in grid]
        records.append(record)
    return records


def jsonl(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def test_latin_check_accepts_correct_records(latin_records):
    assert len(latin_records) == 864
    check = workloads.SEARCHES["order4-latin-jsonl"].check
    assert check(jsonl(latin_records), "864 squares\n", 0) == []


def test_latin_check_rejects_a_wrong_verdict(latin_records):
    records = json.loads(json.dumps(latin_records))
    records[3]["universality"]["mirror-v"]["verdict"] = "magic-same-constant"
    check = workloads.SEARCHES["order4-latin-jsonl"].check
    assert check(jsonl(records), "864 squares\n", 0)


def test_search_check_rejects_a_failed_exit(direct_output):
    stdout, stderr = direct_output
    assert workloads.SEARCHES["order4-direct"].check(stdout, stderr, 1)


# ------------------------------------------------------- paper commands


@pytest.mark.parametrize("name", [f[0] for f in workloads.PAPER_FIXTURES])
def test_fixture_commands_pass(name):
    commands = [c for c in workloads.paper_commands() if f"fixtures/{name}.sq" in c.argv]
    assert len(commands) == 4
    for command in commands:
        argv = [str(ROOT / a) if a.startswith("fixtures/") else a for a in command.argv]
        assert command.check(*segmagic(*argv)) == [], command.argv


@pytest.mark.parametrize("name", [f[0] for f in workloads.PAPER_FIXTURES])
def test_fixture_commands_fail_on_two_swapped_cells(name, tmp_path):
    grid = swap_two_cells(workloads.fixture(name))
    swapped = tmp_path / "swapped.sq"
    swapped.write_text("\n".join(" ".join(row) for row in grid) + "\n")
    for command in workloads.paper_commands():
        if f"fixtures/{name}.sq" not in command.argv:
            continue
        argv = [str(swapped) if a.startswith("fixtures/") else a for a in command.argv]
        assert command.check(*segmagic(*argv)), command.argv


DATE_COMMANDS = [
    ("dates", "--alphabet", "01258", "--from", "01.01.2010", "--to", "31.12.2010", "--mode", "exact"),
    ("dates", "--alphabet", "01258", "--from", "01.01.2000", "--to", "31.12.2099", "--mode", "subset"),
]


@pytest.mark.parametrize("argv", DATE_COMMANDS)
def test_date_lists_pass_and_fail_without_one_day(argv):
    command = paper_command(*argv)
    stdout, stderr, rc = segmagic(*argv)
    assert command.check(stdout, stderr, rc) == []
    days = stdout.splitlines()
    short = "".join(d + "\n" for d in days[:2] + days[3:])
    assert command.check(short, stderr, rc)


def test_exact_2010_is_the_papers_six_days():
    assert checks.scan_dates(
        date(2010, 1, 1), date(2010, 12, 31), "01258", "exact"
    ) == checks.PAPER_DAYS_2010


PALINDROME_COMMANDS = [
    workloads.PALINDROMES_125,
    ("palindromes", "--alphabet", "0125", "--order", "3", "--width", "3", "--jsonl"),
]


@pytest.mark.parametrize("argv", PALINDROME_COMMANDS)
def test_palindromes_pass_and_fail_when_one_square_is_missing(argv):
    command = paper_command(*argv)
    stdout, stderr, rc = segmagic(*argv)
    assert command.check(stdout, stderr, rc) == []
    if "--jsonl" in argv:
        lines = stdout.splitlines(keepends=True)
        shorter = "".join(lines[1:])
    else:
        shorter = render_plain(checks.parse_grids(stdout)[1:])
    count = int(stderr.split()[0]) - 1
    assert command.check(shorter, f"{count} squares\n", rc)


def test_palindromes_fail_on_two_swapped_cells():
    command = paper_command(*workloads.PALINDROMES_125)
    stdout, stderr, rc = segmagic(*workloads.PALINDROMES_125)
    grids = checks.parse_grids(stdout)
    grids[0] = swap_two_cells(grids[0])
    assert command.check(render_plain(grids), stderr, rc)


def test_palindrome_jsonl_fails_on_a_wrong_category():
    argv = PALINDROME_COMMANDS[1]
    command = paper_command(*argv)
    stdout, stderr, rc = segmagic(*argv)
    records = [json.loads(line) for line in stdout.splitlines()]
    records[0]["category"] = "magic"
    assert command.check(jsonl(records), stderr, rc)


# ------------------------------------------------------------- tracing


def test_self_time_excludes_nested_spans():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    tracer.call("outer", lambda: [inner() for _ in range(3)])
    snap = tracer.snapshot()["spans"]
    assert snap["inner"]["calls"] == 3
    assert snap["outer"]["self_s"] == pytest.approx(snap["outer"]["s"] - snap["inner"]["s"])


def test_generator_spans_count_items_and_calls():
    tracer = spans.Tracer()
    gen = tracer.wrap_generator("g", lambda n: iter(range(n)))
    assert list(gen(4)) == [0, 1, 2, 3]
    snap = tracer.snapshot()
    assert snap["spans"]["g"]["calls"] == 1
    assert snap["counts"]["g.yielded"] == 4


def test_sampler_times_slices_while_work_runs_and_takes_them_out():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = refspeed.Sampler()
    with sampler:
        start = perf_counter()
        while perf_counter() - start < 0.5:
            pass
        end = perf_counter()
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    inside = [s for t, s in sampler.samples if start <= t < end]
    assert len(inside) >= 3
    assert sampler.reference(start, end) == pytest.approx(fmean([sampler.pre, *inside]))
    net = end - start - sum(inside)
    assert sampler.scaled(start, end) == pytest.approx(
        net * refspeed.SLICE_S / sampler.reference(start, end))


def test_process_times_scale_by_the_median_reference():
    scaled = refspeed.scale_spawns([1.0, 2.0], [0.1, 5.0, 2 * refspeed.SPAWN_S])
    assert scaled == pytest.approx([0.5, 1.0])


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "first_square_s", "setup_s", "peak_rss_mb"]
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(workloads.SEARCHES) | {"paper-cli"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
