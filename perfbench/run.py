"""Layered benchmark for segmagic.

    python3 perfbench/run.py --workload order4-direct --seed 1 --seconds 5 --trace 0

Workloads: ``order4-direct``, ``order4-latin-jsonl`` (one search command run
in-process by perfbench/worker.py) and ``paper-cli`` (the paper's commands,
each a ``python -m segmagic`` process).  One client runs the operations one
after another (closed loop), in whole passes, until ``--seconds`` have
passed; every output is checked against the oracles in perfbench/checks.py.
The inputs are fixed, so ``--seed`` is recorded and changes nothing.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one pass with
spans around each layer's public functions and prints the per-layer metrics.
End-to-end times are scaled to a reference speed of the machine (see
refspeed.py); the raw wall times are printed and kept beside them.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Results and span totals are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import refspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("order4-direct", "order4-latin-jsonl", "paper-cli")
SETUP_RUNS = 8  # timed `python -m segmagic --help` processes, after one warm-up
PROBE_EVERY = 4  # paper-cli: a first-square probe after every 4th command
CHILD_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 170
MAX_PROBLEMS_SHOWN = 20


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(command: list[str], env, timeout: float = CHILD_TIMEOUT_S):
    try:
        return subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"timed out after {timeout} s: {command}") from err


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(kernel: str, args) -> dict:
    return {
        "kernel": kernel,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def checked(check, *args) -> list[str]:
    """Problems a check finds; a check that raises on malformed output is one."""
    try:
        return check(*args)
    except Exception as err:  # a check crashing on malformed output fails the operation
        return [f"the check raised {err!r}"]


def reference_spawn(env) -> float:
    """Wall time of a bare `python -c pass` process, timed as the commands are."""
    start = perf_counter()
    proc = run_child([sys.executable, "-c", "pass"], env)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"the reference process failed: {proc.stderr.strip()}")
    return elapsed


def timed_child(command: list[str], env, references: list[float] | None):
    """A child process and its wall time; with `references`, a reference
    process is timed right before it and its time appended there."""
    if references is not None:
        references.append(reference_spawn(env))
    start = perf_counter()
    proc = run_child(command, env)
    return proc, perf_counter() - start


def measure_setup(env, runs: int) -> tuple[list[float], list[float]]:
    """Raw and scaled wall times of `python -m segmagic --help` processes."""
    raws, references = [], []
    for _ in range(runs):
        proc, raw = timed_child([sys.executable, "-m", "segmagic", "--help"], env, references)
        raws.append(raw)
        if proc.returncode != 0 or "usage: segmagic" not in proc.stdout:
            raise BenchError(f"`segmagic --help` failed: {proc.stderr.strip()}")
    return raws, refspeed.scale_spawns(raws, references)


def search_workload(name: str, seconds: float, trace: bool, env) -> dict:
    """Passes of one search command line, run in-process by worker.py."""
    proc = run_child(
        [sys.executable, str(HERE / "worker.py"), "--workload", name,
         "--seconds", str(seconds), "--trace", str(int(trace))],
        env, WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    search = workloads.SEARCHES[name]
    passes = report["passes"]
    problems, failed, verdicts = [], 0, {}
    for p in passes:
        key = (p["rc"], p["stdout"], p["stderr"])
        if key not in verdicts:
            verdicts[key] = checked(search.check, p["stdout"], p["stderr"], p["rc"])
            if p["first_square_s"] is None:
                verdicts[key].append("no square written")
        if verdicts[key]:
            failed += 1
            problems += verdicts[key]
    for probe in report["probe_stdout"]:
        if not probe or not passes[0]["stdout"].startswith(probe):
            problems.append(f"a first-square probe wrote {probe[:80]!r}, not the pass's first square")
    first = [p["first_square_s"] for p in passes if p["first_square_s"] is not None]
    raw_first = [p["raw_first_square_s"] for p in passes if p["raw_first_square_s"] is not None]
    return {
        "kernel": report["kernel"],
        "attempted": len(passes),
        "failed": failed,
        "problems": problems,
        "wall_s": [p["wall_s"] for p in passes],
        "first_square_s": first + report["probe_first_square_s"],
        "raw_wall_s": [p["raw_wall_s"] for p in passes],
        "reference_s": [p["reference_s"] for p in passes],
        "raw_first_square_s": raw_first + report["probe_raw_first_square_s"],
        "peak_rss_mb": report["maxrss_kb"] / 1024,
        "stdout": passes[0]["stdout"],
        "spans": report["spans"],
    }


def probe_first_square(env) -> tuple[float, str]:
    """Time from spawning `palindromes --alphabet 125` (unbuffered) to its first line."""
    command = [sys.executable, "-u", "-m", "segmagic", *workloads.PALINDROMES_125]
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    return elapsed, line


def paper_cli_workload(seconds: float, trace: bool, env) -> dict:
    """Passes of the paper's commands, each its own process."""
    commands = workloads.paper_commands()
    launcher = [sys.executable, str(HERE / "traced_cli.py")] if trace else [
        sys.executable, "-m", "segmagic"]
    walls, raw_walls, first, raw_first, problems, snapshots, outputs = [], [], [], [], [], [], {}
    medians = []  # of each pass's reference processes
    attempted = failed = 0
    start = perf_counter()
    while not walls or (not trace and perf_counter() - start < seconds):
        busy, references, probes = 0.0, None if trace else [], []
        for i, command in enumerate(commands, 1):
            proc, elapsed = timed_child(launcher + list(command.argv), env, references)
            busy += elapsed
            stderr = proc.stderr
            if trace:
                stderr, _, tail = stderr.rpartition(spans.PREFIX)
                snapshots.append(json.loads(tail))
            found = checked(command.check, proc.stdout, stderr, proc.returncode)
            attempted += 1
            if found:
                failed += 1
                problems += [f"segmagic {' '.join(command.argv)}: {p}" for p in found]
            outputs.setdefault(command.argv, proc.stdout)
            if not trace and i % PROBE_EVERY == 0:
                probes.append(probe_first_square(env))
        raw_walls.append(busy)
        if trace:
            walls.append(busy)
        else:
            expected = outputs[workloads.PALINDROMES_125].split("\n", 1)[0] + "\n"
            for _, line in probes:
                if line != expected:
                    problems.append(f"first-square probe read {line!r}, expected {expected!r}")
            times = [elapsed for elapsed, _ in probes]
            medians.append(median(references))
            walls += refspeed.scale_spawns([busy], references)
            raw_first += times
            first += refspeed.scale_spawns(times, references)
    return {
        "kernel": None,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "wall_s": walls,
        "first_square_s": first,
        "raw_wall_s": raw_walls,
        "raw_first_square_s": raw_first,
        "reference_s": medians,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "stdout": "".join(f"$ segmagic {' '.join(a)}\n{o}" for a, o in outputs.items()),
        "spans": spans.merge(snapshots) if trace else None,
    }


def load(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="recorded; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "segmagic" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no segmagic source tree (src/segmagic, fixtures) in {ROOT}",
              file=sys.stderr)
        return 2
    env = child_env()
    try:
        # One warm-up writes the bytecode caches; half the timed set-up runs
        # come before the workload and half after, to spread them in time.
        raw_setup, setup = ([], []) if args.trace else (
            times[1:] for times in measure_setup(env, SETUP_RUNS // 2 + 1))
        if args.workload == "paper-cli":
            result = paper_cli_workload(args.seconds, bool(args.trace), env)
        else:
            result = search_workload(args.workload, args.seconds, bool(args.trace), env)
        if not args.trace:
            raws, times = measure_setup(env, SETUP_RUNS - len(setup))
            raw_setup += raws
            setup += times
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    if result["kernel"] is None:
        probe = run_child([sys.executable, "-c", "from segmagic import kernels; print(kernels.KERNEL)"], env)
        result["kernel"] = probe.stdout.strip() or "unknown"
    env_record = environment(result["kernel"], args)
    print("env: " + ", ".join(f"{k}={v}" for k, v in env_record.items()))
    for problem in result["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(result["problems"]) > MAX_PROBLEMS_SHOWN:
        print(f"... and {len(result['problems']) - MAX_PROBLEMS_SHOWN} more problems", file=sys.stderr)

    digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
    last_path = OUT / f"last-{args.workload}.json"
    last = load(last_path)
    if last is None:
        print(f"stdout sha256 {digest} (no previous run)")
    else:
        same = "matches" if last["stdout_sha256"] == digest else "differs from"
        print(f"stdout sha256 {digest} ({same} the previous run)")

    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": spans.PER_LAYER[name]}
            for name, value in spans.layer_metrics(result["spans"]).items()
        }
        traced = result["raw_wall_s"][0]
        untraced = median(last["samples"]["raw_wall_s"]) if last else None
        if untraced is None:
            print(f"traced pass {traced:.4f} s; no untraced run on record to compare")
        else:
            print(f"traced pass {traced:.4f} s, untraced median {untraced:.4f} s: "
                  f"tracing overhead {traced - untraced:+.4f} s "
                  f"({(traced - untraced) / untraced:+.1%})")
        (OUT / f"trace-{args.workload}.json").write_text(json.dumps({
            "env": env_record, "traced_wall_s": traced, "untraced_wall_s": untraced,
            "metrics": metrics, "spans": result["spans"],
        }, indent=1))
    else:
        values = {
            "wall_s": median(result["wall_s"]),
            # empty only when no square was written, which is a failed check
            "first_square_s": median(result["first_square_s"] or [0.0]),
            "setup_s": median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {"wall_s": "s", "first_square_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        samples = {k: result[k] for k in ("wall_s", "first_square_s", "raw_wall_s",
                                          "raw_first_square_s", "reference_s")}
        samples |= {"setup_s": setup, "raw_setup_s": raw_setup}
        print(f"passes: {len(result['wall_s'])}")
        for name, values in samples.items():
            print(f"{name} samples {[round(v, 6) for v in values]}")
        last_path.write_text(json.dumps({
            "env": env_record, "stdout_sha256": digest, "metrics": metrics,
            "samples": samples,
        }, indent=1))

    failed = result["failed"]
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
