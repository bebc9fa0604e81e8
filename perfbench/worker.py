"""Run one search workload in-process through ``segmagic.cli.main``.

    python3 perfbench/worker.py --workload order4-direct --seconds 5 --trace 0

Runs whole passes of the workload's command line until ``--seconds`` have
passed (at least one), with stdout and stderr captured, and prints one JSON
object: each pass's exit status, wall time, time to the first square written
and output, plus this process's peak resident memory.  Both times are given
raw and scaled to the reference speed (refspeed.py), from reference slices
sampled while the pass runs.  With ``--trace 1`` it runs a single pass with
the layer spans installed, and no sampler, and adds the span totals.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import refspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Extra first-square probes after each pass when the first square comes this
# early; a probe stops the command right after its first write.
PROBE_LIMIT_S = 0.5
PROBES_PER_PASS = 20


class FirstSquareWritten(Exception):
    """Raised by a probing capture to stop the command after its first write."""


class Capture(io.StringIO):
    """stdout replacement that notes when the first text is written."""

    def __init__(self, probe: bool = False):
        super().__init__()
        self.first: float | None = None
        self.probe = probe

    def write(self, text: str) -> int:
        written = super().write(text)
        if text and self.first is None:
            self.first = perf_counter()
            if self.probe:
                raise FirstSquareWritten
        return written


def run_pass(main, argv, sampler: refspeed.Sampler | None, probe: bool = False) -> dict:
    out, err = Capture(probe), io.StringIO()
    with sampler or nullcontext():
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(list(argv))
        except FirstSquareWritten:
            rc = None
        except Exception:  # a crash of the command is a failed operation
            rc = None
            err.write(traceback.format_exc())
        end = perf_counter()
    first = out.first
    return {
        "rc": rc,
        "raw_wall_s": end - start,
        "raw_first_square_s": None if first is None else first - start,
        "wall_s": sampler.scaled(start, end) if sampler else end - start,
        "reference_s": sampler.reference(start, end) if sampler else None,
        "first_square_s": None if first is None else (
            sampler.scaled(start, first) if sampler else first - start),
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SEARCHES))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import segmagic
    from segmagic import cli, kernels

    if not Path(segmagic.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"segmagic imported from {segmagic.__file__}, not this checkout", file=sys.stderr)
        return 2
    argv = workloads.SEARCHES[args.workload].argv
    tracer = None
    run = cli.main
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        run = partial(tracer.call, "cli.main", cli.main)

    sampler = None if args.trace else refspeed.Sampler()
    passes, probes = [], []
    start = perf_counter()
    while not passes or (not args.trace and perf_counter() - start < args.seconds):
        passes.append(run_pass(run, argv, sampler))
        first = passes[0]["raw_first_square_s"]
        if not args.trace and first is not None and first < PROBE_LIMIT_S:
            probes += [run_pass(run, argv, sampler, probe=True) for _ in range(PROBES_PER_PASS)]

    print(json.dumps({
        "kernel": kernels.KERNEL,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
        "probe_first_square_s": [p["first_square_s"] for p in probes],
        "probe_raw_first_square_s": [p["raw_first_square_s"] for p in probes],
        "probe_stdout": [p["stdout"] for p in probes],
        "spans": tracer.snapshot() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
