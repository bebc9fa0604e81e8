"""``python -m segmagic`` with the benchmark's layer spans installed.

    python3 perfbench/traced_cli.py dates --alphabet 01258 --from ... --to ...

Runs the command exactly as ``python -m segmagic`` would, then writes the
span totals to stderr as one JSON line that starts with ``spans.PREFIX``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main() -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    from segmagic import cli

    try:
        return tracer.call("cli.main", cli.main, sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(spans.PREFIX + json.dumps(tracer.snapshot()), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
