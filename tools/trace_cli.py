#!/usr/bin/env python3
"""Run one clusterchar command with layer tracing and report where the time went.

    python3 tools/trace_cli.py verify cone-table-a3 quivers/a3.quiver

The arguments are those of `python -m clusterchar.cli`. The command's stdout is
untouched; after it ends, calls, inclusive time and self time for each traced
layer (those of `perfbench/tracer.py`) and the work counters go to stderr.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from clusterchar.cli import main as cli_main

    code = cli_main(argv)
    sys.stdout.flush()
    print(f"{'layer':<45} {'calls':>8} {'time_s':>9} {'self_s':>9}", file=sys.stderr)
    for name in sorted(tracer.calls, key=lambda n: -tracer.time_ns[n]):
        print(f"{name:<45} {tracer.calls[name]:>8} {tracer.time_ns[name] / 1e9:>9.4f} {tracer.self_ns[name] / 1e9:>9.4f}",
              file=sys.stderr)
    for name, count in sorted(tracer.counts.items()):
        print(f"{name:<45} {count:>8}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
