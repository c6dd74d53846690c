"""One round of a benchmark workload, in a fresh single-threaded process.

Run by `run.py`; not meant to be run by hand. The round imports clusterchar
from the checkout's `src/`, builds the workload's ops and runs them one after
the other, each started when the previous one returns (a closed loop with one
client). It then checks the outputs and prints one JSON object on stdout.

Set-up time runs from `--spawn-ns` (the parent's CLOCK_MONOTONIC reading just
before it started this process) to the moment the ops are ready, so it covers
interpreter start-up, the import, quiver validation and op generation.

The round also times a fixed calibration kernel that does not use clusterchar:
once when the ops are ready, then between ops whenever half a second of ops
has passed, and once at the end. `run.py` scales the round's times by the
kernel's mean speed, which removes the drift in the host's speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]


CALIBRATE_EVERY_NS = 500_000_000


def calibrate() -> int:
    """Time a fixed pure-Python kernel that does not use clusterchar.

    It has the two kinds of work the library spends its time on: Gauss-Jordan
    elimination over Fractions, and reducing vectors mod p against echelon rows
    while enumerating subspaces. The two respond differently to a busy host.
    """
    from fractions import Fraction
    from itertools import product
    from random import Random

    rng = Random(5)
    n = 12
    rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 4)] for _ in range(n)]
    p = 5
    basis = [[1, 0, 2, 3, 1], [0, 1, 4, 1, 2]]
    t0 = time.perf_counter_ns()
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    inside = 0
    for vec in product(range(p), repeat=5):
        w = list(vec)
        for row, c in zip(basis, (0, 1)):
            f = w[c] % p
            if f:
                for j in range(c, 5):
                    w[j] = (w[j] - f * row[j]) % p
        inside += all(x % p == 0 for x in w)
    return time.perf_counter_ns() - t0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-ns", type=int, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    args = ap.parse_args()

    import clusterchar
    from clusterchar.errors import ClusterCharError
    from workloads import WORKLOADS

    if Path(clusterchar.__file__).resolve().parent != ROOT / "src" / "clusterchar":
        raise SystemExit(f"imported clusterchar from {clusterchar.__file__}, not from the checkout")
    workload = WORKLOADS[args.workload](ROOT, args.seed, Path(args.scratch))
    ready_ns = time.monotonic_ns()
    result = {"setup_ns": ready_ns - args.spawn_ns, "ops": len(workload.ops)}
    calib = [calibrate()]
    if args.mode == "setup":
        print(json.dumps(dict(result, calib=calib)))
        return

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    outputs: dict[str, object] = {}
    failures: dict[str, str] = {}
    op_ns: list[int] = []
    op_cpu_ns: list[int] = []
    since_calib = 0
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = index
            span = tracer.enter("bench.op")
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        try:
            outputs[op.key] = op.fn()
        except ClusterCharError as exc:
            failures[op.key] = f"{exc.name}: {exc}"
        except Exception as exc:  # a bug in the program: record it and keep measuring
            failures[op.key] = f"{type(exc).__name__}: {exc}"
        op_ns.append(time.perf_counter_ns() - t0)
        op_cpu_ns.append(time.process_time_ns() - cpu0)
        if tracer is not None:
            tracer.leave(span)
        since_calib += op_ns[-1]
        if since_calib >= CALIBRATE_EVERY_NS or index + 1 == len(workload.ops):
            calib.append(calibrate())
            since_calib = 0
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if tracer is not None:
        # taken before the checks, whose calls into clusterchar are not the workload's
        layer_totals = {
            "calls": dict(tracer.calls),
            "time_ns": dict(tracer.time_ns),
            "self_ns": dict(tracer.self_ns),
            "counts": dict(tracer.counts),
            "spans": len(tracer.spans),
        }
        tracer.write_spans(Path(args.scratch) / f"spans-{args.workload}.jsonl")  # the latest traced round
        result["layers"] = layer_totals

    wrong = workload.check(outputs)
    workload.cleanup()
    result.update(
        calib=calib,
        op_ns=op_ns,
        op_cpu_ns=op_cpu_ns,
        maxrss_kb=maxrss_kb,
        failures=failures,
        wrong=dict(wrong),
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
