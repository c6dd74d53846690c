#!/usr/bin/env python3
"""The clusterchar benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each round of a workload runs in a fresh,
single-threaded Python process (`worker.py`), so the library's module-level
caches start cold, as they do for a command-line user. Rounds repeat while
the next one is expected to end within `--seconds`, and every metric is the
median over the run's rounds.
Set-up is also sampled on its own, several times per run, so that `setup_s` is
a median even when rounds are few.

Times are given at a reference host speed. The speed of a shared host drifts,
by up to 1.8x within tens of seconds, so each worker times a fixed kernel that
does not use clusterchar between its ops, and its times are multiplied by
CALIBRATION_REF_NS / (the kernel's mean time in that worker). The unscaled
medians and the host's speed relative to the reference are printed beside the
metrics.

With `--trace 0` every round is timed with tracing off, and the metrics are the
end-to-end ones of BENCHMARK.json. With `--trace 1` timed and traced rounds
alternate; the metrics are the per-layer ones, plus the tracing overhead
(traced wall time / untraced wall time - 1). A traced round also writes its
spans to `.perfbench_run/spans-<workload>.jsonl`, one JSON list per line:
layer name, start and end (ns), index of the parent span (-1 for none), op index.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. An op fails when it raises or when its
output fails the workload's correctness check. Lines before it give the
environment, the failure histogram, the names of failed ops, and each metric
with its unit. The same record, with every round, goes to `.perfbench_run/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (imports no clusterchar code at module level)

ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"
SETUP_SAMPLES = 5
CALIBRATION_REF_NS = 20_000_000  # the kernel's time on the reference host
HARD_LIMIT_S = 170  # a run must end within 180 s; no round starts after this
FAILURE_NAMES = ("CapExceeded", "GenericityUncertified", "NotPolynomialCount", "DecompositionUncertified")


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_commit() -> str:
    """HEAD of the checkout when it is a git repository, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over the program's source files: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def spawn(args, mode: str, started: float) -> dict:
    remaining = HARD_LIMIT_S + 5 - (time.monotonic() - started)
    cmd = [
        sys.executable, "-I", str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scratch", str(OUT), "--mode", mode,
    ]
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd + ["--spawn-ns", str(spawn_ns)], cwd=ROOT, capture_output=True,
                              text=True, timeout=max(remaining, 1))
    except subprocess.TimeoutExpired:
        fail(f"a {mode} round of {args.workload} did not end within the run's time limit", 3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"a {mode} round of {args.workload} exited with code {proc.returncode}", 3)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)) - 1, 0)]


def speed(r: dict) -> float:
    """The host's speed during a worker, relative to the reference host."""
    return CALIBRATION_REF_NS * len(r["calib"]) / sum(r["calib"])


def scaled_ops(r: dict, key: str) -> list[float]:
    """Each op's time in seconds at the reference host speed."""
    factor = speed(r) / 1e9
    return [ns * factor for ns in r[key]]


def setup_s(r: dict) -> float:
    return r["setup_ns"] * speed(r) / 1e9


def wall_s(r: dict) -> float:
    """Time to finish all ops: each starts when the previous one returns."""
    return sum(scaled_ops(r, "op_ns"))


def end_to_end(timed: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians over rounds; op percentiles over every op of every timed round."""
    med = statistics.median
    ops = [t for r in timed for t in scaled_ops(r, "op_ns")]
    return {
        "wall_s": med(wall_s(r) for r in timed),
        "cpu_s": med(sum(scaled_ops(r, "op_cpu_ns")) for r in timed),
        "op_p50_s": percentile(ops, 0.50),
        "op_p80_s": percentile(ops, 0.80),
        "setup_s": med(setup_s(r) for r in setups),
        "peak_rss_mb": med(r["maxrss_kb"] for r in timed) / 1024,
    }


def per_layer(timed: list[dict], traced: list[dict], histogram: Counter) -> dict[str, float]:
    med = statistics.median

    def count(kind: str, name: str) -> float:
        return med(r["layers"][kind].get(name, 0) for r in traced)

    def seconds(kind: str, name: str) -> float:
        return med(r["layers"][kind].get(name, 0) * speed(r) / 1e9 for r in traced)

    out: dict[str, float] = {}
    for name in tracer.LAYERS:
        out[f"{name}.calls"] = count("calls", name)
        out[f"{name}.time_s"] = seconds("time_ns", name)
        out[f"{name}.self_s"] = seconds("self_ns", name)
    for key in tracer.COUNTERS:
        out[key] = count("counts", key)
    gets = out["generic.cache.gets"] = out["generic.cache.get.calls"]
    out["generic.cache.hit_ratio"] = out["generic.cache.hits"] / gets if gets else 0.0
    puts = out["generic.cache.put.calls"]
    out["generic.cones_per_value"] = out["generic.cones_in_values"] / puts if puts else 0.0
    out["trace.overhead"] = med(wall_s(r) for r in traced) / med(wall_s(r) for r in timed) - 1
    out["trace.spans"] = med(r["layers"]["spans"] for r in traced)
    for name in FAILURE_NAMES:
        out[f"failures.{name}"] = histogram[name]
    out["failures.other"] = sum(n for name, n in histogram.items() if name not in FAILURE_NAMES + ("wrong_value",))
    out["failures.wrong_value"] = histogram["wrong_value"]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # end by an exception, so that subprocess.run kills and reaps a running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "clusterchar" / "__init__.py").is_file():
        fail("no clusterchar sources under src/ in this checkout")
    if not spec_path.is_file():
        fail("no BENCHMARK.json at the root of this checkout")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    started = time.monotonic()
    setups = [spawn(args, "setup", started) for _ in range(SETUP_SAMPLES)]
    cycle = ("timed", "traced") if args.trace else ("timed",)
    rounds: list[tuple[str, dict]] = []
    rounds_started = time.monotonic()
    while True:
        mode = cycle[len(rounds) % len(cycle)]
        rounds.append((mode, spawn(args, mode, started)))
        setups.append(rounds[-1][1])
        now = time.monotonic()
        per_round = (now - rounds_started) / len(rounds)
        if len(rounds) >= len(cycle) and (now + per_round - started > args.seconds
                                          or now - started >= HARD_LIMIT_S):
            break
    env["loadavg_after"] = os.getloadavg()
    env["rounds"] = len(rounds)

    histogram: Counter = Counter()
    failed_ops: dict[str, str] = {}
    attempted = failed = 0
    for _, r in rounds:
        attempted += r["ops"]
        failed += len(r["failures"]) + len(r["wrong"])
        for key, reason in r["failures"].items():
            histogram[reason.split(":", 1)[0]] += 1
            failed_ops[key] = reason
        for key, reason in r["wrong"].items():
            histogram["wrong_value"] += 1
            failed_ops[key] = f"wrong value: {reason}"

    timed = [r for mode, r in rounds if mode == "timed"]
    traced = [r for mode, r in rounds if mode == "traced"]
    if args.trace:
        values, wanted = per_layer(timed, traced, histogram), spec["per_layer"]
    else:
        values, wanted = end_to_end(timed, setups), spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not produced: {', '.join(missing)}", 3)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print("env " + json.dumps(env, sort_keys=True))
    kernel = [ns for _, r in rounds for ns in r["calib"]]
    print(f"rounds: {len(timed)} timed, {len(traced)} traced, {rounds[0][1]['ops']} ops each "
          f"(op percentiles over {len(timed) * rounds[0][1]['ops']} latencies); "
          f"unscaled median wall {statistics.median(sum(r['op_ns']) for r in timed) / 1e9:.3f} s, "
          f"cpu {statistics.median(sum(r['op_cpu_ns']) for r in timed) / 1e9:.3f} s; "
          f"host speed {CALIBRATION_REF_NS / statistics.median(kernel):.3f} x reference")
    print("failures: " + (", ".join(f"{k}={v}" for k, v in sorted(histogram.items())) or "none"))
    for key, reason in sorted(failed_ops.items()):
        print(f"failed op {key}: {reason}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"env": env, "result": result, "failed_ops": failed_ops, "setups": setups[:SETUP_SAMPLES],
              "rounds": [{"mode": mode, **r} for mode, r in rounds]}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
