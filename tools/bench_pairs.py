#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs and write a BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_11.json \\
        --parent REV --change "what the change does" --claimed d4-suites:wall_s \\
        --first-seed 101

PARENT_DIR and CHANGE_DIR are two checkouts, for example made with `git archive`.
Each workload of the change's BENCHMARK.json gets ten pairs. Pair k of the w-th
workload runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout, one run at a time, with S = first seed + 100·w + k and T
the `run_seconds` of BENCHMARK.json. The parent runs first on even k, the change
on odd k. Each run's env block, result and failed ops are kept (from the record
`perfbench/run.py` leaves in `.perfbench_run/`). Then `--trace 1 --seconds 40
--seed 3` runs 3 times per side and workload, in alternating pairs as above, and
fills the `traced` block (`traced_summary`): each timed layer's medians and both
sides' interquartile ranges, so that host drift between rounds shows as spread
rather than as a change, and the call counts and counters once per side.

For every end-to-end metric of the change's BENCHMARK.json, the summary gives the
parent and change medians, their inclusive quartiles, the ratio of the medians
(change / parent), the parent's interquartile range and the number of pairs in
which the change is better, in the metric's own direction. The `verdict` block
(`verdict`) says whether the `--claimed` gain holds, and whether every other
(workload, metric) median is within that metric's `bound`, and gives each workload's
failed / attempted ops on both sides, with `failures_within` when the change's failed
share is at most the parent's. `src_lines` gives each
side's line count of `src/clusterchar/*.py`, the measure of the same behaviour
from less code, as all lines and as code lines (no docstring, comment or blank line).
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

TRACED_SEED = 3
TRACED_SECONDS = 40
TRACED_ROUNDS = 3
SIDES = ("parent", "change")


def quartiles(values: list[float]) -> list[float]:
    """[Q1, Q3], inclusive method; a single value is its own quartiles."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and better-pair count of one metric over paired runs."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = quartiles(parent)
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "ratio": c_med / p_med if p_med else None,
        "parent_q1_q3": p_q,
        "change_q1_q3": quartiles(change),
        "parent_iqr": p_q[1] - p_q[0],
        "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "pairs": len(parent),
    }


def traced_summary(rounds: list[dict]) -> dict:
    """Summary of one workload's traced rounds; rounds[k][side] is the metrics block
    ({name: {"value", "unit"}}) of round k's traced run on that side.

    Each timed metric (unit s) gets both sides' medians and IQRs. Every
    other metric, a call count or counter, is given once per side, from the first
    round; `varies` lists, per side, those that differ between rounds, with each
    round's value.
    """
    out = {"rounds": len(rounds), "layers": {}, "counts": {s: {} for s in SIDES}, "varies": {s: {} for s in SIDES}}
    for name, first in rounds[0]["parent"].items():
        values = {side: [r[side][name]["value"] for r in rounds] for side in SIDES}
        if first["unit"] == "s":
            pq, cq = quartiles(values["parent"]), quartiles(values["change"])
            out["layers"][name] = {"parent_median": statistics.median(values["parent"]),
                                   "change_median": statistics.median(values["change"]),
                                   "parent_iqr": pq[1] - pq[0], "change_iqr": cq[1] - cq[0]}
            continue
        for side, vals in values.items():
            out["counts"][side][name] = vals[0]
            if len(set(vals)) > 1:
                out["varies"][side][name] = vals
    return out


def verdict(summaries: dict[str, dict[str, dict]], spec: dict, claimed: dict | None,
            ops: dict[str, dict[str, dict]]) -> dict:
    """The claim's outcome, every other (workload, metric)'s bound check, and each
    workload's failed shares.

    summaries[workload][metric] is a `summarize` result for an end-to-end metric of
    the BENCHMARK.json `spec`. The claimed gain holds when the change is better in
    at least 9 of 10 pairs and its median beats the parent's by more than the
    parent's IQR. Any other metric is within its bound when the change median is
    worse than the parent's by at most `bound` times the parent median.
    ops[workload][side] is {"failed", "attempted"} summed over that side's runs; a
    workload's `failures_within` holds when the change's failed share is at most the
    parent's (a side that attempted nothing has share 0).
    """
    out: dict = {"claimed": None, "bounds": {}, "failures": {}}
    for workload, sides in ops.items():
        share = {side: Fraction(c["failed"], c["attempted"]) if c["attempted"] else Fraction(0)
                 for side, c in sides.items()}
        out["failures"][workload] = {side: {**sides[side], "share": float(share[side])} for side in SIDES}
        out["failures"][workload]["failures_within"] = share["change"] <= share["parent"]
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        for workload, summary in summaries.items():
            s = summary[name]
            worse = sign * (s["change_median"] - s["parent_median"])
            if claimed == {"workload": workload, "metric": name}:
                wins = 10 * s["change_better_pairs"] >= 9 * s["pairs"]
                beats = -worse > s["parent_iqr"]
                out["claimed"] = {**claimed, "change_better_pairs": s["change_better_pairs"],
                                  "pairs": s["pairs"], "wins_9_of_10": wins,
                                  "gain": -worse, "parent_iqr": s["parent_iqr"],
                                  "beats_parent_iqr": beats, "holds": wins and beats}
                continue
            parent = abs(s["parent_median"])
            out["bounds"].setdefault(workload, {})[name] = {
                "bound": metric["bound"], "worse_by": worse / parent if parent else None,
                "within": worse <= metric["bound"] * parent}
    return out


def parse_claimed(text: str, spec: dict) -> dict:
    """{"workload": W, "metric": M} of a claim `W:M`; W must name a workload and M an
    end-to-end metric of the BENCHMARK.json `spec`, else ValueError says which is wrong."""
    workload, sep, metric = text.partition(":")
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    if not sep:
        raise ValueError(f"--claimed {text!r} is not WORKLOAD:METRIC")
    if workload not in workloads:
        raise ValueError(f"--claimed names unknown workload {workload!r}; one of {', '.join(workloads)}")
    if metric not in metrics:
        raise ValueError(f"--claimed names unknown end-to-end metric {metric!r}; one of {', '.join(metrics)}")
    return {"workload": workload, "metric": metric}


def src_lines(checkout: Path) -> dict[str, int]:
    """Lines of `src/clusterchar/*.py` in a checkout: `lines` counts all of them, and
    `code` leaves out docstrings (found with `ast`), comment lines and blank lines."""
    lines = code = 0
    for path in (checkout / "src" / "clusterchar").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
                first = node.body[0]
                if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        rows = text.splitlines()
        lines += len(rows)
        code += sum(1 for k, row in enumerate(rows, 1)
                    if k not in docstrings and row.strip() and not row.lstrip().startswith("#"))
    return {"lines": lines, "code": code}


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in a checkout: its env block, result and failed ops."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    record_path = checkout / ".perfbench_run" / f"result-{workload}-{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {key: record[key] for key in ("env", "result", "failed_ops")}


def pair_plan(workloads: dict[str, int], first_seed: int) -> list[tuple[str, int, str]]:
    """(workload, seed, side that runs first) for every pair, in run order."""
    return [(name, first_seed + 100 * w + k, "parent" if k % 2 == 0 else "change")
            for w, (name, pairs) in enumerate(workloads.items()) for k in range(pairs)]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent", required=True, help="the parent revision, as recorded in the file")
    ap.add_argument("--change", required=True, help="one line saying what the change does")
    ap.add_argument("--claimed", help="WORKLOAD:METRIC of the claimed gain, if any (an end-to-end metric)")
    ap.add_argument("--first-seed", type=int, default=101)
    args = ap.parse_args(argv)

    spec = json.loads((args.change_dir / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        claimed = parse_claimed(args.claimed, spec) if args.claimed else None
    except ValueError as exc:
        ap.error(str(exc))  # exits 2 before any run
    seconds = spec["run_seconds"]
    workloads = {w["name"]: 10 for w in spec["workloads"]}
    dirs = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}

    def run_pair(name: str, seed: int, secs: float, trace: int, first: str) -> dict:
        pair = {}
        for side in (first, "change" if first == "parent" else "parent"):
            print(f"bench_pairs: {name} seed {seed} trace {trace} {side}", file=sys.stderr, flush=True)
            pair[side] = run_side(dirs[side], name, seed, secs, trace)
        return pair

    runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for name, seed, first in pair_plan(workloads, args.first_seed):
        runs[name].append({"seed": seed, "first": first, **run_pair(name, seed, seconds, 0, first)})

    out_workloads = {}
    for name, pairs in runs.items():
        summary = {}
        for metric in spec["end_to_end"]:
            values = {side: [p[side]["result"]["metrics"][metric["name"]]["value"] for p in pairs]
                      for side in SIDES}
            summary[metric["name"]] = summarize(values["parent"], values["change"], metric["better"])
        failed = {side: sum(p[side]["result"]["failed"] for p in pairs) for side in SIDES}
        attempted = {side: sum(p[side]["result"]["attempted"] for p in pairs) for side in SIDES}
        out_workloads[name] = {"summary": summary, "failed": failed, "attempted": attempted, "pairs": pairs}
    checks = verdict({name: w["summary"] for name, w in out_workloads.items()}, spec, claimed,
                     {name: {side: {"failed": w["failed"][side], "attempted": w["attempted"][side]} for side in SIDES}
                      for name, w in out_workloads.items()})

    traced_runs: dict[str, list[dict]] = {name: [] for name in workloads}
    for name, _, first in pair_plan({name: TRACED_ROUNDS for name in workloads}, TRACED_SEED):
        traced_runs[name].append(run_pair(name, TRACED_SEED, TRACED_SECONDS, 1, first))
    traced = {}
    for name, rounds in traced_runs.items():
        traced[name] = traced_summary([{side: r[side]["result"]["metrics"] for side in SIDES} for r in rounds])
        traced[name]["failed"] = {side: sum(r[side]["result"]["failed"] for r in rounds) for side in SIDES}

    env = runs[next(iter(runs))][0]["parent"]["env"]
    doc = {
        "description": (
            f"Alternating parent/change pairs of `python3 perfbench/run.py --workload W --seed S "
            f"--seconds {seconds:g} --trace 0`, each side run from its own checkout, one run at a time; "
            f"the side that ran first alternates from pair to pair (parent first on even pair index). "
            f"Per-round records are left out; each run's env block, result and failed ops are kept. "
            f"`traced` summarizes {TRACED_ROUNDS} alternating pairs of `--trace 1 --seconds {TRACED_SECONDS} "
            f"--seed {TRACED_SEED}` per workload: each timed layer's medians and both sides' IQRs, and the "
            f"counts and counters once per side, with those that differ between rounds under `varies`. "
            f"`verdict`: whether the claimed metric is better in at least 9 of 10 pairs and by more than "
            f"the parent IQR in the median, and whether every other (workload, metric) median is worse "
            f"than the parent's by at most its BENCHMARK.json bound (a fraction of the parent median), "
            f"and each workload's failed / attempted ops per side, with `failures_within` when the "
            f"change's failed share is at most the parent's. "
            f"`src_lines`: lines of src/clusterchar/*.py in each checkout, all of them (`lines`) and "
            f"those left when docstrings, comment lines and blank lines are left out (`code`). "
            f"Written by tools/bench_pairs.py."
        ),
        "parent": args.parent,
        "change": args.change,
        "host": (f"{env['cpus_usable']} CPUs, Python {env['python']} ({env['implementation']}), "
                 f"{env['platform']}; timings from wall clock and process CPU time only"),
        "claimed": claimed,
        "verdict": checks,
        "src_lines": {side: src_lines(path) for side, path in dirs.items()},
        "workloads": out_workloads,
        "traced": traced,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, w in out_workloads.items():
        for metric, s in w["summary"].items():
            print(f"{name} {metric}: {s['parent_median']:.6g} -> {s['change_median']:.6g} "
                  f"(parent IQR {s['parent_iqr']:.3g}; change better in {s['change_better_pairs']}/{s['pairs']})")
    if checks["claimed"] is not None:
        print(f"claimed {claimed['workload']}:{claimed['metric']} holds: {checks['claimed']['holds']}")
    outside = [f"{w}:{m}" for w, ms in checks["bounds"].items() for m, c in ms.items() if not c["within"]]
    print(f"outside their bounds: {', '.join(outside) or 'none'}")
    for name, f in checks["failures"].items():
        print(f"{name} failed ops: {f['parent']['failed']}/{f['parent']['attempted']} -> "
              f"{f['change']['failed']}/{f['change']['attempted']} "
              f"({'within' if f['failures_within'] else 'a larger share fails'})")
    sizes = doc["src_lines"]
    print(f"src lines: {sizes['parent']['lines']} -> {sizes['change']['lines']}, "
          f"code lines: {sizes['parent']['code']} -> {sizes['change']['code']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
