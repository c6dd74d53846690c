#!/usr/bin/env python3
"""The benchmark's own test: a few seconds on the A2 smoke workload.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to the benchmark's format, that `run.py`
prints exactly the metrics it lists, by name and unit, with and without
tracing, that the correctness checks reject wrong outputs, and that `run.py`
fails without printing a result where the program's sources are missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and NAME.fullmatch(w["name"]) and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "a2-smoke", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_output(spec: dict) -> None:
    for trace, wanted in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        proc = run(ROOT, "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in wanted]
        for m in wanted:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
            if trace == "0":
                assert got["value"] > 0, m["name"]
        assert "failures: none" in proc.stdout


def check_checks() -> None:
    """The correctness checks pass on real outputs and reject altered ones."""
    from workloads import WORKLOADS

    w = WORKLOADS["a2-smoke"](ROOT, 7, ROOT / ".perfbench_run")
    outputs = {op.key: op.fn() for op in w.ops}
    assert w.check(outputs) == []
    xs = [k for k in outputs if k.startswith("X")]
    ccs = [k for k in outputs if k.startswith("CC")]
    swapped = dict(outputs, **{xs[0]: outputs[xs[1]]})
    assert any(k in xs[:2] for k, _ in w.check(swapped)), "a repeated value passed"
    not_member = dict(outputs, **{xs[2]: (outputs[xs[2]][0], False)})
    assert w.check(not_member) == [(xs[2], "not a cluster monomial")]
    x, y = outputs[ccs[-1]]
    bad_cc = dict(outputs, **{ccs[-1]: (x * x, y)})
    assert w.check(bad_cc) == [(ccs[-1], "CC(alpha) != X(E^t alpha)")]


def check_without_sources() -> None:
    """Where only BENCHMARK.json and perfbench/ exist, run.py fails and prints no result."""
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--trace", "0")
        assert proc.returncode != 0 and "correct" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_checks()
    check_output(spec)
    check_without_sources()
    print("selftest ok")


if __name__ == "__main__":
    main()
