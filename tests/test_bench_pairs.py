"""`tools/bench_pairs.py`: summary arithmetic and pair order, without running the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_of_fixed_numbers():
    parent = [2.0, 1.0, 4.0, 3.0, 5.0]
    change = [1.5, 1.2, 3.0, 2.0, 4.0]
    s = bench_pairs.summarize(parent, change, "lower")
    assert s["parent_median"] == 3.0 and s["change_median"] == 2.0
    assert s["ratio"] == pytest.approx(2 / 3)
    assert s["parent_q1_q3"] == [2.0, 4.0] and s["parent_iqr"] == 2.0
    assert s["change_q1_q3"] == [1.5, 3.0]
    assert s["change_better_pairs"] == 4 and s["pairs"] == 5
    # the same numbers where higher is better; ties count for neither side
    s = bench_pairs.summarize(parent, change, "higher")
    assert s["change_better_pairs"] == 1
    assert bench_pairs.summarize([1.0, 2.0], [1.0, 2.0], "lower")["change_better_pairs"] == 0


def test_summary_edge_cases():
    s = bench_pairs.summarize([2.0], [1.0], "lower")
    assert s["parent_q1_q3"] == [2.0, 2.0] and s["parent_iqr"] == 0.0
    assert bench_pairs.summarize([0.0, 0.0], [1.0, 1.0], "lower")["ratio"] is None
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [1.0, 2.0], "lower")


def test_summary_reproduces_a_committed_bench_file():
    doc = json.loads((ROOT / "BENCH_10.json").read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in doc["workloads"].values():
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[p[side]["result"]["metrics"][name]["value"] for p in w["pairs"]] for side in ("parent", "change")]
            assert bench_pairs.summarize(*values, metric["better"]) == pytest.approx(w["summary"][name])


def test_pair_plan_alternates_the_first_side():
    plan = bench_pairs.pair_plan({"d4-suites": 3, "kronecker-frontier": 2}, 101)
    assert plan == [
        ("d4-suites", 101, "parent"),
        ("d4-suites", 102, "change"),
        ("d4-suites", 103, "parent"),
        ("kronecker-frontier", 201, "parent"),
        ("kronecker-frontier", 202, "change"),
    ]


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_claimed_names_a_workload_and_an_end_to_end_metric():
    assert bench_pairs.parse_claimed("kronecker-frontier:wall_s", SPEC) == {
        "workload": "kronecker-frontier", "metric": "wall_s"}
    for text, named in [
        ("kronecker-frontier", "not WORKLOAD:METRIC"),
        ("foo:wall_s", "unknown workload 'foo'"),
        ("d4-suites:walls", "unknown end-to-end metric 'walls'"),
        ("d4-suites:linalg.rref_qq.calls", "unknown end-to-end metric"),  # a per-layer metric
        (":wall_s", "unknown workload ''"),
    ]:
        with pytest.raises(ValueError, match=named):
            bench_pairs.parse_claimed(text, SPEC)


def test_a_bad_claim_exits_2_before_any_run(monkeypatch, tmp_path, capsys):
    def no_run(*args):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(bench_pairs, "run_side", no_run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(ROOT), str(ROOT), "--out", str(out), "--parent", "p", "--change", "c",
                          "--claimed", "foo"])
    assert exc.value.code == 2
    assert "--claimed 'foo' is not WORKLOAD:METRIC" in capsys.readouterr().err
    assert not out.exists()
