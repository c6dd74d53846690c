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


def _metrics(**values):
    """A metrics block: names ending in _s are timed (unit s), the rest counts."""
    return {name.replace("__", "."): {"value": v, "unit": "s" if name.endswith("_s") else "count"}
            for name, v in values.items()}


def test_traced_summary_of_fixed_numbers():
    parent = [(1.0, 5, 7), (3.0, 5, 8), (2.0, 5, 7)]
    change = [(1.5, 4, 9), (0.5, 4, 9), (1.0, 4, 9)]
    rounds = [{"parent": _metrics(op__time_s=pt, op__calls=pc, cache__hits=ph),
               "change": _metrics(op__time_s=ct, op__calls=cc, cache__hits=ch)}
              for (pt, pc, ph), (ct, cc, ch) in zip(parent, change)]
    s = bench_pairs.traced_summary(rounds)
    assert s["rounds"] == 3
    # inclusive quartiles of 1, 2, 3 are 1.5 and 2.5; of 0.5, 1, 1.5 they are 0.75 and 1.25
    assert s["layers"] == {"op.time_s": {"parent_median": 2.0, "change_median": 1.0,
                                         "parent_iqr": 1.0, "change_iqr": 0.5}}
    assert s["counts"] == {"parent": {"op.calls": 5, "cache.hits": 7}, "change": {"op.calls": 4, "cache.hits": 9}}
    assert s["varies"] == {"parent": {"cache.hits": [7, 8, 7]}, "change": {}}


def test_traced_rounds_alternate_sides_on_one_seed(monkeypatch, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout.name == "p" else "change"
        calls.append((workload, side, seed, seconds, trace))
        env = {"cpus_usable": 1, "python": "3", "implementation": "CPython", "platform": "test"}
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        metrics["op.time_s"] = {"value": float(len(calls)), "unit": "s"}
        return {"env": env, "result": {"metrics": metrics, "attempted": 10, "failed": 0}, "failed_ops": {}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    (tmp_path / "p").mkdir()
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "p"), str(ROOT), "--out", str(out), "--parent", "p", "--change", "c"]) == 0
    traced = [c for c in calls if c[4] == 1]
    for w in SPEC["workloads"]:
        runs = [c for c in traced if c[0] == w["name"]]
        assert [c[1] for c in runs] == ["parent", "change", "change", "parent", "parent", "change"]
        assert {c[2:] for c in runs} == {(bench_pairs.TRACED_SEED, bench_pairs.TRACED_SECONDS, 1)}
    doc = json.loads(out.read_text(encoding="utf-8"))
    block = doc["traced"][SPEC["workloads"][0]["name"]]
    assert block["rounds"] == 3 and block["failed"] == {"parent": 0, "change": 0}
    assert set(block["layers"]["op.time_s"]) == {"parent_median", "change_median", "parent_iqr", "change_iqr"}
    assert doc["verdict"]["claimed"] is None
    assert {w["name"] for w in SPEC["workloads"]} == set(doc["verdict"]["bounds"])
    assert {w["name"] for w in SPEC["workloads"]} == set(doc["verdict"]["failures"])
    for name, f in doc["verdict"]["failures"].items():
        assert f == {"parent": {"failed": 0, "attempted": 100, "share": 0.0},
                     "change": {"failed": 0, "attempted": 100, "share": 0.0}, "failures_within": True}
        assert doc["workloads"][name]["attempted"] == {"parent": 100, "change": 100}
    assert doc["src_lines"] == {"parent": {"lines": 0, "code": 0}, "change": bench_pairs.src_lines(ROOT)}


def test_src_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "clusterchar"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline
    (package / "notes.txt").write_text("not code\n")
    (tmp_path / "src" / "other.py").write_text("outside\n")
    (package / "sub").mkdir()
    (package / "sub" / "c.py").write_text("nested\n")
    assert bench_pairs.src_lines(tmp_path) == {"lines": 3, "code": 3}
    assert bench_pairs.src_lines(tmp_path / "missing") == {"lines": 0, "code": 0}


CODE_FIXTURE = '''"""Module docstring

over three lines."""

# a comment line
X = """a string that is
not a docstring"""


class C:
    """Class docstring."""

    def f(self):  # a trailing comment keeps its line
        """Function
        docstring."""
        return "# not a comment"


async def g():
    'docstring'
    pass
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines(tmp_path):
    package = tmp_path / "src" / "clusterchar"
    package.mkdir(parents=True)
    (package / "m.py").write_text(CODE_FIXTURE)
    # code lines: X = (2 lines), class C, def f, return, async def g, pass
    assert bench_pairs.src_lines(tmp_path) == {"lines": 21, "code": 7}


def _summaries(**pairs):
    """{workload: {metric: summarize(parent, change, better)}} for the metrics of SPEC,
    every metric taking the same parent and change values as wall_s unless given."""
    out = {}
    for workload, (parent, change) in pairs.items():
        out[workload] = {m["name"]: bench_pairs.summarize(parent, change, m["better"]) for m in SPEC["end_to_end"]}
    return out


def _ops(*workloads, parent=(0, 100), change=(0, 100)):
    """{workload: {side: {"failed", "attempted"}}}, the same (failed, attempted) per workload."""
    return {w: {side: {"failed": f, "attempted": a} for side, (f, a) in (("parent", parent), ("change", change))}
            for w in workloads}


def test_verdict_of_a_claimed_gain():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]  # median 1.2, IQR 0.2
    ten_wins = [x - 0.3 for x in parent]  # median 0.9: gain 0.3 > 0.2
    nine_wins = ten_wins[:9] + [1.5]
    eight_wins = ten_wins[:8] + [1.5, 1.5]
    close = [x - 0.15 for x in parent]  # wins all ten pairs, gain 0.15 < 0.2
    claim = {"workload": "w", "metric": "wall_s"}
    for change, wins, beats in [(ten_wins, True, True), (nine_wins, True, True),
                                (eight_wins, False, True), (close, True, False)]:
        v = bench_pairs.verdict(_summaries(w=(parent, change)), SPEC, claim, _ops("w"))["claimed"]
        assert (v["wins_9_of_10"], v["beats_parent_iqr"], v["holds"]) == (wins, beats, wins and beats)
        assert v["parent_iqr"] == pytest.approx(0.2) and v["pairs"] == 10
    v = bench_pairs.verdict(_summaries(w=(parent, ten_wins)), SPEC, claim, _ops("w"))
    assert v["claimed"]["change_better_pairs"] == 10 and v["claimed"]["gain"] == pytest.approx(0.3)
    assert "wall_s" not in v["bounds"]["w"]  # the claimed pair is judged by the claim rule only
    assert bench_pairs.verdict(_summaries(w=(parent, ten_wins)), SPEC, None, _ops("w"))["claimed"] is None


def test_verdict_checks_every_other_metric_against_its_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    parent = [2.0] * 10
    for change, within in [([2.0] * 10, True), ([2.0 * (1 + bounds["wall_s"])] * 10, True),
                           ([2.0 * (1 + bounds["wall_s"]) + 0.01] * 10, False), ([1.0] * 10, True)]:
        v = bench_pairs.verdict(_summaries(a=(parent, change), b=(parent, parent)), SPEC, None, _ops("a", "b"))
        assert v["bounds"]["a"]["wall_s"]["within"] is within
        assert v["bounds"]["a"]["wall_s"]["bound"] == bounds["wall_s"]
        assert all(c["within"] for c in v["bounds"]["b"].values())
    v = bench_pairs.verdict(_summaries(a=(parent, [2.5] * 10)), SPEC, None, _ops("a"))["bounds"]["a"]
    assert v["wall_s"]["worse_by"] == pytest.approx(0.25) and not v["wall_s"]["within"]  # bound 0.2
    assert v["op_p50_s"]["worse_by"] == pytest.approx(0.25) and v["op_p50_s"]["within"]  # bound 0.25
    # a parent median of 0: any rise is outside the bound, no rise is within it
    v = bench_pairs.verdict(_summaries(a=([0.0] * 10, [0.1] * 10), b=([0.0] * 10, [0.0] * 10)), SPEC, None,
                             _ops("a", "b"))
    assert v["bounds"]["a"]["wall_s"] == {"bound": bounds["wall_s"], "worse_by": None, "within": False}
    assert v["bounds"]["b"]["wall_s"]["within"]


def test_verdict_reads_each_metric_in_its_own_direction():
    spec = {"end_to_end": [{"name": "ops_per_s", "better": "higher", "bound": 0.1}]}
    summaries = {"a": {"ops_per_s": bench_pairs.summarize([10.0] * 10, [8.0] * 10, "higher")},
                 "b": {"ops_per_s": bench_pairs.summarize([10.0] * 10, [12.0] * 10, "higher")}}
    v = bench_pairs.verdict(summaries, spec, {"workload": "b", "metric": "ops_per_s"}, _ops("a", "b"))
    assert v["bounds"] == {"a": {"ops_per_s": {"bound": 0.1, "worse_by": pytest.approx(0.2), "within": False}}}
    assert v["claimed"]["gain"] == pytest.approx(2.0) and v["claimed"]["holds"]


def test_verdict_compares_failed_shares():
    summaries = _summaries(w=([1.0] * 10, [1.0] * 10))
    for parent, change, within in [
        ((0, 100), (0, 100), True),
        ((0, 100), (1, 100), False),  # the change fails one more op
        ((3, 100), (4, 100), False),
        ((3, 100), (3, 100), True),
        ((2, 100), (1, 100), True),
        ((1, 100), (2, 200), True),  # the same share of more ops
        ((1, 100), (3, 200), False),
        ((0, 0), (0, 100), True),  # a side that attempted nothing has share 0
    ]:
        v = bench_pairs.verdict(summaries, SPEC, None, _ops("w", parent=parent, change=change))["failures"]["w"]
        assert v["failures_within"] is within, (parent, change)
        assert (v["change"]["failed"], v["change"]["attempted"]) == change
        assert (v["parent"]["failed"], v["parent"]["attempted"]) == parent
    v = bench_pairs.verdict(summaries, SPEC, None, _ops("w", parent=(1, 4), change=(1, 8)))["failures"]["w"]
    assert (v["parent"]["share"], v["change"]["share"]) == (0.25, 0.125)
    # the failed shares do not enter the metric bounds
    bounds = bench_pairs.verdict(summaries, SPEC, None, _ops("w", change=(5, 100)))["bounds"]["w"]
    assert all(c["within"] for c in bounds.values())


def test_a_larger_failed_share_is_printed_beside_the_bounds(monkeypatch, tmp_path, capsys):
    runs = []

    def fake_run(checkout, workload, seed, seconds, trace):
        side = "parent" if checkout.name == "p" else "change"
        runs.append(side)
        env = {"cpus_usable": 1, "python": "3", "implementation": "CPython", "platform": "test"}
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        failed = int(side == "change" and workload == SPEC["workloads"][0]["name"] and len(runs) == 2 and trace == 0)
        return {"env": env, "result": {"metrics": metrics, "attempted": 10, "failed": failed}, "failed_ops": {}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run)
    (tmp_path / "p").mkdir()
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "p"), str(ROOT), "--out", str(out), "--parent", "p", "--change", "c"]) == 0
    first, *others = [w["name"] for w in SPEC["workloads"]]
    failures = json.loads(out.read_text(encoding="utf-8"))["verdict"]["failures"]
    assert failures[first]["change"]["failed"] == 1 and not failures[first]["failures_within"]
    assert all(failures[w]["failures_within"] for w in others)
    printed = capsys.readouterr().out
    assert f"{first} failed ops: 0/100 -> 1/100 (a larger share fails)" in printed
    assert all(f"{w} failed ops: 0/100 -> 0/100 (within)" in printed for w in others)
