import importlib
import json
from pathlib import Path

import pytest

from clusterchar import LaurentPoly, denominator_vector, initial_seed, mutate_seed, quiver_from_text
from clusterchar.cli import main
from clusterchar.replab import representation_from_json

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def a2_file(tmp_path):
    p = tmp_path / "a2.quiver"
    p.write_text("2\n1 2\n")
    return str(p)


@pytest.fixture()
def a3_file(tmp_path):
    p = tmp_path / "a3.quiver"
    p.write_text("3\n1 2\n2 3\n")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_quiver_validate(capsys, a2_file):
    code, out, _ = run(capsys, "quiver", "validate", a2_file)
    assert code == 0 and "valid quiver: 2 vertices" in out


def test_quiver_validate_json_input(capsys, tmp_path):
    p = tmp_path / "q.json"
    p.write_text(json.dumps({"n": 2, "arrows": [[1, 2]]}))
    code, out, _ = run(capsys, "quiver", "validate", str(p), "--json")
    assert code == 0
    assert json.loads(out) == {"valid": True, "n": 2, "arrows": [[1, 2]]}


def test_quiver_validate_loop_exits_1(capsys, tmp_path):
    p = tmp_path / "bad.quiver"
    p.write_text("1\n1 1\n")
    code, _, err = run(capsys, "quiver", "validate", str(p))
    assert code == 1 and "LoopFound" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "quiver", "validate", "/nonexistent.quiver")
    assert code == 2


def test_unreadable_paths_exit_2(capsys, a2_file, tmp_path):
    # a directory given as the quiver file or as the cache file is a usage error, not an internal one
    code, out, err = run(capsys, "genchar", str(tmp_path), "--gamma", "1,0")
    assert code == 2 and out == "" and err.startswith("error: [Errno") and "Is a directory" in err
    code, out, err = run(capsys, "genchar", a2_file, "--gamma", "1,0", "--cache", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error: [Errno") and "Is a directory" in err


def test_unreadable_cache_exits_2_before_any_value_is_computed(capsys, monkeypatch, a2_file, tmp_path):
    def no_value(*args, **kwargs):
        raise AssertionError("a value was computed before the cache was read")

    monkeypatch.setattr("clusterchar.cli.generic_character", no_value)
    code, out, err = run(capsys, "genchar", a2_file, "--gamma", "1,0", "--cache", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error: [Errno") and "Is a directory" in err


def test_quiver_file_that_is_not_utf8_exits_1(capsys, tmp_path):
    p = tmp_path / "q.quiver"
    p.write_bytes(b"\xff\xfe2\n1 2\n")
    code, out, err = run(capsys, "quiver", "validate", str(p))
    assert code == 1 and out == "" and err.startswith(f"error: ParseError: {p}: not UTF-8 text"), err


def test_cache_lines_that_are_not_utf8_are_discarded(capsys, a2_file, tmp_path):
    cache = tmp_path / "cache"
    cache.write_bytes(b"\xff\xfe{}\n")
    assert run(capsys, "genchar", a2_file, "--gamma", "1,0", "--cache", str(cache)) == (0, "(1+x2+x1)/(x1*x2)\n", "")
    assert cache.read_bytes().startswith(b"\xff\xfe{}\n{")


def test_usage_error_exits_2(capsys, a2_file):
    code, _, err = run(capsys, "cc", a2_file, "--dim", "1,0,0")
    assert code == 2


def test_cc_dim(capsys, a2_file):
    code, out, _ = run(capsys, "cc", a2_file, "--dim", "1,0")
    assert code == 0 and out.strip() == "(1+x2)/x1"
    code, out, _ = run(capsys, "cc", a2_file, "--dim", "0,0")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "cc", a2_file, "--dim", "1,1")
    assert code == 0 and out.strip() == "(1+x2+x1)/(x1*x2)"


def test_cc_rep_file(capsys, a2_file, tmp_path):
    rep = {
        "quiver": {"n": 2, "arrows": [[1, 2]]},
        "field": "Q",
        "dims": [1, 1],
        "maps": [[[1]]],
    }
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(rep))
    code, out, _ = run(capsys, "cc", a2_file, "--rep", str(p))
    assert code == 0 and out.strip() == "(1+x2+x1)/(x1*x2)"


def test_genchar_values_and_cache_determinism(capsys, a2_file, tmp_path):
    cache = str(tmp_path / "chars.json")
    code1, out1, _ = run(capsys, "genchar", a2_file, "--gamma", "0,-1", "--cache", cache)
    assert code1 == 0 and out1.strip() == "x2"
    code2, out2, _ = run(capsys, "genchar", a2_file, "--gamma", "0,-1", "--cache", cache)
    assert code2 == 0 and out2 == out1
    with open(cache) as fh:
        assert len(json.load(fh)) == 1


def test_genchar_json_mode(capsys, a2_file):
    code, out, _ = run(capsys, "genchar", a2_file, "--gamma", "1,-1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"nvars": 2, "terms": [{"coef": 1, "exp": [-1, 0]}, {"coef": 1, "exp": [-1, 1]}]}


def test_gendecomp_and_vgendecomp(capsys, a2_file):
    code, out, _ = run(capsys, "gendecomp", a2_file, "--dim", "2,1")
    assert code == 0 and out.strip() == "(1, 0) + (1, 1)"
    code, out, _ = run(capsys, "vgendecomp", a2_file, "--alpha=-1,0", "--json")
    assert code == 0
    assert json.loads(out) == {"betas": [[0, 1]], "gamma": [1, 0]}


GENDECOMP_CASES = json.loads((ROOT / "tests" / "golden" / "gendecomp-vgendecomp.json").read_text())


@pytest.mark.parametrize("case", GENDECOMP_CASES, ids=[" ".join(c["argv"]) for c in GENDECOMP_CASES])
def test_gendecomp_and_vgendecomp_match_golden(capsys, case):
    """stdout, stderr and exit code of `gendecomp` and `vgendecomp`, text and --json,
    on a2, a3, kronecker and d4, as pinned in tests/golden/gendecomp-vgendecomp.json."""
    argv = [str(ROOT / a) if a.startswith("quivers/") else a for a in case["argv"]]
    assert run(capsys, *argv) == (case["exit"], case["stdout"], case["stderr"])


FRONTIER_CASES = json.loads((ROOT / "tests" / "golden" / "genchar-kronecker-frontier.json").read_text())


@pytest.mark.parametrize("case", FRONTIER_CASES, ids=[" ".join(c["argv"]) for c in FRONTIER_CASES])
def test_kronecker_frontier_matches_golden(capsys, case):
    """stdout, stderr and exit code of `genchar --json` for Kronecker X(k,-k), k = 2..5,
    X(3,-4), X(4,-3), X(5,-6), X(6,-7) and X(7,-8), and of `cc --dim 2,2 --json`, as
    pinned in tests/golden/genchar-kronecker-frontier.json."""
    argv = [str(ROOT / a) if a.startswith("quivers/") else a for a in case["argv"]]
    assert run(capsys, *argv) == (case["exit"], case["stdout"], case["stderr"])


RIGID_FRONTIER = [c for c in FRONTIER_CASES if c["argv"][0] == "genchar" and c["argv"][2] not in
                  {f"--gamma={k},{-k}" for k in range(2, 6)}]


@pytest.fixture(scope="module")
def kronecker_variables():
    """Denominator vector -> cluster variable, along the two alternating mutation
    chains from the initial seed of the Kronecker."""
    q = quiver_from_text((ROOT / "quivers" / "kronecker.quiver").read_text(encoding="utf-8"))
    variables = {}
    for first in (1, 2):
        s = initial_seed(q)
        for step in range(16):
            s = mutate_seed(s, first if step % 2 == 0 else 3 - first)
            variables.update((denominator_vector(x), x) for x in s.cluster)
    return variables


@pytest.mark.parametrize("case", RIGID_FRONTIER, ids=[c["argv"][2] for c in RIGID_FRONTIER])
def test_kronecker_frontier_golden_is_a_cluster_variable(case, kronecker_variables):
    """Each rigid frontier golden is the cluster variable with its denominator vector."""
    x = LaurentPoly.from_json(json.loads(case["stdout"]))
    assert x == kronecker_variables[denominator_vector(x)]


CLI_CASES = json.loads((ROOT / "tests" / "golden" / "cli-commands.json").read_text())


@pytest.mark.parametrize("case", CLI_CASES, ids=[" ".join(c["argv"]) for c in CLI_CASES])
def test_cli_commands_match_golden(capsys, case):
    """stdout, stderr and exit code of every subcommand, text and --json, on the
    shipped quivers (and tests/golden/kronecker-rep.json for `cc --rep`), as
    pinned in tests/golden/cli-commands.json."""
    argv = [str(ROOT / a) if a.startswith(("quivers/", "tests/")) else a for a in case["argv"]]
    assert run(capsys, *argv) == (case["exit"], case["stdout"], case["stderr"])


def test_mutate(capsys, a2_file):
    code, out, _ = run(capsys, "mutate", a2_file, "--at", "1")
    assert code == 0
    assert "x1 = (1+x2)/x1" in out


def test_enumerate_json(capsys, a2_file):
    code, out, _ = run(capsys, "enumerate", a2_file, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["clusters"] == 5 and data["variables"] == 5 and data["closed"] is True
    assert len(data["variables_list"]) == 5


def test_enumerate_infinite_type_needs_a_limit(capsys):
    kronecker = str(ROOT / "quivers" / "kronecker.quiver")
    code, out, err = run(capsys, "enumerate", kronecker)
    assert code == 1 and out == ""
    assert err.startswith("error: NotFiniteType: ") and "--limit" in err


def test_enumerate_with_a_limit_stops_there(capsys, a2_file):
    code, out, _ = run(capsys, "enumerate", str(ROOT / "quivers" / "kronecker.quiver"), "--limit", "3")
    assert code == 1
    assert out == "clusters: 3\nvariables: 4\nclosed: false\n(1+x1^2)/x2\n(1+x2^2)/x1\nx1\nx2\n"
    code, out, _ = run(capsys, "enumerate", a2_file, "--limit", "5")
    assert code == 0 and out.startswith("clusters: 5\nvariables: 5\nclosed: true\n")


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_enumerate_nonpositive_limit_is_a_usage_error(capsys, a2_file, limit):
    code, out, err = run(capsys, "enumerate", a2_file, f"--limit={limit}")
    assert code == 2 and out == ""
    assert err == f"error: usage: --limit must be a positive integer, got {limit}\n"


def test_byte_identical_stdout(capsys, a3_file):
    _, out1, _ = run(capsys, "genchar", a3_file, "--gamma", "1,0,-1", "--rng-seed", "77")
    _, out2, _ = run(capsys, "genchar", a3_file, "--gamma", "1,0,-1", "--rng-seed", "77")
    assert out1 == out2


def test_verify_subcommand(capsys, a3_file):
    code, out, _ = run(capsys, "verify", "cone-table-a3", a3_file)
    assert code == 0
    assert out.strip().endswith("PASS 9/9")


def test_config_file(capsys, a2_file, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rng_seed = 99\nsample_bound = 6\n# comment\n")
    code, out, _ = run(capsys, "cc", a2_file, "--dim", "1,0", "--config", str(cfg))
    assert code == 0 and out.strip() == "(1+x2)/x1"


def test_config_env_var(capsys, a2_file, tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("rng_seed = 4242\n")
    monkeypatch.setenv("CLUSTERCHAR_CONFIG", str(cfg))
    code, out, _ = run(capsys, "genchar", a2_file, "--gamma", "1,0")
    assert code == 0 and out.strip() == "(1+x2+x1)/(x1*x2)"


def test_verify_failure_exits_1(capsys, a2_file):
    # monomial-containment requires the Kronecker quiver
    code, out, _ = run(capsys, "verify", "monomial-containment", a2_file)
    assert code == 1
    assert "FAIL" in out


def test_missing_config_file_exits_2(capsys, a2_file, monkeypatch, tmp_path):
    missing = str(tmp_path / "missing.conf")
    code, out, err = run(capsys, "cc", a2_file, "--dim", "1,0", "--config", missing)
    assert code == 2 and out == "" and err.startswith("error: config:")
    monkeypatch.setenv("CLUSTERCHAR_CONFIG", missing)
    code, out, err = run(capsys, "cc", a2_file, "--dim", "1,0")
    assert code == 2 and out == "" and err.startswith("error: config:")


@pytest.mark.parametrize("option, value, key", [
    ("--sample-bound", "-1", "sample_bound"), ("--retries", "0", "retries"),
    ("--cap", "-5", "enumeration_cap"), ("--rng-seed", "-3", "rng_seed"),
])
def test_invalid_cli_override_exits_2_like_a_config_file(capsys, a2_file, option, value, key):
    code, out, err = run(capsys, "genchar", a2_file, "--gamma", "1,-1", option, value)
    assert code == 2 and out == "" and err == f"error: config: {key} must be positive\n"


KRONECKER_REP = {"quiver": {"n": 2, "arrows": [[1, 2], [1, 2]]}, "field": "Q", "dims": [1, 1], "maps": [[[1]], [[0]]]}


def test_cc_rep_of_another_quiver_exits_1(capsys, a2_file, tmp_path):
    p = tmp_path / "rep.json"
    p.write_text(json.dumps(KRONECKER_REP))
    code, out, err = run(capsys, "cc", a2_file, "--rep", str(p))
    assert code == 1 and out == "" and err.startswith("error: QuiverMismatch:")


def test_cc_rep_with_a_negative_dimension_exits_1(capsys, a2_file, tmp_path):
    # a negative source dimension above an empty target once passed the shape check
    p = tmp_path / "rep.json"
    p.write_text(json.dumps({"quiver": {"n": 2, "arrows": [[1, 2]]}, "field": "Q", "dims": [-1, 0], "maps": [[]]}))
    code, out, err = run(capsys, "cc", a2_file, "--rep", str(p))
    assert code == 1 and out == "" and err.startswith("error: SubdimensionOutOfRange:")


@pytest.mark.parametrize(
    "name, text",
    [
        ("q.quiver", "abc\n"),
        ("q.quiver", "2\n1 x\n"),
        ("q.json", json.dumps({"n": 2})),
        ("q.json", "{not json"),
        ("rep.json", json.dumps({**KRONECKER_REP, "field": {"p": 4}})),
        ("rep.json", json.dumps({**KRONECKER_REP, "maps": [[["1/0"]], [[0]]]})),
        ("rep.json", json.dumps({**KRONECKER_REP, "maps": [[["x"]], [[0]]]})),
        ("rep.json", json.dumps({**KRONECKER_REP, "maps": [[[1.5]], [[0]]]})),
        ("rep.json", "[1, 2]"),
        ("q.json", json.dumps({"n": 2.7, "arrows": [[1, 2]]})),
        ("q.json", json.dumps({"n": 2, "arrows": [[1.9, 2]]})),
        ("rep.json", json.dumps({**KRONECKER_REP, "dims": [1.5, 1]})),
    ],
    ids=["text-n", "text-arrow", "json-no-arrows", "json-syntax", "rep-p4", "rep-1/0", "rep-x", "rep-float", "rep-list",
         "json-float-n", "json-float-arrow", "rep-float-dims"],
)
def test_malformed_input_exits_1(capsys, tmp_path, name, text):
    kronecker = tmp_path / "kronecker.quiver"
    kronecker.write_text("2\n1 2\n1 2\n")
    p = tmp_path / name
    p.write_text(text)
    argv = ["cc", str(kronecker), "--rep", str(p)] if name == "rep.json" else ["quiver", "validate", str(p)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error: ParseError:"), err


def test_representation_from_json_reduces_prime_field_entries():
    data = {**KRONECKER_REP, "field": {"p": 5}, "maps": [[[7]], [["-1/2"]]]}
    assert representation_from_json(data).maps == (((2,),), ((2,),))


def test_enumerate_d4_matches_golden(capsys):
    code, out, _ = run(capsys, "enumerate", str(ROOT / "quivers" / "d4.quiver"))
    assert code == 0
    assert out == (ROOT / "tests" / "golden" / "enumerate-d4.txt").read_text()


def test_enumerate_kronecker_limit_25_matches_golden(capsys):
    # 25 seeds of an infinite closure, so exit code 1; every exchange edge reached
    # from both ends is divided once, and the variables are those of one division
    # per seed and vertex, as the golden was written
    code, out, _ = run(capsys, "enumerate", str(ROOT / "quivers" / "kronecker.quiver"), "--limit", "25", "--json")
    assert code == 1
    assert out == (ROOT / "tests" / "golden" / "enumerate-kronecker-25.json").read_text()


def test_console_script_entry_point_runs_verify(capsys):
    """The `clusterchar` script of pyproject.toml resolves to a callable that runs
    a verify suite end to end, as an installed console script would call it."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["clusterchar"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    code = entry(["verify", "cone-table-a3", str(ROOT / "quivers" / "a3.quiver"), "--json"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == (ROOT / "tests" / "golden" / "cone-table-a3-a3.json").read_text()


def test_cc_rep_over_a_large_prime_field_exits_at_once(capsys, a2_file, tmp_path):
    # 2^61 - 1 is decided prime by Miller-Rabin at once; cc then refuses a
    # representation that is not rational
    p = tmp_path / "rep.json"
    p.write_text(json.dumps({"quiver": {"n": 2, "arrows": [[1, 2]]}, "field": {"p": 2**61 - 1},
                             "dims": [1, 1], "maps": [[[1]]]}))
    code, out, err = run(capsys, "cc", a2_file, "--rep", str(p))
    assert code == 1 and out == "" and err.startswith("error: FieldMismatch:")
