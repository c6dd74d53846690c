"""Suite plumbing: run settings reach every character, errors become FAIL cases, the
(suite, quiver) pairs outside the acceptance criteria keep their `verify --json` output,
and verify and cli reach the library through its public names only."""

import ast
import json
from pathlib import Path

import pytest

from clusterchar import verify
from clusterchar.cli import main
from clusterchar.config import RunConfig
from clusterchar.errors import CapExceeded
from clusterchar.seeds import mix_seed

ROOT = Path(__file__).resolve().parent.parent


STUBBED = ("generic_character", "cc_generic", "check_multiplicativity", "stability_check",
           "virtual_generic_decomposition")
# (suite, quiver, instance cases, aggregate cases after them, seeds the library may be
# called with at rng_seed 5)
SETTINGS_CASES = [
    ("monomial-containment", "kronecker", 8, 0, {5}),
    ("finite-type-equality", "a2", 25, 2, {5}),
    ("multiplicativity", "a2", verify.SUITE_COUNT, 0, {mix_seed(5, 43, i) for i in range(verify.SUITE_COUNT)}),
    ("cc-agreement", "a2", 9, 0, {5}),
    ("denominators", "a2", 9, 0, {mix_seed(5, 53)}),
    ("gvectors", "a2", 12, 1, {mix_seed(5, 59)}),
    ("stability", "a2", verify.SUITE_COUNT, 1, {mix_seed(5, 71, t) for t in range(1, 40 * verify.SUITE_COUNT + 1)}),
    ("cone-table-a3", "a3", 9, 0, {mix_seed(5, 73, a, c) for a in (1, 2, 3) for c in (1, 2, 3)}),
]


@pytest.mark.parametrize("suite, quiver, count, aggregates, seeds", SETTINGS_CASES, ids=[c[0] for c in SETTINGS_CASES])
def test_suites_pass_settings_and_record_errors(request, monkeypatch, suite, quiver, count, aggregates, seeds):
    """Every library call of a suite gets the run's seed, sample bound, retries and
    enumeration cap (the virtual generic decomposition takes no cap), its
    ClusterCharError becomes that instance's FAIL case, and a failure does not stop
    the suite: every instance still runs and makes its one call."""
    calls = []

    def stub(name):
        def failing(*args, **kwargs):
            calls.append((name, kwargs))
            raise CapExceeded("stub")
        return failing

    for name in STUBBED:
        monkeypatch.setattr(verify, name, stub(name))
    config = RunConfig(rng_seed=5, sample_bound=4, retries=3, enumeration_cap=99)
    report = verify.run_suite(suite, request.getfixturevalue(quiver), config)
    assert len(report.cases) == count + aggregates
    instances = report.cases[:count]
    assert len(calls) == len(instances) == count
    assert all(not c.passed and c.detail == "CapExceeded: stub" for c in instances)
    for name, kwargs in calls:
        cap = None if name == "virtual_generic_decomposition" else 99
        assert kwargs["rng_seed"] in seeds
        assert (kwargs["bound"], kwargs["retries"], kwargs.get("cap")) == (4, 3, cap)


def test_settings_cases_cover_every_suite():
    assert sorted(c[0] for c in SETTINGS_CASES) == sorted(verify.SUITES)


def test_finite_type_equality_fails_fast_on_infinite_type(kronecker, monkeypatch, tmp_path, capsys):
    def no_character(*args, **kwargs):
        raise AssertionError("sampled a character on a quiver of infinite type")

    monkeypatch.setattr(verify, "_character", no_character)
    report = verify.suite_finite_type_equality(kronecker, RunConfig())
    assert not report.passed
    assert len(report.cases) == 1 and report.cases[0].detail.startswith("NotFiniteType: ")

    path = tmp_path / "kronecker.quiver"
    path.write_text("2\n1 2\n1 2\n")
    code = main(["verify", "finite-type-equality", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out) == report.to_json()


# (suite, quiver, exit code) of the pairs no acceptance criterion covers; D4
# finite-type-equality (FAIL 626/627, several seconds) is checked in CI instead
PINNED = [
    ("cone-table-a3", "a2", 1), ("cone-table-a3", "d4", 1), ("cone-table-a3", "kronecker", 1),
    ("monomial-containment", "a2", 1), ("monomial-containment", "a3", 1), ("monomial-containment", "d4", 1),
    ("finite-type-equality", "kronecker", 1), ("denominators", "kronecker", 0),
]


@pytest.mark.parametrize("suite, quiver, code", PINNED)
def test_verify_json_matches_golden(capsys, suite, quiver, code):
    assert main(["verify", suite, str(ROOT / "quivers" / f"{quiver}.quiver"), "--json"]) == code
    assert capsys.readouterr().out == (ROOT / "tests" / "golden" / f"{suite}-{quiver}.json").read_text()


@pytest.mark.parametrize("module", ["verify", "cli"])
def test_clients_import_no_private_name(module):
    """verify and cli are clients of the certified API: they import no `_`-prefixed name of the package."""
    tree = ast.parse((ROOT / "src" / "clusterchar" / f"{module}.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("clusterchar")) for alias in node.names]
    assert names and not [name for name in names if name.startswith("_")]
