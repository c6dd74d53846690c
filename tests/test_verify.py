"""Suite plumbing: run settings reach every character, errors become FAIL cases, and
the (suite, quiver) pairs outside the acceptance criteria keep their `verify --json` output."""

import json
from pathlib import Path

import pytest

from clusterchar import verify
from clusterchar.cli import main
from clusterchar.config import RunConfig
from clusterchar.errors import CapExceeded

ROOT = Path(__file__).resolve().parent.parent


def test_monomial_containment_passes_settings_and_records_errors(kronecker, monkeypatch):
    calls = []

    def failing_character(q, gamma, **kwargs):
        calls.append(kwargs)
        raise CapExceeded("stub")

    monkeypatch.setattr(verify, "generic_character", failing_character)
    config = RunConfig(rng_seed=5, sample_bound=4, retries=3, enumeration_cap=99)
    report = verify.suite_monomial_containment(kronecker, config)
    assert len(report.cases) == 8  # six rigid indecomposables, then X(P_1[1]) and X(P_2[1])
    assert all(not c.passed and c.detail == "CapExceeded: stub" for c in report.cases)
    assert all(
        (kw["rng_seed"], kw["bound"], kw["retries"], kw["cap"]) == (5, 4, 3, 99) for kw in calls
    )


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
