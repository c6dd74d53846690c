"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-8 drive the named verification suites at their stated scopes and
tolerances (everything here is exact equality); criterion 9 is the property
floor from the per-module invariants.
"""

import json
import random
import time
from math import comb
from pathlib import Path

from clusterchar import (
    CharacterCache,
    cc_generic,
    denominator_vector,
    enumerate_seeds,
    ext_dim,
    euler_form,
    generic_character,
    grassmannian_euler,
    hom_dim,
    monomial,
    mutate_seed,
    quiver_from_text,
    random_representation,
    validate_quiver,
)
from clusterchar.cli import main as cli_main
from clusterchar.config import RunConfig
from clusterchar.verify import run_suite

CONFIG = RunConfig()
ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
QUIVER_NAMES = {quiver_from_text(f.read_text()).key(): f.stem for f in (ROOT / "quivers").glob("*.quiver")}


def _report(criterion: str, report) -> None:
    """Print the criterion line, require a pass, and require the report to equal
    tests/golden/<suite>-<quiver>.json byte for byte (the `verify --json` stdout)."""
    line = f"ACCEPTANCE {criterion}: {report.summary()} ({report.suite} on {report.quiver})"
    print(line)
    failures = [c for c in report.cases if not c.passed]
    assert report.passed, f"{line}; first failure: {failures[0].name}: {failures[0].detail}"
    golden = GOLDEN / f"{report.suite}-{QUIVER_NAMES[report.quiver]}.json"
    assert json.dumps(report.to_json(), sort_keys=True) + "\n" == golden.read_text(), f"{line}; differs from {golden.name}"


def test_criterion_1_finite_type_equality(a2, a3):
    start = time.monotonic()
    _report("1", run_suite("finite-type-equality", a2, CONFIG))
    _report("1", run_suite("finite-type-equality", a3, CONFIG))
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE 1: runtime {elapsed:.1f}s (target < 60s)")
    assert elapsed < 60.0


def test_criterion_2_monomial_containment(kronecker):
    _report("2", run_suite("monomial-containment", kronecker, CONFIG))


def test_criterion_3_cc_agreement(a2, a3, kronecker):
    for q in (a3, a2, kronecker):
        _report("3", run_suite("cc-agreement", q, CONFIG))


def test_d4_cc_agreement_and_denominators():
    d4 = quiver_from_text((ROOT / "quivers" / "d4.quiver").read_text())
    _report("3", run_suite("cc-agreement", d4, CONFIG))
    _report("5", run_suite("denominators", d4, CONFIG))


def test_d4_multiplicativity_gvectors_and_stability():
    d4 = quiver_from_text((ROOT / "quivers" / "d4.quiver").read_text())
    _report("4", run_suite("multiplicativity", d4, CONFIG))
    _report("6", run_suite("gvectors", d4, CONFIG))
    _report("7", run_suite("stability", d4, CONFIG))


def test_criterion_4_multiplicativity(a2, a3, kronecker):
    for q in (a2, a3, kronecker):
        _report("4", run_suite("multiplicativity", q, CONFIG))


def test_criterion_5_denominators(a2, a3):
    for q in (a2, a3):
        _report("5", run_suite("denominators", q, CONFIG))


def test_criterion_6_index_and_g_vectors(a2, a3, kronecker):
    for q in (a2, a3, kronecker):
        _report("6", run_suite("gvectors", q, CONFIG))


def test_criterion_7_stability(a2, a3, kronecker):
    for q in (a2, a3, kronecker):
        _report("7", run_suite("stability", q, CONFIG))


def test_criterion_8_cone_table_a3(a3):
    _report("8", run_suite("cone-table-a3", a3, CONFIG))


# --- criterion 9: property floor ---


def _nine(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE 9 [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion 9 property {name} failed: {detail}"


def test_criterion_9_euler_identity(a2, a3, kronecker):
    rng = random.Random(100)
    checked = 0
    for q in (a2, a3, kronecker):
        for _ in range(34):
            d = tuple(rng.randint(0, 2) for _ in range(q.n))
            e = tuple(rng.randint(0, 2) for _ in range(q.n))
            m = random_representation(q, d, rng_seed=rng.randint(0, 10**6))
            n = random_representation(q, e, rng_seed=rng.randint(0, 10**6))
            assert hom_dim(m, n) - ext_dim(m, n) == euler_form(q, d, e)
            checked += 1
    _nine("euler-identity", checked >= 100, f"{checked} pairs")


def test_criterion_9_grassmannian_binomials():
    point = validate_quiver(1, [])
    for d in range(6):
        v = random_representation(point, (d,), rng_seed=1)
        for e in range(d + 1):
            assert grassmannian_euler(v, (e,)).euler == comb(d, e)
    _nine("grassmannian-binomial", True, "chi(Gr(e,d)) = C(d,e) for d <= 5")


def test_criterion_9_mutation_involution(a2, a3):
    for q in (a2, a3):
        for seed in enumerate_seeds(q).seeds:
            for k in range(1, q.n + 1):
                back = mutate_seed(mutate_seed(seed, k), k)
                assert back.cluster == seed.cluster and back.b == seed.b
    _nine("mutation-involution", True, "all seeds of A2 and A3, all directions")


def test_criterion_9_laurent_phenomenon(a2, a3):
    for q in (a2, a3):
        result = enumerate_seeds(q)
        assert result.closed
        for v in result.variables:
            d = denominator_vector(v)  # exists, and division was exact during mutation
            num = v * monomial(q.n, tuple(max(x, 0) for x in d))
            assert all(min(e[i] for e in num.terms) >= 0 for i in range(q.n))
    _nine("laurent-phenomenon", True, "all enumerated variables have monomial denominators")


def test_criterion_9_five_seed_stability(a3, kronecker):
    values = {generic_character(a3, (2, -1, 1), rng_seed=s, cache=CharacterCache()).to_text() for s in (3, 14, 159)}
    assert len(values) == 1
    values_cc = {cc_generic(kronecker, (2, 2), rng_seed=s).to_text() for s in (2, 71, 828)}
    assert len(values_cc) == 1
    _nine("five-seed-certification", True, "certified values independent of the master seed")


def test_criterion_9_cache_determinism(tmp_path, capsys):
    quiver_file = tmp_path / "a2.quiver"
    quiver_file.write_text("2\n1 2\n")
    cache = str(tmp_path / "cache.json")
    argv = ["genchar", str(quiver_file), "--gamma", "2,-2", "--cache", cache, "--rng-seed", "5"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    _nine("cache-determinism", first == second and len(first) > 0, "byte-identical stdout across runs")
