"""Acceptance suite: every criterion runs at its stated trial count and
tolerance and prints one pass/fail line.  Run with ``pytest
tests/test_acceptance.py -v -s`` to see the lines as they complete.

All index identities are exact integer comparisons; matrix residual
checks use residual_tol = 1e-8.  The random checks are driven by the
seeded suites in :mod:`lagidx.verify`, so every line is reproducible.
"""

import numpy as np

import lagidx.indices
import lagidx.maslov
from lagidx import duistermaat, duistermaat_graphs, graph_plane, verify

ALL_N = (1, 2, 3, 4, 5, 6)
SEED = 20240811


def _report(num: int, ok: bool, label: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def _no_failures(check: str, n_values, trials: int) -> bool:
    failures = verify.run_check(check, n_values, trials, seed=SEED)
    for f in failures:
        print(f"    {f.check} n={f.n} trial={f.trial}: {f.details}")
    return not failures


def test_criterion_01_truth_table():
    expected = {
        (0.0, 1.0, 2.0): 0, (1.0, 2.0, 0.0): 0, (2.0, 0.0, 1.0): 0,
        (0.0, 2.0, 1.0): 1, (1.0, 0.0, 2.0): 1, (2.0, 1.0, 0.0): 1,
    }
    ok = True
    for scalars, want in expected.items():
        planes = tuple(graph_plane(np.array([[s]])) for s in scalars)
        for method in ("omega", "robin", "reduce", "closed_form"):
            ok = ok and duistermaat(*planes, method=method, seed=1).value == want
    ok = ok and duistermaat_graphs(np.eye(1), np.eye(1), np.zeros((1, 1))) == 0
    _report(1, ok, "scalar truth table, six orderings plus A=B, four methods")


def test_criterion_02_normalization():
    ok = _no_failures("normalization", ALL_N, 200)
    _report(2, ok, "normalization against the Morse index, 200 trials per n in 1..6, all methods")


def test_criterion_03_cocycle():
    ok = _no_failures("cocycle", ALL_N, 200)
    _report(3, ok, "cocycle identity on 200 random quadruples per n in 1..6")


def test_criterion_04_invariance_and_bounds():
    ok = (_no_failures("symplectic-invariance", ALL_N, 34)
          and _no_failures("bounds", ALL_N, 34)
          and _no_failures("antisymplectic", ALL_N, 17))
    _report(4, ok, "symplectic invariance and bounds (200 trials), anti-symplectic rule (100)")


def test_criterion_05_method_agreement():
    ok = _no_failures("method-agreement", ALL_N, 84)
    _report(5, ok, "robin (double epsilon), omega and reduce agree on 500 random triples")


def test_criterion_06_permutation_identities():
    checks = ("special-values", "swap12", "swap23", "swap13", "cyclic-shifts", "additivity")
    ok = all(_no_failures(c, ALL_N, 34) for c in checks)
    _report(6, ok, "special values, swaps, cyclic shifts, additivity; 200 trials each")


def test_criterion_07_relation_identities():
    checks = ("subtraction", "inversion", "graph-plane-vertical", "plane-graph-vertical")
    ok = all(_no_failures(c, ALL_N, 34) for c in checks)
    _report(7, ok, "relation calculus identities incl. planes with mul_dim >= 1; 200 trials each")


def test_criterion_08_kashiwara_and_factorization():
    ok = (_no_failures("signature-correspondence", ALL_N, 34)
          and _no_failures("form-nullity", ALL_N, 34)
          and _no_failures("omega-factorization", ALL_N, 34))
    _report(8, ok, "Kashiwara correspondence, form nullity, factorization residual <= 1e-8")


def test_factorization_bound_has_a_floor():
    # Trials 15 and 22 at n = 1 draw a triple with a zero omega form; the
    # rounding residual there must not fail against a bound of 0.
    assert verify.run_check("omega-factorization", [1], 25, seed=0) == []


def test_criterion_09_morse_formulas():
    checks = ("invertible-difference", "kernel-case-1", "kernel-case-2",
              "sum-invertible", "haynsworth")
    ok = all(_no_failures(c, ALL_N, 34) for c in checks)
    ok = ok and _no_failures("resolvent-difference", ALL_N, 34)
    _report(9, ok, "Morse-index difference/sum/kernel formulas, resolvent route, Haynsworth")


def test_criterion_10_maslov():
    ok = (_no_failures("minimal-path", ALL_N, 17)
          and _no_failures("zhou-wu-zhu", ALL_N, 17)
          and _no_failures("extremal-inequality", ALL_N, 9)
          and _no_failures("segment-oracle", ALL_N, 34)
          and _no_failures("endpoint-conventions", (1,), 1))
    _report(10, ok, "minimal path equality, ZWZ (both lines), extremal bound, eigenvalue oracle")


def test_criterion_11_mutation_resistance(monkeypatch):
    caught = 0
    mutants = [lambda a, b, c: -a - b + c,
               lambda a, b, c: a + b + c,
               lambda a, b, c: a - b - c]
    for mutant in mutants:
        with monkeypatch.context() as mp:
            mp.setattr(lagidx.indices, "_robin_combination", mutant)
            report = verify.run_suite("axioms", (1, 2, 3), trials=4, seed=13, minimize=False)
            caught += 0 if report.ok else 1

    def swapped(crossings):
        total = 0
        for c in crossings:
            if c.t > 1e-9:
                total += c.form_inertia.n_plus
            if c.t < 1.0 - 1e-9:
                total -= c.form_inertia.n_minus
        return total

    with monkeypatch.context() as mp:
        mp.setattr(lagidx.maslov, "index_from_crossings", swapped)
        report = verify.run_suite("maslov-zwz", (1, 2), trials=2, seed=13, minimize=False)
        caught += 0 if report.ok else 1
    ok = caught == 4
    _report(11, ok, "sign-flip and endpoint-swap mutants all caught by the suites")
