"""Mutation resistance: deliberately broken builds must be caught by the
verification suites.  Each mutant flips one structural choice (a sign in
the Robin-map combination, the endpoint conventions of the crossing
count, the symplectic pairing convention, or the direction of the
extremal inequality) and at least one suite has to report failures.
"""

import dataclasses
import sys

import pytest

import lagidx.indices
import lagidx.maslov
import lagidx.symplectic
from lagidx import verify
from lagidx.symplectic import is_symplectic, omega, random_symplectic


def run_light(suite):
    return verify.run_suite(suite, n_values=(1, 2, 3), trials=4, seed=13, minimize=False)


def test_suites_pass_unmutated():
    assert run_light("axioms").ok
    assert run_light("maslov-zwz").ok


@pytest.mark.parametrize("mutant", [
    lambda a, b, c: -a - b + c,
    lambda a, b, c: a + b + c,
    lambda a, b, c: a - b - c,
])
def test_robin_sign_flip_is_caught(monkeypatch, mutant):
    monkeypatch.setattr(lagidx.indices, "_robin_combination", mutant)
    report = run_light("axioms")
    assert not report.ok, "sign-flipped Robin combination escaped the axiom suite"


def test_maslov_endpoint_swap_is_caught(monkeypatch):
    def swapped(crossings):
        total = 0
        for c in crossings:
            at_start = c.t <= 1e-9
            at_end = c.t >= 1.0 - 1e-9
            if not at_start:
                total += c.form_inertia.n_plus
            if not at_end:
                total -= c.form_inertia.n_minus
        return total

    monkeypatch.setattr(lagidx.maslov, "index_from_crossings", swapped)
    report = run_light("maslov-zwz")
    assert not report.ok, "swapped endpoint conventions escaped the Maslov suite"


@pytest.mark.parametrize("mutant", [
    lambda pair, x1, y1, x2, y2: -pair(x1, y1, x2, y2),
    lambda pair, x1, y1, x2, y2: pair(x1, y1, y2, x2),
], ids=["negated", "blocks-swapped"])
def test_pairing_convention_is_caught(monkeypatch, mutant):
    original = lagidx.symplectic.frame_pairing
    holders = [module for name, module in sys.modules.items()
               if name.split(".")[0] == "lagidx"
               and getattr(module, "frame_pairing", None) is original]
    assert {m.__name__ for m in holders} >= {"lagidx.symplectic", "lagidx.planes", "lagidx.maslov",
                                             "lagidx.indices"}
    for module in holders:
        monkeypatch.setattr(module, "frame_pairing", lambda *blocks: mutant(original, *blocks))
    # the symplectic predicates and omega read the one pairing too
    assert not is_symplectic(random_symplectic(2, 0)), "mutated pairing escaped is_symplectic"
    assert omega([1, 0], [0, 1]) != 1, "mutated pairing escaped omega"
    assert not run_light("axioms").ok, "mutated pairing escaped the axiom suite"
    assert not run_light("maslov-zwz").ok, "mutated pairing escaped the Maslov suite"


def test_extremal_inequality_flip_is_caught(monkeypatch):
    assert run_light("extremal").ok
    original = lagidx.maslov.extremal_check

    def flipped(l0, l1, m, waypoints, tol):
        rec = original(l0, l1, m, waypoints, tol)
        return dataclasses.replace(rec, holds=rec.lhs == rec.rhs and rec.details["detour"] <= rec.rhs)

    monkeypatch.setattr(lagidx.maslov, "extremal_check", flipped)
    report = run_light("extremal")
    assert not report.ok, "a flipped extremal inequality escaped the extremal suite"
