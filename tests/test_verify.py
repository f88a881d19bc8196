import pytest

from lagidx import DegenerateCrossing, ValidationError, verify


def test_shrinker_draws_children_of_the_failing_trial(monkeypatch):
    # A check that fails for every n >= 2.  The n = 4 failure shrinks to
    # n = 2; its re-samples must extend the failing trial's entropy, not
    # repeat main-loop trial 0 at n = 2, which is already in the report.
    def fails_from_two(n, rng, tol):
        return n < 2, {"draw": float(rng.random())}

    monkeypatch.setitem(verify._CHECK_FNS, "bounds", fails_from_two)
    failures = verify.run_check("bounds", [2, 4], 1, seed=7)
    at = {f.n: f for f in failures}
    assert sorted(at) == [2, 4]
    assert at[2].minimized is None  # n = 1 always passes
    shrunk = at[4].minimized
    assert shrunk["n"] == 2
    assert shrunk["seed_entropy"] != at[2].seed_entropy
    assert shrunk["seed_entropy"] == at[4].seed_entropy + [2, 0]


def test_redrawn_check_redraws_then_reports():
    calls = []

    @verify._redrawn
    def always_degenerate(n, rng, tol):
        calls.append(None)
        raise DegenerateCrossing("degenerate sample")

    ok, details = always_degenerate(1, None, None)
    assert not ok
    assert details == {"error": "degenerate sample"}
    assert len(calls) == verify._DEGENERATE_RETRIES + 1


# A grid with no dimension or no trial would report ok with nothing run;
# a negative seed or a dimension of 0 would end in numpy's ValueError.
BAD_GRIDS = {
    "trials-0": {"trials": 0},
    "trials--2": {"trials": -2},
    "trials-2.5": {"trials": 2.5},
    "no-dimension": {"n_values": []},
    "dimension-0": {"n_values": [0]},
    "seed--1": {"seed": -1},
    "seed-str": {"seed": "a"},
}


@pytest.mark.parametrize("entry", ["run_check", "run_suite"])
@pytest.mark.parametrize("name", sorted(BAD_GRIDS))
def test_runs_that_would_check_nothing_raise_validation_error(entry, name):
    grid = {"n_values": [1], "trials": 1, "seed": 0} | BAD_GRIDS[name]
    first = "bounds" if entry == "run_check" else "axioms"
    with pytest.raises(ValidationError, match=f"^{entry}: "):
        getattr(verify, entry)(first, **grid)


def test_decompose_reconstruct_check():
    # The one relations check that no acceptance criterion runs.
    assert verify.run_check("decompose-reconstruct", (1, 2, 3), 4, seed=3) == []


def test_check_ids_are_pinned():
    # Every seeded trial draws from SeedSequence([seed, check_id, n, trial]),
    # so renumbering a check would move its whole stream.
    names = [
        "normalization", "symplectic-invariance", "cocycle", "bounds", "method-agreement",
        "special-values", "swap12", "swap23", "swap13", "cyclic-shifts", "additivity",
        "antisymplectic",
        "subtraction", "inversion", "graph-plane-vertical", "plane-graph-vertical",
        "decompose-reconstruct", "resolvent-difference",
        "signature-correspondence", "form-nullity",
        "closed-form", "truth-table", "morse-general",
        "invertible-difference", "kernel-case-1", "kernel-case-2", "sum-invertible", "haynsworth",
        "minimal-path", "zhou-wu-zhu", "segment-oracle", "endpoint-conventions",
        "extremal-inequality",
        "omega-factorization",
    ]
    assert len(names) == 34
    assert verify._CHECK_IDS == {name: i for i, name in enumerate(names)}
    assert list(verify._CHECK_IDS) == names
