from lagidx import DegenerateCrossing, verify


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


def test_retry_degenerate_redraws_then_reports():
    calls = []

    def always_degenerate():
        calls.append(None)
        raise DegenerateCrossing("degenerate sample")

    ok, details = verify._retry_degenerate(always_degenerate)
    assert not ok
    assert details == {"error": "degenerate sample"}
    assert len(calls) == verify._DEGENERATE_RETRIES + 1


def test_decompose_reconstruct_check():
    # The one relations check that no acceptance criterion runs.
    assert verify.run_check("decompose-reconstruct", (1, 2, 3), 4, seed=3) == []
