import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import lagidx.hermitian
import lagidx.indices
import lagidx.relations
from lagidx import (
    DualBasisFailure,
    LagidxError,
    LagrangianPlane,
    NotInvertible,
    SelectionFailed,
    SingularEpsilon,
    TransversalityViolated,
    ValidationError,
    coboundary,
    duistermaat,
    duistermaat_graphs,
    duistermaat_omega,
    duistermaat_reduce,
    duistermaat_relation_vertical,
    duistermaat_robin,
    graph_plane,
    haynsworth_check,
    hermitian_part,
    horizontal_plane,
    index_via_resolvent_difference,
    inertia,
    kashiwara,
    morse_difference_invertible,
    morse_difference_kernel,
    morse_sum_invertible,
    omega_form,
    plane_from_frame,
    planes_equal,
    random_plane,
    robin_map,
    vertical_plane,
)
from lagidx.hermitian import random_hermitian
from lagidx.planes import transversal_companion, transversal_normalization


def scalar_graph(s):
    return graph_plane(np.array([[float(s)]]))


# Six orderings of distinct scalars and the boundary case A = B.
TRUTH_TABLE = [
    ((0, 1, 2), 0),  # A <= B <= C
    ((1, 2, 0), 0),  # C < A <= B
    ((2, 0, 1), 0),  # B <= C < A
    ((0, 2, 1), 1),  # A <= C < B
    ((1, 0, 2), 1),  # B < A <= C
    ((2, 1, 0), 1),  # C < B < A
    ((1, 1, 0), 0),  # A = B
]


@pytest.mark.parametrize("scalars, expected", TRUTH_TABLE)
def test_truth_table_all_methods(scalars, expected):
    planes = tuple(scalar_graph(s) for s in scalars)
    for method in ("omega", "robin", "reduce", "closed_form"):
        assert duistermaat(*planes, method=method, seed=7).value == expected
    a, b, c = (np.array([[float(s)]]) for s in scalars)
    assert duistermaat_graphs(a, b, c) == expected


def test_method_table():
    # `lagidx index --cross-check` reports the other methods in this order.
    assert list(lagidx.indices.METHODS) == ["robin", "omega", "reduce", "closed_form"]
    planes = tuple(scalar_graph(s) for s in (0, 2, 1))
    for method in ("nope", "closed-form", ["omega"], None):
        with pytest.raises(ValidationError, match="unknown method"):
            duistermaat(*planes, method=method)


def test_normalization(rng):
    for n in range(1, 5):
        a = random_hermitian(n, rng)
        triple = (horizontal_plane(n), graph_plane(a), vertical_plane(n))
        expected = inertia(a).n_minus
        assert duistermaat_omega(*triple).value == expected
        assert duistermaat_robin(*triple, seed=1).value == expected
        assert duistermaat_reduce(*triple, seed=1).value == expected


def test_omega_form_example():
    # (G_0, G_1, G_inf) in n=1: W has exactly one negative eigenvalue and
    # the index is 0
    w = omega_form(scalar_graph(0), scalar_graph(1), vertical_plane(1))
    assert w.shape == (3, 3)
    assert inertia(w).n_minus == 1
    assert duistermaat_omega(scalar_graph(0), scalar_graph(1), vertical_plane(1)).value == 0
    assert duistermaat_omega(scalar_graph(0), scalar_graph(-1), vertical_plane(1)).value == 1


def test_special_values(rng):
    from lagidx import intersection_dim

    n = 3
    l, m = random_plane(n, rng), random_plane(n, rng)
    assert duistermaat_omega(l, l, m).value == 0
    assert duistermaat_omega(m, l, l).value == 0
    assert duistermaat_omega(l, m, l).value == n - intersection_dim(l, m)


def test_robin_reports_epsilons(rng):
    triple = tuple(random_plane(2, rng) for _ in range(3))
    report = duistermaat_robin(*triple, seed=11)
    assert report.method == "robin"
    assert report.epsilon_used is not None
    assert report.epsilon_used != report.diagnostics["epsilon_second"]
    assert report.value == duistermaat_omega(*triple).value


def test_selection_ignores_the_seed(rng):
    # robin and reduce accept a seed and do not use it: their auxiliary
    # epsilons and companion are closed-form, and each report carries the
    # margin by which its selection cleared the count-rule cutoff.
    triple = tuple(random_plane(3, rng) for _ in range(3))
    for method in ("robin", "reduce"):
        reports = [duistermaat(*triple, method=method, seed=seed)
                   for seed in (None, 5, np.random.default_rng(5))]
        assert all(r == reports[0] for r in reports)
        assert reports[0].value == duistermaat_omega(*triple).value
        assert reports[0].diagnostics["selection_margin"] > 1


def test_robin_index_takes_no_epsilon():
    # A single forced epsilon near the bad set can give a wrong index
    # without any error, so every Robin index comes from the two selected
    # epsilons and their agreement check.
    triple = (scalar_graph(-2), scalar_graph(0), scalar_graph(1))
    with pytest.raises(TypeError):
        duistermaat_robin(*triple, epsilon=0.5)
    with pytest.raises(TypeError):
        duistermaat(*triple, method="robin", epsilon=0.5)


def test_robin_forced_singular_epsilon():
    # robin_map is given its epsilon, so it keeps the count-rule rank
    # check: the canonical frame of graph(-2) has X + Y / 2 = 0 exactly.
    with pytest.raises(SingularEpsilon):
        robin_map(graph_plane([[-2.0]]), 0.5)
    # X + 0.5 Y has singular values (0.354, 5.0e-10): s_max / s_min < 1e9,
    # but the count rule drops 5.0e-10, so the map would have norm 1.8e9.
    with pytest.raises(SingularEpsilon):
        robin_map(graph_plane(np.diag([-2.0 * (1.0 - 1.12e-9), -1.0])), 0.5)


def _near_cutoff():
    """The module scripts/near_cutoff.py: its family builder and scoreboard."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "near_cutoff.py"
    spec = importlib.util.spec_from_file_location("near_cutoff", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_near_cutoff_family_at_a_wide_gap():
    # The family builder of scripts/near_cutoff.py, far from the cutoff:
    # A = Q diag(1e-3, -1e-3, 1) Q*, so every method must give 1.
    near_cutoff = _near_cutoff()
    for seed in range(3):
        triple = near_cutoff.near_cutoff_triple(seed, 1e-3)
        for method in ("omega", "robin", "reduce"):
            assert duistermaat(*triple, method=method, seed=seed).value == 1


# The two known silent wrong answers of the near-cutoff family at width
# 1e-8, whose exact index is 1.  Each test holds the contract "the right
# integer or a typed LagidxError", so it passes once a run-time check
# turns the wrong answer into an error.


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="reduce returns 0 on near-cutoff seed 99 at width 1e-8; ROADMAP "
                   "item 15 (nullity cross-checks) turns it into a typed error")
def test_reduce_is_right_or_typed_on_near_cutoff_seed_99():
    triple = _near_cutoff().near_cutoff_triple(99, 1e-8)
    try:
        value = duistermaat_reduce(*triple).value
    except LagidxError:
        return
    assert value == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the Kashiwara correspondence gives no integer on near-cutoff seed 54 "
                   "at width 1e-8, as its signature is 0; ROADMAP item 15 (nullity "
                   "cross-checks) turns it into a typed error")
def test_kashiwara_is_right_or_typed_on_near_cutoff_seed_54():
    near_cutoff = _near_cutoff()
    triple = near_cutoff.near_cutoff_triple(54, 1e-8)
    try:
        value = near_cutoff.kashiwara_index(*triple)
    except LagidxError:
        return
    assert value == 1


def test_reduce_agrees_with_omega(rng):
    for trial in range(25):
        n = 1 + trial % 4
        triple = tuple(random_plane(n, rng) for _ in range(3))
        assert duistermaat_reduce(*triple, seed=trial).value == duistermaat_omega(*triple).value


def test_reduction_graphs_match_normalization(rng, tol):
    # The closed form B(La, W) = P(La, W) P(L4, W)^-1 P(L4, La) against the
    # graph of Z^-1 W, Z the symplectic basis sending the axes to (La, L4).
    worst = 0.0
    for n in range(1, 7):
        triple = tuple(random_plane(n, rng) for _ in range(3))
        # Two distinct companions: that of the triple, and that of the
        # triple together with the first companion.
        first, _ = transversal_companion(triple, tol)
        second, _ = transversal_companion(triple + (first,), tol)
        assert not planes_equal(first, second, tol)
        for l4 in (first, second):
            graphs = lagidx.indices._reduction_graphs(triple, l4, tol)
            for b, (a, w) in zip(graphs, ((0, 1), (0, 2), (1, 2))):
                z = transversal_normalization(triple[a], l4, tol)
                xy = np.linalg.solve(z, triple[w].stacked)
                ref = hermitian_part(xy[n:] @ np.linalg.inv(xy[:n]))
                worst = max(worst, np.linalg.norm(b - ref) / np.linalg.norm(ref))
    assert worst < 1e-10


def test_reduce_failure_is_typed(rng, monkeypatch):
    # A middle plane built past the constructors from a frame that is not
    # Lagrangian makes the graph matrices asymmetric: the one companion
    # fails with DualBasisFailure, no other is tried and no value is
    # returned.  The companion itself is not swapped out: its pairings are
    # taken in closed form for the scalar plane it always is.
    real_companion, calls = lagidx.indices.transversal_companion, []
    monkeypatch.setattr(lagidx.indices, "transversal_companion",
                        lambda planes, tol: calls.append(planes) or real_companion(planes, tol))
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
    with pytest.raises(SelectionFailed) as info:
        duistermaat_reduce(random_plane(3, rng), LagrangianPlane(q[:3], q[3:]), random_plane(3, rng), seed=0)
    assert isinstance(info.value.__cause__, DualBasisFailure)
    assert len(calls) == 1


@pytest.mark.parametrize("seed", range(40))
def test_reduce_singular_companion_pairing_is_typed(seed, monkeypatch):
    # A companion that meets the middle plane, L2 = (cos 1 U; sin 1 U) against
    # (cos 1 I; sin 1 I), makes the pairing G_2 singular; on many seeds
    # LAPACK finds it exactly singular in the solve, which must end in a
    # typed error and not in numpy's LinAlgError.
    n, c, s = 3, np.cos(1.0), np.sin(1.0)
    companion = LagrangianPlane(c * np.eye(n, dtype=complex), s * np.eye(n, dtype=complex))
    monkeypatch.setattr(lagidx.indices, "transversal_companion", lambda planes, tol: (companion, 1.0))
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    with pytest.raises(LagidxError):
        duistermaat_reduce(random_plane(n, rng), LagrangianPlane(c * u, s * u), random_plane(n, rng))


def test_cocycle_property(rng):
    for n in (1, 2, 3):
        quad = [random_plane(n, rng) for _ in range(4)]
        assert coboundary(lambda a, b, c: duistermaat_omega(a, b, c).value, quad) == 0


def test_coboundary_squares_to_zero(rng):
    # the closed form is itself a coboundary, so its coboundary vanishes
    n = 2
    mats = [random_hermitian(n, rng) for _ in range(4)]
    pair = lambda x, y: inertia(y - x).n_minus
    tri = lambda a, b, c: coboundary(pair, [a, b, c])
    assert tri(*mats[:3]) == duistermaat_graphs(*mats[:3])
    assert coboundary(tri, mats) == 0


def test_kashiwara_examples(rng):
    assert kashiwara(scalar_graph(0), scalar_graph(1), scalar_graph(2)) == 1
    n = 2
    l, m = random_plane(n, rng), random_plane(n, rng)
    assert kashiwara(l, l, m) == 0
    s = kashiwara(l, m, horizontal_plane(n))
    assert abs(s) <= 3 * n


def test_relation_vertical_examples(rng):
    n = 2
    a = random_hermitian(n, rng)
    b = random_hermitian(n, rng)
    # with a graph, both orders reduce to Morse indices of a difference
    assert duistermaat_relation_vertical(a, graph_plane(b), "graph_first") == \
        inertia(b - a).n_minus
    # vertical plane: domain is trivial
    assert duistermaat_relation_vertical(a, vertical_plane(n), "graph_first") == 0
    assert duistermaat_relation_vertical(a, vertical_plane(n), "plane_first") == n
    # mixed plane with negative operator part
    plane = plane_from_frame(np.diag([1.0, 0.0]), np.diag([-2.0, 1.0]))
    assert duistermaat_relation_vertical(np.zeros((2, 2)), plane, "graph_first") == 1


def test_morse_difference_invertible():
    rec = morse_difference_invertible(np.diag([1.0, -1.0]), np.diag([2.0, 1.0]))
    assert rec.holds and rec.lhs == rec.rhs == 1
    rec = morse_difference_invertible(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    assert rec.holds and rec.lhs == 0
    rec = morse_difference_invertible(np.array([[1.0]]), np.array([[-1.0]]))
    assert rec.holds and rec.lhs == -1
    with pytest.raises(NotInvertible):
        morse_difference_invertible(np.diag([1.0, 0.0]), np.eye(2))


def test_morse_difference_kernel_cases():
    rec = morse_difference_kernel(np.diag([1.0, 0.0]), np.diag([-1.0, 0.0]), "kerA_in_kerB")
    assert rec.holds and rec.lhs == 0
    # invertible pairs reduce to the invertible identity in either case
    a, b = np.diag([1.0, -2.0]), np.diag([3.0, 1.0])
    for case in ("kerA_in_kerB", "kerB_in_kerA"):
        rec = morse_difference_kernel(a, b, case)
        assert rec.holds
    # equal singular matrices: both sides vanish
    s = np.diag([1.0, 0.0])
    rec = morse_difference_kernel(s, s, "kerA_in_kerB")
    assert rec.holds and rec.lhs == 0
    from lagidx import InclusionViolated

    with pytest.raises(InclusionViolated):
        morse_difference_kernel(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), "kerA_in_kerB")


def test_morse_sum():
    rec = morse_sum_invertible(np.eye(2), np.eye(2))
    assert rec.holds and rec.lhs == 0
    rec = morse_sum_invertible(np.array([[1.0]]), np.array([[-1.0]]))
    assert rec.holds and rec.lhs == rec.rhs == 1
    rec = morse_sum_invertible(np.diag([1.0, 2.0]), np.diag([-3.0, 1.0]))
    assert rec.holds


def test_resolvent_difference():
    assert index_via_resolvent_difference(scalar_graph(2), scalar_graph(1), scalar_graph(0)) == 1
    l = random_plane(2, 5)
    assert index_via_resolvent_difference(l, l, graph_plane(random_hermitian(2, np.random.default_rng(1)))) == 0
    with pytest.raises(TransversalityViolated):
        index_via_resolvent_difference(scalar_graph(0), scalar_graph(1), vertical_plane(1))


def test_haynsworth():
    rec = haynsworth_check(np.eye(2), np.eye(2))
    assert rec.holds and rec.details["n_minus_block"] == 0
    rec = haynsworth_check(np.array([[1.0]]), np.array([[2.0]]))
    assert rec.holds
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = random_hermitian(3, rng) + 0.2 * np.eye(3)
        b = random_hermitian(3, rng) - 0.1 * np.eye(3)
        if inertia(a).n_zero or inertia(b).n_zero:
            continue
        rec = haynsworth_check(a, b)
        assert rec.holds
        # the two expansions re-derive the invertible difference identity
        assert morse_difference_invertible(a, b).holds


MORSE_FORMULAS = {
    "invertible-difference": morse_difference_invertible,
    "kernel-case-1": lambda a, b: morse_difference_kernel(a, b, "kerA_in_kerB"),
    "kernel-case-2": lambda a, b: morse_difference_kernel(b, a, "kerB_in_kerA"),
    "sum-invertible": morse_sum_invertible,
    "haynsworth": haynsworth_check,
}


def shared_kernel_pair(rng):
    """4 x 4 Hermitian A and B in one unitary basis with ker A inside
    ker B: A has a kernel of dimension 1 and B one of dimension 2."""
    v, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    da = np.array([1.5, -0.7, 0.9, 0.0])
    db = np.array([0.4, -1.1, 0.0, 0.0])
    return v @ np.diag(da) @ v.conj().T, v @ np.diag(db) @ v.conj().T


def test_one_validation_and_one_eigh_per_input(monkeypatch):
    # Each input is validated once and decomposed by one eigh, from which
    # its inertia, kernel, range, inverse and pseudoinverse are all read;
    # every derived matrix takes one eigvalsh.  No SVD and no inv.
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    checked = counted("as_hermitian", lagidx.hermitian.as_hermitian)
    for module in (lagidx.hermitian, lagidx.indices, lagidx.relations):
        monkeypatch.setattr(module, "as_hermitian", checked)
    rng = np.random.default_rng(17)
    a, b = shared_kernel_pair(rng)
    invertible = (random_hermitian(4, rng) + 0.1 * np.eye(4), random_hermitian(4, rng) - 0.1 * np.eye(4))
    for name, formula in MORSE_FORMULAS.items():
        calls.clear()
        rec = formula(*((a, b) if name.startswith("kernel") else invertible))
        assert rec.holds
        derived = 4 if name == "haynsworth" else 2
        assert calls == {"as_hermitian": 2, "eigh": 2, "eigvalsh": derived}, name


def test_morse_formulas_refuse_unequal_shapes():
    for formula in MORSE_FORMULAS.values():
        with pytest.raises(ValidationError, match=r"Morse formula: matrix shapes \(\d, \d\), \(\d, \d\) differ"):
            formula(np.eye(2), np.eye(3))


def test_index_report_bounds_guard(rng):
    report = duistermaat_omega(*(random_plane(4, rng) for _ in range(3)))
    assert 0 <= report.value <= 4
    # A plane built directly, past the validating constructors, with a
    # NaN entry: the index is replaced by a typed error, never a value.
    good = random_plane(2, rng)
    x = good.x.copy()
    x[0, 0] = np.nan
    broken = LagrangianPlane(x, good.y)
    others = (random_plane(2, rng), random_plane(2, rng))
    with pytest.raises(LagidxError):
        duistermaat_omega(broken, *others)
    with pytest.raises(LagidxError):
        kashiwara(*others, broken)
    # A plane built directly from a frame that is not Lagrangian, in each
    # position: the reduction sees the asymmetry of its graph matrices and
    # raises instead of symmetrizing it away.  B(L1, L3) does not involve
    # L2, so a broken L1 or L2 shows first in B(L1, L2), a broken L3 in
    # B(L1, L3), and the error names that matrix.
    first_broken = ("B(L1, L2)", "B(L1, L2)", "B(L1, L3)")
    for n in (1, 2, 3, 6):
        for position in range(3):
            triple = [random_plane(n, rng) for _ in range(3)]
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(np.vstack([np.eye(n), g]))
            triple[position] = LagrangianPlane(q[:n], q[n:])
            with pytest.raises(SelectionFailed) as info:
                duistermaat_reduce(*triple, seed=position)
            assert isinstance(info.value.__cause__, DualBasisFailure)
            assert str(info.value.__cause__).startswith(f"{first_broken[position]} asymmetry ")
