import numpy as np
import pytest

import lagidx.indices
from lagidx import (
    DualBasisFailure,
    LagidxError,
    LagrangianPlane,
    NotInvertible,
    SelectionFailed,
    SingularEpsilon,
    TransversalityViolated,
    coboundary,
    duistermaat,
    duistermaat_graphs,
    duistermaat_omega,
    duistermaat_reduce,
    duistermaat_relation_vertical,
    duistermaat_robin,
    epsilon_select,
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
    transversal_companion,
    transversal_normalization,
    vertical_plane,
)
from lagidx.hermitian import random_hermitian


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


def test_robin_generator_seed(rng):
    # A Generator seed draws both epsilons from its stream in turn.
    triple = tuple(random_plane(3, rng) for _ in range(3))
    report = duistermaat_robin(*triple, seed=np.random.default_rng(5))
    stream = np.random.default_rng(5)
    eps1 = epsilon_select(triple, seed=stream)
    eps2 = epsilon_select(triple, seed=stream, avoid=(eps1,))
    assert (report.epsilon_used, report.diagnostics["epsilon_second"]) == (eps1, eps2)
    assert report.value == duistermaat_omega(*triple).value


def test_robin_forced_singular_epsilon():
    # The canonical frame of graph(-2) has X + Y / 2 = 0 exactly.
    with pytest.raises(SingularEpsilon):
        duistermaat_robin(scalar_graph(-2), scalar_graph(0), scalar_graph(1), epsilon=0.5)
    # robin_map is given its epsilon too, so it keeps the count-rule rank
    # check.
    with pytest.raises(SingularEpsilon):
        robin_map(graph_plane([[-2.0]]), 0.5)
    # X + 0.5 Y has singular values (0.354, 5.0e-10): s_max / s_min < 1e9,
    # but the count rule drops 5.0e-10, so the map would have norm 1.8e9.
    with pytest.raises(SingularEpsilon):
        robin_map(graph_plane(np.diag([-2.0 * (1.0 - 1.12e-9), -1.0])), 0.5)


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
        graph_companion = transversal_companion(triple, tol, n)
        # The same seed draws the same first candidate, which now fails
        # against itself, so the swapped second candidate is returned.
        swapped_companion = transversal_companion(triple + (graph_companion,), tol, n)
        assert not planes_equal(graph_companion, swapped_companion, tol)
        for l4 in (graph_companion, swapped_companion):
            graphs = lagidx.indices._reduction_graphs(triple, l4, tol)
            for b, (a, w) in zip(graphs, ((0, 1), (0, 2), (1, 2))):
                z = transversal_normalization(triple[a], l4, tol)
                xy = np.linalg.solve(z, triple[w].stacked)
                ref = hermitian_part(xy[n:] @ np.linalg.inv(xy[:n]))
                worst = max(worst, np.linalg.norm(b - ref) / np.linalg.norm(ref))
    assert worst < 1e-10


def test_reduce_failure_is_typed(rng, monkeypatch):
    # A companion equal to L2 makes its pairing with L2 zero up to rounding,
    # so the graph matrices come out asymmetric: the one companion fails
    # with DualBasisFailure and no value is returned.
    triple = tuple(random_plane(3, rng) for _ in range(3))
    monkeypatch.setattr(lagidx.indices, "transversal_companion", lambda planes, tol, rng: planes[1])
    with pytest.raises(SelectionFailed) as info:
        duistermaat_reduce(*triple, seed=0)
    assert isinstance(info.value.__cause__, DualBasisFailure)


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
    # raises instead of symmetrizing it away.
    for n in (1, 2, 3, 6):
        for position in range(3):
            triple = [random_plane(n, rng) for _ in range(3)]
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(np.vstack([np.eye(n), g]))
            triple[position] = LagrangianPlane(q[:n], q[n:])
            with pytest.raises(SelectionFailed) as info:
                duistermaat_reduce(*triple, seed=position)
            assert isinstance(info.value.__cause__, DualBasisFailure)
