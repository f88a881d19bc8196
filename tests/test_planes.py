import numpy as np
import pytest

from lagidx import (
    DualBasisFailure,
    NotHermitian,
    NotInjective,
    NotLagrangian,
    TolerancePolicy,
    LagrangianPlane,
    SingularEpsilon,
    ValidationError,
    apply_symplectic,
    epsilon_select,
    epsilon_small,
    graph_plane,
    horizontal_plane,
    inertia,
    intersection_dim,
    plane_from_frame,
    planes_equal,
    random_plane,
    random_plane_with_mul,
    random_symplectic,
    robin_map,
    transversal_companion,
    transversal_normalization,
    vertical_plane,
)
from lagidx.hermitian import random_hermitian
from lagidx.planes import principal_angles, robin_matrices, validate_frame


def test_graph_plane_and_canonical_form(tol):
    a = np.diag([1.0, -1.0])
    plane = graph_plane(a)
    # canonical frame is orthonormal and spans the same subspace
    z = plane.stacked
    assert np.allclose(z.conj().T @ z, np.eye(2), atol=1e-12)
    raw = plane_from_frame(np.eye(2), a)
    assert planes_equal(plane, raw)
    # contains (e1, e1) and (e2, -e2)
    v = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2)
    res = v - z @ (z.conj().T @ v)
    assert np.linalg.norm(res) < 1e-12


def test_plane_from_frame_preserves_span(rng, tol):
    for n in (1, 2, 4):
        a = random_hermitian(n, rng)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        plane = plane_from_frame(c, a @ c)  # frame of the graph, skew coordinates
        angles = principal_angles(plane, graph_plane(a))
        assert np.max(angles) <= tol.residual_tol


def test_frame_validation_errors():
    with pytest.raises(NotLagrangian):
        plane_from_frame(np.eye(2), 1j * np.eye(2))
    with pytest.raises(NotInjective):
        plane_from_frame(np.zeros((2, 2)), np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_graph_transversal_to_vertical(rng):
    for n in (1, 3):
        a = random_hermitian(n, rng)
        assert intersection_dim(graph_plane(a), vertical_plane(n)) == 0


def test_intersection_examples():
    n2 = horizontal_plane(2)
    assert intersection_dim(graph_plane(np.diag([1.0, 2.0])), graph_plane(np.diag([1.0, 3.0]))) == 1
    assert intersection_dim(horizontal_plane(1), vertical_plane(1)) == 0
    mixed = plane_from_frame(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert intersection_dim(n2, mixed) == 1


def test_intersection_symmetry_and_invariance(rng, tol):
    for n in (2, 3, 4):
        l1 = random_plane(n, rng)
        l2 = random_plane_with_mul(n, 1, rng)
        assert intersection_dim(l1, l2) == intersection_dim(l2, l1)
        s = random_symplectic(n, rng)
        assert intersection_dim(apply_symplectic(s, l1), apply_symplectic(s, l2)) == \
            intersection_dim(l1, l2)
        assert intersection_dim(l1, l1) == n


def test_robin_map_examples(tol):
    n = 2
    assert np.allclose(robin_map(horizontal_plane(n), 0.7).matrix, np.zeros((n, n)), atol=1e-12)
    r = robin_map(vertical_plane(n), 0.25).matrix
    assert np.allclose(r, 4.0 * np.eye(n), atol=1e-9)
    a = np.array([[1.5, 0.3 - 1j], [0.3 + 1j, -0.7]])
    assert np.allclose(robin_map(graph_plane(a), 0.0).matrix, a, atol=1e-9)


def test_robin_hermitian_identity(rng, tol):
    # (X + eY)* R (X + eY) = X*Y + e Y*Y on the canonical frame
    for n in (1, 2, 5):
        plane = random_plane(n, rng)
        eps = epsilon_select([plane], tol, 5)
        r = robin_map(plane, eps, tol).matrix
        t = plane.x + eps * plane.y
        lhs = t.conj().T @ r @ t
        rhs = plane.x.conj().T @ plane.y + eps * plane.y.conj().T @ plane.y
        assert np.linalg.norm(lhs - rhs) <= tol.residual_tol


def test_robin_frame_independence(rng, tol):
    for n in (2, 3):
        plane = random_plane(n, rng)
        eps = epsilon_select([plane], tol, 6)
        base = robin_map(plane, eps, tol).matrix
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        re_framed = plane_from_frame(plane.x @ c, plane.y @ c, tol)
        other = robin_map(re_framed, eps, tol).matrix
        assert np.linalg.norm(base - other) <= tol.residual_tol * max(1.0, np.linalg.norm(base))


def test_robin_map_refuses_an_x_plus_eps_y_of_rounding_noise(rng, tol):
    # graph(U (-2I) U*) has X + 0.5 Y = 0 exactly, so in floats it is
    # rounding noise: its singular-value ratio is small, but its
    # count-rule rank is 0.
    for n in (2, 3, 4, 6):
        for _ in range(5):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u, _ = np.linalg.qr(g)
            plane = graph_plane(u @ (-2.0 * np.eye(n)) @ u.conj().T)
            with pytest.raises(SingularEpsilon):
                robin_map(plane, 0.5, tol)


def test_epsilon_select(tol):
    assert epsilon_select([horizontal_plane(2)], tol, 0) > 0
    assert epsilon_select([vertical_plane(2)], tol, 0) > 0
    skew = plane_from_frame(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    eps = epsilon_select([skew], tol, 0)
    assert eps > 0  # the only bad value is 0 since det(X + eY) = e
    # determinism
    assert epsilon_select([skew], tol, 17) == epsilon_select([skew], tol, 17)


def test_robin_matrices_pair_matches_single_epsilons(rng, tol):
    for n in (1, 3, 6):
        planes = [random_plane(n, rng) for _ in range(3)]
        e1 = epsilon_select(planes, tol, n)
        e2 = epsilon_select(planes, tol, n + 1, avoid=(e1,))
        pair = robin_matrices(planes, (e1, e2), tol)
        assert pair.shape == (2, 3, n, n)
        assert np.array_equal(pair[0], robin_matrices(planes, e1, tol))
        assert np.array_equal(pair[1], robin_matrices(planes, e2, tol))
    # A plane built directly from a frame that is not Lagrangian: the pair
    # raises the error of its first epsilon, word for word.
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(np.vstack([np.eye(2), g]))
    broken = [LagrangianPlane(q[:2], q[2:])]
    with pytest.raises(SingularEpsilon) as single:
        robin_matrices(broken, 0.5, tol)
    with pytest.raises(SingularEpsilon) as pair:
        robin_matrices(broken, (0.5, 0.25), tol)
    assert str(pair.value) == str(single.value)


def test_epsilon_small_positivity(rng, tol):
    for n in (1, 2, 3):
        planes = [random_plane(n, rng), random_plane_with_mul(n, 1, rng)]
        eps = epsilon_small(planes, tol)
        for p in planes:
            r = robin_map(p, eps, tol).matrix
            assert inertia(np.eye(n) / eps - r, tol).n_minus == 0


def test_random_plane_reproducible(tol):
    p1 = random_plane(3, 99)
    p2 = random_plane(3, 99)
    assert planes_equal(p1, p2)
    assert np.allclose(p1.stacked, p2.stacked)


def test_random_plane_with_mul(rng):
    for n in (2, 3, 4):
        for m in range(n + 1):
            plane = random_plane_with_mul(n, m, rng)
            assert intersection_dim(plane, vertical_plane(n)) == m


def test_transversal_companion(tol):
    g0 = horizontal_plane(2)
    comp = transversal_companion([g0], tol, 1)
    assert intersection_dim(comp, g0) == 0
    comp = transversal_companion([horizontal_plane(1), vertical_plane(1)], tol, 2)
    assert intersection_dim(comp, horizontal_plane(1)) == 0
    assert intersection_dim(comp, vertical_plane(1)) == 0
    planes = [random_plane(3, s) for s in (10, 11, 12)]
    comp = transversal_companion(planes, tol, 3)
    assert all(intersection_dim(comp, p) == 0 for p in planes)


def test_graph_plane_validates_its_matrix():
    with pytest.raises(ValidationError):
        graph_plane(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotHermitian):
        graph_plane(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        graph_plane(np.zeros((0, 0)))


def test_companion_frames_are_valid(rng, tol):
    # A loose count rule rejects many candidates, so both graph and
    # swapped-graph candidates come back; their frames are built without
    # validation and must pass it.
    loose = TolerancePolicy(rank_rel_tol=0.3)
    for trial in range(40):
        n = 1 + trial % 5
        planes = [random_plane(n, rng) for _ in range(3)]
        comp = transversal_companion(planes, loose, rng)
        validate_frame(comp.x, comp.y, tol)
        assert np.allclose(comp.stacked.conj().T @ comp.stacked, np.eye(n), atol=1e-12)
        assert all(intersection_dim(comp, p, loose) == 0 for p in planes)


def test_transversal_normalization_sends_pair_to_axes(rng, tol):
    for n in (1, 2, 4):
        la = random_plane(n, rng)
        lb = transversal_companion([la], tol, rng)
        z = transversal_normalization(la, lb, tol)
        s = np.linalg.inv(z)
        assert planes_equal(apply_symplectic(s, la, tol), horizontal_plane(n))
        assert planes_equal(apply_symplectic(s, lb, tol), vertical_plane(n))


def test_transversal_normalization_refuses_a_plane_against_itself(rng, tol):
    # P(L, L) is zero up to rounding: its count-rule rank of 0 must refuse
    # it even though the ratio of its noise singular values is small.
    for n in (1, 2, 3, 4, 6):
        for _ in range(5):
            plane = random_plane(n, rng)
            with pytest.raises(DualBasisFailure):
                transversal_normalization(plane, plane, tol)


def test_transversal_normalization_agrees_with_intersection_dim(tol):
    # The pairing has singular values (0.5, 5e-10): s_max / s_min < 1e9,
    # but the count rule drops 5e-10, so the planes meet in a line and no
    # symplectic basis (which would have norm 2e9) may be returned.
    la, lb = horizontal_plane(2), graph_plane(np.diag([5e-10, 0.5]))
    assert intersection_dim(la, lb, tol) == 1
    with pytest.raises(DualBasisFailure):
        transversal_normalization(la, lb, tol)
