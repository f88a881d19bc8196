import numpy as np
import pytest

from lagidx import (
    DualBasisFailure,
    NotHermitian,
    NotInjective,
    NotLagrangian,
    TolerancePolicy,
    LagrangianPlane,
    SelectionFailed,
    SingularEpsilon,
    ValidationError,
    apply_symplectic,
    direct_sum_planes,
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
    vertical_plane,
)
from lagidx.hermitian import random_hermitian
from lagidx.planes import (
    _candidate_angles,
    epsilon_select,
    frame_pairing,
    pairing_matrix,
    robin_matrices,
    transversal_companion,
    transversal_normalization,
    validate_frame,
)


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


def principal_angles(l1, l2):
    """Principal angles between the two subspaces of C^2n, through their
    sines (singular values of the projection onto the orthogonal
    complement), which stays accurate for tiny angles."""
    z1, z2 = l1.stacked, l2.stacked
    s = np.linalg.svd(z2 - z1 @ (z1.conj().T @ z2), compute_uv=False)
    return np.arcsin(np.clip(s, 0.0, 1.0))


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


def test_frame_pairing_stacks_and_vanishes_on_lagrangian_frames(rng, tol):
    for n in (1, 3):
        planes = [random_plane(n, rng) for _ in range(4)]
        m = random_plane_with_mul(n, 1, rng)
        xs, ys = np.stack([p.x for p in planes]), np.stack([p.y for p in planes])
        stacked = frame_pairing(m.x, m.y, xs, ys)
        assert stacked.shape == (4, n, n)
        for k, p in enumerate(planes):
            assert np.allclose(stacked[k], pairing_matrix(m, p), rtol=0.0, atol=1e-14)
        assert np.allclose(frame_pairing(xs, ys, xs[::-1], ys[::-1]),
                           [pairing_matrix(p, q) for p, q in zip(planes, planes[::-1])],
                           rtol=0.0, atol=1e-14)
        for p in (*planes, m):
            assert np.linalg.norm(frame_pairing(p.x, p.y, p.x, p.y)) <= tol.residual_tol
        self_pairings = frame_pairing(xs, ys, xs, ys)
        assert np.linalg.norm(self_pairings, axis=(-2, -1)).max() <= tol.residual_tol


def test_robin_map_examples(tol):
    n = 2
    assert np.allclose(robin_map(horizontal_plane(n), 0.7), np.zeros((n, n)), atol=1e-12)
    r = robin_map(vertical_plane(n), 0.25)
    assert np.allclose(r, 4.0 * np.eye(n), atol=1e-9)
    a = np.array([[1.5, 0.3 - 1j], [0.3 + 1j, -0.7]])
    assert np.allclose(robin_map(graph_plane(a), 0.0), a, atol=1e-9)


def test_robin_hermitian_identity(rng, tol):
    # (X + eY)* R (X + eY) = X*Y + e Y*Y on the canonical frame
    for n in (1, 2, 5):
        plane = random_plane(n, rng)
        eps, _, _ = epsilon_select([plane], tol)
        r = robin_map(plane, eps, tol)
        t = plane.x + eps * plane.y
        lhs = t.conj().T @ r @ t
        rhs = plane.x.conj().T @ plane.y + eps * plane.y.conj().T @ plane.y
        assert np.linalg.norm(lhs - rhs) <= tol.residual_tol


def test_robin_frame_independence(rng, tol):
    for n in (2, 3):
        plane = random_plane(n, rng)
        eps, _, _ = epsilon_select([plane], tol)
        base = robin_map(plane, eps, tol)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        re_framed = plane_from_frame(plane.x @ c, plane.y @ c, tol)
        other = robin_map(re_framed, eps, tol)
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
    top = np.arctan(1.1)
    # Horizontal and vertical planes put no zero of X + eps Y inside
    # (0, arctan 1.1], so the one gap gives its two quarter points.
    for plane in (horizontal_plane(2), vertical_plane(2)):
        eps1, eps2, margin = epsilon_select([plane], tol)
        assert np.allclose((eps1, eps2), np.tan([top / 4, 3 * top / 4]), rtol=1e-12)
        assert margin > 1
    # graph(-2) has X + eps Y = 0 at eps = 1/2, phi = arctan(1/2): the gaps
    # (0, arctan 1/2) and (arctan 1/2, arctan 1.1) are both wide enough,
    # so the epsilons are their midpoints, the wider gap first.
    mid = np.arctan(0.5)
    eps1, eps2, _ = epsilon_select([graph_plane([[-2.0]])], tol)
    assert np.allclose((eps1, eps2), np.tan([mid / 2, (mid + top) / 2]), rtol=1e-12)
    skew = plane_from_frame(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    eps1, eps2, _ = epsilon_select([skew], tol)
    assert 0 < eps1 <= 1.1 and 0 < eps2 <= 1.1 and eps1 != eps2
    assert epsilon_select([skew], tol) == epsilon_select([skew], tol)


def test_candidate_angles_contain_the_souriau_eigenangles(rng):
    # The candidates {a_j, pi - a_j} must contain every half-angle of the
    # eigenvalues of (X + iY)(X - iY)^-1, taken here by np.linalg.eigvals.
    def planes(n):
        yield horizontal_plane(n)
        yield vertical_plane(n)
        for _ in range(4):
            yield random_plane(n, rng)
            yield random_plane_with_mul(n, int(rng.integers(0, n + 1)), rng)

    for n in range(1, 7):
        for plane in planes(n):
            w = np.linalg.solve((plane.x - 1j * plane.y).T, (plane.x + 1j * plane.y).T).T
            half = np.mod(np.angle(np.linalg.eigvals(w)) / 2, np.pi)
            cand = _candidate_angles([plane], "test")[0]
            gap = np.abs(half[:, None] - cand[None, :])
            assert np.min(np.minimum(gap, np.pi - gap), axis=1).max() < 1e-7


def _floor_triples(rng):
    """Generic, multivalued, shared-factor and exact structured triples."""
    for n in range(1, 7):
        for _ in range(5):
            yield tuple(random_plane(n, rng) for _ in range(3))
            yield tuple(random_plane_with_mul(n, int(rng.integers(0, n + 1)), rng) for _ in range(3))
            if n > 1:
                k = int(rng.integers(1, n))
                shared = random_plane(k, rng)
                yield (direct_sum_planes(shared, random_plane(n - k, rng)),
                       direct_sum_planes(shared, random_plane(n - k, rng)), random_plane(n, rng))
        h, v, g = horizontal_plane(n), vertical_plane(n), graph_plane(-2.0 * np.eye(n))
        yield h, g, v
        yield h, h, h
        yield v, v, g
        yield g, g, h
        if n > 1:
            h1, v1 = horizontal_plane(1), vertical_plane(1)
            yield (direct_sum_planes(h1, vertical_plane(n - 1)),
                   direct_sum_planes(v1, horizontal_plane(n - 1)),
                   direct_sum_planes(h1, graph_plane(-np.eye(n - 1))))


def test_selection_floors(rng, tol):
    # Both choices keep a guaranteed distance from every zero: every
    # X + eps Y has sigma_min >= sin(arctan(1.1) / (4(6n + 1))), and every
    # companion pairing sigma_min >= sin(pi / (12n)).
    for triple in _floor_triples(rng):
        n = triple[0].n
        eps1, eps2, _ = epsilon_select(triple, tol)
        robin_floor = np.sin(np.arctan(1.1) / (4 * (6 * n + 1)))
        for eps in (eps1, eps2):
            assert 0 < eps <= 1.1
            for p in triple:
                assert np.linalg.svd(p.x + eps * p.y, compute_uv=False)[-1] >= robin_floor - 1e-12
        l4, _ = transversal_companion(triple, tol)
        for p in triple:
            assert np.linalg.svd(pairing_matrix(l4, p), compute_uv=False)[-1] >= np.sin(np.pi / (12 * n)) - 1e-12


def test_robin_matrices_pair_matches_single_epsilons(rng, tol):
    for n in (1, 3, 6):
        planes = [random_plane(n, rng) for _ in range(3)]
        e1, e2, _ = epsilon_select(planes, tol)
        pair = robin_matrices(planes, (e1, e2), tol)
        assert pair.shape == (2, 3, n, n)
        assert np.array_equal(pair[0], robin_matrices(planes, (e1,), tol)[0])
        assert np.array_equal(pair[1], robin_matrices(planes, (e2,), tol)[0])
    # A plane built directly from a frame that is not Lagrangian: the pair
    # raises the error of its first epsilon, word for word.
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(np.vstack([np.eye(2), g]))
    broken = [LagrangianPlane(q[:2], q[2:])]
    with pytest.raises(SingularEpsilon) as single:
        robin_matrices(broken, (0.5,), tol)
    with pytest.raises(SingularEpsilon) as pair:
        robin_matrices(broken, (0.5, 0.25), tol)
    assert str(pair.value) == str(single.value)


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
    # The candidate angles of the horizontal plane all sit at 0 (mod pi),
    # so the widest gap is the whole circle and the companion is vertical.
    comp, margin = transversal_companion([horizontal_plane(2)], tol)
    assert planes_equal(comp, vertical_plane(2))
    assert margin > 1
    # Angles 0 and pi/2: the first widest gap gives phi = pi/4, graph(1).
    comp, _ = transversal_companion([horizontal_plane(1), vertical_plane(1)], tol)
    assert planes_equal(comp, graph_plane([[1.0]]))
    planes = [random_plane(3, s) for s in (10, 11, 12)]
    comp, _ = transversal_companion(planes, tol)
    assert all(intersection_dim(comp, p) == 0 for p in planes)
    assert transversal_companion(planes, tol)[0].stacked.tobytes() == comp.stacked.tobytes()


def test_graph_plane_validates_its_matrix():
    with pytest.raises(ValidationError):
        graph_plane(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotHermitian):
        graph_plane(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        graph_plane(np.zeros((0, 0)))


def test_companion_frames_are_valid(rng, tol):
    # Under a loose count rule the floor sin(pi / (12n)) can fall below the
    # cutoff: the companion is then refused with a typed error, and never
    # returned when it is not transversal.  A returned frame is built
    # without validation and must pass it.
    loose = TolerancePolicy(rank_rel_tol=0.3)
    refused = 0
    for trial in range(40):
        n = 1 + trial % 5
        planes = [random_plane(n, rng) for _ in range(3)]
        try:
            comp, margin = transversal_companion(planes, loose)
        except SelectionFailed:
            refused += 1
            continue
        assert margin > 1
        validate_frame(comp.x, comp.y, tol)
        assert np.allclose(comp.stacked.conj().T @ comp.stacked, np.eye(n), atol=1e-12)
        assert all(intersection_dim(comp, p, loose) == 0 for p in planes)
    assert 0 < refused < 40


def test_transversal_normalization_sends_pair_to_axes(rng, tol):
    for n in (1, 2, 4):
        la = random_plane(n, rng)
        lb, _ = transversal_companion([la], tol)
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
