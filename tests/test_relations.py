import numpy as np
import pytest

from lagidx import (
    ValidationError,
    apply_symplectic,
    compress,
    LagrangianPlane,
    decompose,
    difference,
    direct_sum_planes,
    graph_plane,
    horizontal_plane,
    intersection_dim,
    inverse,
    planes_equal,
    random_plane,
    random_plane_with_mul,
    vertical_plane,
)
from lagidx.hermitian import count_above_cutoff, kernel_basis, random_hermitian
from lagidx.planes import validate_frame
from lagidx.relations import RelationParts, reconstruct


def test_decompose_graph(tol):
    a = np.array([[2.0, 1j], [-1j, 0.5]])
    parts = decompose(graph_plane(a), tol)
    assert np.allclose(parts.dom_projector, np.eye(2), atol=1e-10)
    assert np.allclose(parts.operator_part, a, atol=1e-10)
    assert parts.mul_dim == 0


def test_decompose_vertical(tol):
    parts = decompose(vertical_plane(3), tol)
    assert np.allclose(parts.dom_projector, np.zeros((3, 3)), atol=1e-12)
    assert np.allclose(parts.operator_part, np.zeros((3, 3)), atol=1e-12)
    assert parts.mul_dim == 3


def test_decompose_mixed(tol):
    # span{(e1, c e1), (0, e2)}: domain e1, operator part diag(c, 0), mul part e2
    c = -3.0
    from lagidx import plane_from_frame

    plane = plane_from_frame(np.diag([1.0, 0.0]), np.diag([c, 1.0]), tol)
    parts = decompose(plane, tol)
    assert np.allclose(parts.dom_projector, np.diag([1.0, 0.0]), atol=1e-10)
    assert np.allclose(parts.operator_part, np.diag([c, 0.0]), atol=1e-10)
    assert parts.mul_dim == 1


def test_decompose_reconstruct_roundtrip(rng, tol):
    for n in (1, 2, 4):
        for m in (0, 1, n):
            plane = random_plane_with_mul(n, m, rng, tol)
            parts = decompose(plane, tol)
            assert parts.mul_dim == m == intersection_dim(plane, vertical_plane(n), tol)
            assert planes_equal(reconstruct(parts, tol), plane, tol)
            # operator part is supported on the domain
            p = parts.dom_projector
            assert np.allclose(p @ parts.operator_part @ p, parts.operator_part, atol=1e-9)


@pytest.mark.parametrize("parts,message", [
    (RelationParts(np.eye(2), np.eye(3), 0), "matrix shapes"),  # operator part of another size
    (RelationParts(np.diag([1.0, 0.0]), np.zeros((2, 2)), 1.0), "mul_dim must be an integer"),
    (RelationParts(np.diag([1.0, 0.5]), np.zeros((2, 2)), 1), "domain projector is not idempotent"),
    (RelationParts(np.diag([1.0, 0.0]), np.zeros((2, 2)), 0), "mul_dim 0 does not match the projector rank"),
], ids=["operator-shape", "float-mul-dim", "not-a-projector", "mul-dim-off-the-rank"])
def test_reconstruct_refuses_malformed_parts(parts, message, tol):
    with pytest.raises(ValidationError, match=message):
        reconstruct(parts, tol)


def test_difference_of_graphs(rng, tol):
    a = random_hermitian(3, rng)
    b = random_hermitian(3, rng)
    assert planes_equal(difference(graph_plane(a), graph_plane(b), tol), graph_plane(a - b), tol)


def test_difference_identities(rng, tol):
    n = 3
    plane = random_plane_with_mul(n, 1, rng, tol)
    assert planes_equal(difference(plane, horizontal_plane(n), tol), plane, tol)
    a = random_hermitian(n, rng)
    assert planes_equal(difference(vertical_plane(n), graph_plane(a), tol), vertical_plane(n), tol)


def test_difference_matches_shear_action(rng, tol):
    # subtracting a graph plane acts like the shear [[I, 0], [-A, I]]
    for n in [3] * 10 + [32] * 2:
        plane = random_plane(n, rng)
        a = random_hermitian(n, rng)
        shear = np.block([[np.eye(n), np.zeros((n, n))], [-a, np.eye(n)]])
        via_shear = apply_symplectic(shear, plane, tol)
        assert planes_equal(difference(plane, graph_plane(a), tol), via_shear, tol)


def test_difference_frames_are_valid(rng, tol):
    # The difference plane is built without validation and must pass it.
    for trial in range(30):
        n = 1 + trial % 5
        plane = random_plane_with_mul(n, trial % (n + 1), rng, tol)
        others = (graph_plane(random_hermitian(n, rng)), random_plane(n, rng),
                  random_plane_with_mul(n, 1 + trial % n, rng, tol))
        for other in others:
            d = difference(plane, other, tol)
            validate_frame(d.x, d.y, tol)
            assert np.allclose(d.stacked.conj().T @ d.stacked, np.eye(n), atol=1e-12)


def _difference_by_kernel(l, m, tol):
    # Reference route: the pairs (s, t) with X_L s = X_M t form the kernel
    # of [X_L, -X_M], and their images (X_L s, Y_L s - Y_M t) span L - M.
    n = l.n
    pairs = kernel_basis(np.hstack([l.x, -m.x]), tol)
    s_part, t_part = pairs[:n], pairs[n:]
    vecs = np.vstack([l.x @ s_part, l.y @ s_part - m.y @ t_part])
    u, sv, _ = np.linalg.svd(vecs, full_matrices=False)
    assert count_above_cutoff(sv, tol) == n
    return LagrangianPlane(u[:n, :n], u[n:, :n])


def _assert_difference_matches_kernel_route(l, m, tol):
    d = difference(l, m, tol)
    validate_frame(d.x, d.y, tol)
    assert np.allclose(d.stacked.conj().T @ d.stacked, np.eye(l.n), atol=1e-12)
    assert planes_equal(d, _difference_by_kernel(l, m, tol), tol)
    return d


@pytest.mark.parametrize("n", range(1, 7))
def test_difference_of_non_graphs_matches_kernel_route(n, rng, tol):
    vertical = vertical_plane(n)
    for k in range(1, n + 1):
        m = random_plane_with_mul(n, k, rng, tol)
        for l in (random_plane(n, rng), random_plane_with_mul(n, n - k, rng, tol),
                  graph_plane(random_hermitian(n, rng))):
            _assert_difference_matches_kernel_route(l, m, tol)
        # L - vertical is vertical for every L.
        d = _assert_difference_matches_kernel_route(random_plane_with_mul(n, k - 1, rng, tol), vertical, tol)
        assert planes_equal(d, vertical, tol)
        # Shared multivalued parts: mul L ∩ mul M holds 0 + C^k, so the
        # stacked frame has more than n columns.
        if k < n:
            l = direct_sum_planes(vertical_plane(k), random_plane(n - k, rng))
            m = direct_sum_planes(vertical_plane(k), random_plane_with_mul(n - k, (n - k) // 2, rng, tol))
            _assert_difference_matches_kernel_route(l, m, tol)
    assert planes_equal(_assert_difference_matches_kernel_route(vertical, vertical, tol), vertical, tol)


def test_inverse(rng, tol):
    a = np.diag([2.0, -0.5])
    assert planes_equal(inverse(graph_plane(a)), graph_plane(np.diag([0.5, -2.0])), tol)
    assert planes_equal(inverse(horizontal_plane(3)), vertical_plane(3), tol)
    plane = random_plane_with_mul(4, 2, rng, tol)
    assert planes_equal(inverse(inverse(plane)), plane, tol)


def test_compress(tol):
    a = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert np.allclose(compress(a, np.eye(2), tol), a)
    assert np.allclose(compress(a, np.zeros((2, 2)), tol), np.zeros((2, 2)))
    assert np.allclose(compress(a, np.diag([1.0, 0.0]), tol), np.diag([1.0, 0.0]))
    # A projector of another size is a validation error, not a matmul error.
    from lagidx import ValidationError

    with pytest.raises(ValidationError, match=r"compress: matrix shapes \(2, 2\), \(3, 3\) differ"):
        compress(a, np.eye(3), tol)


def test_compress_rejects_non_projector(tol):
    from lagidx import ValidationError

    with pytest.raises(ValidationError):
        compress(np.eye(2), np.diag([2.0, 0.0]), tol)
