import numpy as np
import pytest

from lagidx import (
    apply_symplectic,
    compress,
    decompose,
    difference,
    graph_plane,
    horizontal_plane,
    intersection_dim,
    inverse,
    planes_equal,
    random_plane,
    random_plane_with_mul,
    vertical_plane,
)
from lagidx.hermitian import random_hermitian
from lagidx.planes import validate_frame
from lagidx.relations import reconstruct


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
    n = 3
    for _ in range(10):
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
        for other in (graph_plane(random_hermitian(n, rng)), random_plane(n, rng)):
            if intersection_dim(other, vertical_plane(n), tol):
                continue
            d = difference(plane, other, tol)
            validate_frame(d.x, d.y, tol)
            assert np.allclose(d.stacked.conj().T @ d.stacked, np.eye(n), atol=1e-12)


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
