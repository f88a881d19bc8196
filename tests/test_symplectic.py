import os
import subprocess
import sys

import numpy as np
import pytest

import lagidx

from lagidx import (
    ValidationError,
    apply_symplectic,
    direct_sum_maps,
    direct_sum_planes,
    horizontal_plane,
    is_antisymplectic,
    is_symplectic,
    omega,
    plane_from_frame,
    plane_from_stacked,
    planes_equal,
    random_plane,
    random_symplectic,
    standard_form,
    swap_map,
    vertical_plane,
)
from lagidx.hermitian import random_hermitian
from lagidx.symplectic import _PADE13


def test_omega_basis_pairs():
    assert omega([1, 0], [0, 1]) == pytest.approx(1.0)
    assert omega([0, 1], [1, 0]) == pytest.approx(-1.0)
    # real vectors pair to an exactly real form value with themselves
    u = np.array([0.3, -1.2, 0.7, 2.0])
    assert omega(u, u) == pytest.approx(0.0)


def test_omega_matches_matrix_form(rng):
    for n in range(1, 7):
        j = standard_form(n)
        for _ in range(10):
            u = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            v = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            assert omega(u, v) == pytest.approx(complex(u.conj() @ j @ v))


def test_omega_skew_hermitian(rng):
    for n in range(1, 7):
        for _ in range(100):
            u = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            v = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            assert abs(omega(v, u) + np.conj(omega(u, v))) <= 1e-12
    assert abs(omega(u, u).real) <= 1e-12  # diagonal values are purely imaginary


def test_omega_dimension_mismatch():
    with pytest.raises(ValidationError):
        omega([1, 0], [1, 0, 0, 0])


def test_is_symplectic_examples(rng):
    assert is_symplectic(np.eye(6))
    a = random_hermitian(3, rng)
    shear = np.block([[np.eye(3), np.zeros((3, 3))], [a, np.eye(3)]])
    assert is_symplectic(shear)
    assert not is_symplectic(np.diag([2.0, 1.0]))


def test_random_symplectic_property():
    for n in range(1, 7):
        for seed in range(100):
            s = random_symplectic(n, seed)
            assert is_symplectic(s)
    # |det S| = 1 follows from S* J S = J
    s = random_symplectic(3, 123)
    assert abs(np.linalg.det(s)) == pytest.approx(1.0, abs=1e-9)
    # A bad dimension is refused before anything is drawn from the stream.
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    for n in (0, -1):
        for draw in (random_symplectic, random_plane):
            with pytest.raises(ValidationError):
                draw(n, rng)
    assert rng.bit_generator.state == state


def test_random_symplectic_matches_the_reference_exponential():
    import scipy.linalg  # the reference only; the package itself never loads scipy

    for n, seeds in [*((n, 40) for n in range(1, 9)), (16, 10), (32, 4)]:
        for seed in range(seeds):
            # The same draw and rescaling as random_symplectic.
            h = random_hermitian(2 * n, np.random.default_rng(seed))
            h *= min(1.0, 1.5 / np.linalg.norm(h, 2))
            ref = scipy.linalg.expm(standard_form(n) @ h)
            s = random_symplectic(n, seed)
            assert np.linalg.norm(s - ref) <= 1e-13 * np.linalg.norm(ref)
            assert is_symplectic(s)


def textbook_symplectic(n, rng):
    """The draw of random_symplectic written out as the textbook expression:
    a dense J times H, and solve(V - U, V + U) of the [13/13] Pade
    approximant with a dense identity."""
    h = random_hermitian(2 * n, rng)
    norm = np.linalg.norm(h, 2)
    if norm > 1.5:
        h *= 1.5 / norm
    a = standard_form(n) @ h
    b = _PADE13
    ident = np.eye(2 * n, dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return np.linalg.solve(v - u, v + u)


def test_seeded_draws_are_bit_identical_to_the_textbook_expressions():
    swapped = 0
    for n in (1, 2, 3, 6, 16, 32):
        for seed in range(5):
            ref = textbook_symplectic(n, np.random.default_rng(seed))
            assert random_symplectic(n, seed).tobytes() == ref.tobytes()
            rng = np.random.default_rng(seed)
            z = textbook_symplectic(n, rng)[:, :n]
            if rng.random() < 0.5:
                z = swap_map(n) @ z
                swapped += 1
            ref_plane, plane = plane_from_stacked(z), random_plane(n, seed)
            assert plane.x.tobytes() == ref_plane.x.tobytes()
            assert plane.y.tobytes() == ref_plane.y.tobytes()
    assert 0 < swapped < 30


def test_symplectic_group_closure(rng):
    for n in (1, 2, 3):
        s1 = random_symplectic(n, rng)
        s2 = random_symplectic(n, rng)
        assert is_symplectic(s1 @ s2)
        assert is_symplectic(np.linalg.inv(s1))


def test_swap_map():
    s = swap_map(2)
    assert is_antisymplectic(s)
    assert np.allclose(s @ s, np.eye(4))
    # swapping a graph frame (I; A) gives (A; I)
    a = np.diag([2.0, -1.0])
    frame = np.vstack([np.eye(2), a])
    swapped = s @ frame
    assert np.allclose(swapped[:2], a)
    assert np.allclose(swapped[2:], np.eye(2))


def test_anti_composed_with_symplectic_is_anti(rng):
    s = swap_map(3) @ random_symplectic(3, rng)
    assert is_antisymplectic(s)
    assert not is_symplectic(s)


def test_direct_sums(rng):
    assert np.allclose(direct_sum_maps(np.eye(2), np.eye(4)), np.eye(6))
    assert np.allclose(direct_sum_maps(swap_map(1), swap_map(2)), swap_map(3))
    s = direct_sum_maps(random_symplectic(2, rng), random_symplectic(3, rng))
    assert is_symplectic(s)


def test_direct_sums_of_planes_and_of_maps_interleave_alike(rng):
    # direct_sum_planes and direct_sum_maps share one row interleaving:
    # the sum of the images of horizontal planes is the image of the
    # horizontal plane under the sum of the maps.
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            s1, s2 = random_symplectic(a, rng), random_symplectic(b, rng)
            planes = direct_sum_planes(apply_symplectic(s1, horizontal_plane(a)),
                                       apply_symplectic(s2, horizontal_plane(b)))
            maps = apply_symplectic(direct_sum_maps(s1, s2), horizontal_plane(a + b))
            assert planes_equal(planes, maps)
    # vertical(1) + horizontal(2) has X = diag(0, 1, 1) and Y = diag(1, 0, 0):
    # the image of horizontal(3) under the swap on the first factor
    mixed = direct_sum_planes(vertical_plane(1), horizontal_plane(2))
    assert planes_equal(mixed, apply_symplectic(direct_sum_maps(swap_map(1), np.eye(4)),
                                                horizontal_plane(3)))
    assert planes_equal(mixed, plane_from_frame(np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 0.0, 0.0])))


def test_import_does_not_load_scipy_linalg():
    # A fresh interpreter, so modules imported by other tests do not count.
    # Neither the import, nor a random plane (exp(J H) is taken without
    # scipy), nor a verify run may load any scipy module.
    src = os.path.dirname(os.path.dirname(lagidx.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, lagidx\n"
            "def scipy_loaded(): return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
            "print(scipy_loaded())\n"
            "lagidx.random_plane(3, 0)\n"
            "print(scipy_loaded())\n"
            "from lagidx.cli import main\n"
            "code = main(['verify', '--suite', 'kashiwara', '--n', '1..3', '--trials', '3'])\n"
            "print(code, scipy_loaded())\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    lines = out.stdout.strip().splitlines()
    assert lines[:2] == ["False", "False"]
    assert lines[-1] == "0 False"
