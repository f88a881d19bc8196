"""Lagrangian planes read as self-adjoint linear relations.

A plane L splits into a domain (the first-component projection), an
operator part acting on that domain, and a multivalued part equal to the
orthogonal complement of the domain.  The operator part is stored as an
n x n matrix supported on the domain, so Morse-index counts stay on C^n
with the zero padding made explicit through ``mul_dim``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, ValidationError
from .hermitian import (
    DEFAULT_TOL,
    TolerancePolicy,
    _as_projector,
    _same_shape,
    as_hermitian,
    count_above_cutoff,
    hermitian_part,
    kernel_basis,
)
from .planes import LagrangianPlane, _same_dimension, plane_from_frame


@dataclass(frozen=True)
class RelationParts:
    """Domain projector, operator part (supported on the domain) and the
    dimension of the multivalued part."""

    dom_projector: np.ndarray
    operator_part: np.ndarray
    mul_dim: int


def decompose(plane: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> RelationParts:
    """Split a plane into (domain projector, operator part, mul dimension).

    The domain is the column space of the X block; the operator part is
    P Y X^+ compressed to the domain and symmetrized, with the
    pseudoinverse X^+ = V_r S_r^-1 U_r* taken from the same SVD.
    """
    u, s, vh = np.linalg.svd(plane.x)
    r = count_above_cutoff(s, tol)
    ur = u[:, :r]
    p = hermitian_part(ur @ ur.conj().T)
    x_pinv = vh[:r].conj().T @ (ur.conj().T / s[:r, None])
    op = hermitian_part(p @ (plane.y @ x_pinv) @ p)
    return RelationParts(p, op, plane.n - r)


def reconstruct(parts: RelationParts, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Plane {(x, Lx + y) : x in dom, y in mul} rebuilt from its parts."""
    p = as_hermitian(parts.dom_projector, tol, "domain projector")
    w, v = np.linalg.eigh(p)
    if np.any(np.abs(w * (1.0 - w)) > tol.residual_tol):
        raise ValidationError("dom_projector is not a projector")
    u_mul = v[:, w < 0.5]
    u_dom = v[:, w >= 0.5]
    if u_mul.shape[1] != parts.mul_dim:
        raise ValidationError("mul_dim does not match the projector rank")
    n = p.shape[0]
    x = np.hstack([u_dom, np.zeros((n, parts.mul_dim))])
    y = np.hstack([parts.operator_part @ u_dom, u_mul])
    return plane_from_frame(x, y, tol)


def difference(l: LagrangianPlane, m: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """The relation difference {(u, vL - vM)} of two planes.

    Pairs (s, t) with X_L s = X_M t form the kernel of [X_L, -X_M]; each
    pair maps to the vector (X_L s, Y_L s - Y_M t), and the span of those
    images is the difference plane.  The first n left singular vectors
    are its canonical frame: orthonormal already, injective by the rank
    check and Lagrangian because both planes are, so the frame is neither
    validated nor orthonormalized again.
    """
    n = _same_dimension((l, m), "difference")[0].n
    pairs = kernel_basis(np.hstack([l.x, -m.x]), tol)
    s_part, t_part = pairs[:n], pairs[n:]
    vecs = np.vstack([l.x @ s_part, l.y @ s_part - m.y @ t_part])
    u, sv, _ = np.linalg.svd(vecs, full_matrices=False)
    r = count_above_cutoff(sv, tol)
    if r != n:
        raise RankDeficient(f"difference span has rank {r}, expected {n}")
    return LagrangianPlane(u[:n, :n], u[n:, :n])


def inverse(plane: LagrangianPlane) -> LagrangianPlane:
    """The relation inverse {(v, u) : (u, v) in L}: swap the frame blocks."""
    return LagrangianPlane(plane.y.copy(), plane.x.copy())


def compress(a, p, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Compression P A P of a Hermitian matrix to the range of a projector."""
    am = as_hermitian(a, tol, "matrix to compress")
    pm = _as_projector(p, tol, "projector")
    _same_shape((am, pm), "compress")
    return hermitian_part(pm @ am @ pm)
