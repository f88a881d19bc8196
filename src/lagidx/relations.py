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
    _as_dimension,
    _as_finite_matrix,
    _as_projector,
    _same_shape,
    as_hermitian,
    count_above_cutoff,
    hermitian_part,
    kernel_basis,
)
from .planes import LagrangianPlane, _same_dimension, plane_from_frame, trusted_plane


@dataclass(frozen=True)
class RelationParts:
    """Domain projector, operator part (supported on the domain) and the
    dimension of the multivalued part."""

    dom_projector: np.ndarray
    operator_part: np.ndarray
    mul_dim: int


def _graph_split(plane: LagrangianPlane, tol: TolerancePolicy) -> tuple[int, np.ndarray, np.ndarray]:
    """One SVD of X: its count-rule rank r, its left singular vectors U
    (the first r span the domain, the rest the multivalued part) and
    Y X^+, with the pseudoinverse X^+ = V_r S_r^-1 U_r* taken from it."""
    u, s, vh = np.linalg.svd(plane.x)
    r = count_above_cutoff(s, tol)
    x_pinv = vh[:r].conj().T @ (u[:, :r].conj().T / s[:r, None])
    return r, u, plane.y @ x_pinv


def _operator_part(u: np.ndarray, r: int, y_xpinv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The domain projector P = U_r U_r* and the operator part
    P Y X^+ P, both symmetrized, from :func:`_graph_split`."""
    ur = u[:, :r]
    p = hermitian_part(ur @ ur.conj().T)
    return p, hermitian_part(p @ y_xpinv @ p)


def decompose(plane: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> RelationParts:
    """Split a plane into (domain projector, operator part, mul dimension).

    The domain is the column space of the X block; the operator part is
    P Y X^+ compressed to the domain and symmetrized, with the
    pseudoinverse X^+ = V_r S_r^-1 U_r* taken from the same SVD.
    """
    n = _same_dimension("decompose", plane=plane)
    r, u, y_xpinv = _graph_split(plane, tol)
    p, op = _operator_part(u, r, y_xpinv)
    return RelationParts(p, op, n - r)


def reconstruct(parts: RelationParts, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Plane {(x, Lx + y) : x in dom, y in mul} rebuilt from its parts."""
    p = _as_projector(parts.dom_projector, tol, "domain projector")
    op = _as_finite_matrix(parts.operator_part, "operator part")
    _same_shape((p, op), "reconstruct")
    mul_dim = _as_dimension(parts.mul_dim, "reconstruct: mul_dim", 0)
    w, v = np.linalg.eigh(p)
    u_mul = v[:, w < 0.5]
    u_dom = v[:, w >= 0.5]
    if u_mul.shape[1] != mul_dim:
        raise ValidationError(f"reconstruct: mul_dim {mul_dim} does not match the projector rank")
    n = p.shape[0]
    x = np.hstack([u_dom, np.zeros((n, mul_dim))])
    y = np.hstack([op @ u_dom, u_mul])
    return plane_from_frame(x, y, tol)


def difference(l: LagrangianPlane, m: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """The relation difference L - M = {(u, v_L - v_M)} of two planes.

    M splits as the graph of its operator part A = P Y_M X_M^+ P over
    its domain, plus its multivalued part mul M = dom M^perp (the same
    SVD of X_M as :func:`decompose`).  Hence

        L - M = S_A (L ∩ (dom M + C^n)) + (0 + mul M),

    with the symplectic shear S_A = [[I, 0], [-A, I]].  When M is a graph
    (X_M of full count-rule rank), L ∩ (dom M + C^n) is all of L and the
    frame (X_L; Y_L - A X_L) is injective and Lagrangian by construction,
    so it is only orthonormalized.  Otherwise N, the kernel basis of
    U_mul* X_L, spans the pairs of L over dom M, and the stacked frame
    [[X_L N, 0], [(Y_L - A X_L) N, U_mul]] spans the difference; its
    columns outnumber n exactly when mul L and mul M meet, so its first
    n left singular vectors are the canonical frame, after a count-rule
    check that it has rank n (RankDeficient otherwise).
    """
    n = _same_dimension("difference", l=l, m=m)
    r, u, y_xpinv = _graph_split(m, tol)
    if r == n:
        z = np.empty((2 * n, n), dtype=complex)
        z[:n] = l.x
        np.matmul(hermitian_part(y_xpinv), l.x, out=z[n:])
        np.subtract(l.y, z[n:], out=z[n:])
        return trusted_plane(z)
    _, a = _operator_part(u, r, y_xpinv)
    u_mul = u[:, r:]
    pairs = kernel_basis(u_mul.conj().T @ l.x, tol)
    k = pairs.shape[1]
    z = np.zeros((2 * n, k + n - r), dtype=complex)
    z[:n, :k] = l.x @ pairs
    z[n:, :k] = l.y @ pairs - a @ z[:n, :k]
    z[n:, k:] = u_mul
    q, sv, _ = np.linalg.svd(z, full_matrices=False)
    rank = count_above_cutoff(sv, tol)
    if rank != n:
        raise RankDeficient(f"difference span has rank {rank}, expected {n}")
    return LagrangianPlane(q[:n, :n], q[n:, :n])


def inverse(plane: LagrangianPlane) -> LagrangianPlane:
    """The relation inverse {(v, u) : (u, v) in L}: swap the frame blocks."""
    _same_dimension("inverse", plane=plane)
    return LagrangianPlane(plane.y.copy(), plane.x.copy())


def compress(a, p, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Compression P A P of a Hermitian matrix to the range of a projector."""
    am = as_hermitian(a, tol, "matrix to compress")
    pm = _as_projector(p, tol, "projector")
    _same_shape((am, pm), "compress")
    return hermitian_part(pm @ am @ pm)
