"""Lagrangian planes as canonicalized frames.

A plane is stored through a frame (X; Y), a 2n x n injective matrix whose
columns span the subspace; the plane is Lagrangian exactly when X*Y is
Hermitian.  Construction orthonormalizes the stacked frame, and all later
queries (intersection dimension, Robin maps, pairings) run on the
canonical frame so that frame-dependent quantities are well defined.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import (
    DualBasisFailure,
    NotInjective,
    NotLagrangian,
    SelectionFailed,
    SingularEpsilon,
    ValidationError,
)
from .hermitian import (
    DEFAULT_TOL,
    TolerancePolicy,
    _as_dimension,
    _as_finite_matrix,
    _as_rng,
    as_hermitian,
    checked_hermitian_part,
    count_above_cutoff,
    cutoff_margin,
    hermitian_part,
    random_hermitian,
    rank,
)
from .symplectic import _embedding_indices, frame_pairing, random_symplectic, standard_form, swap_map

# Robin epsilons are tan(phi) for phi in (0, arctan 1.1], that is eps in (0, 1.1].
_ROBIN_PHI_MAX = float(np.arctan(1.1))


class LagrangianPlane:
    """An n-dimensional Lagrangian subspace of C^n + C^n.

    Instances hold a canonical frame: the stacked 2n x n matrix (X; Y)
    with orthonormal columns.  Use :func:`plane_from_frame` or the graph
    constructors instead of instantiating directly.
    """

    __slots__ = ("n", "x", "y")

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x
        self.y = y
        self.n = x.shape[0]

    @property
    def stacked(self) -> np.ndarray:
        """The 2n x n canonical frame."""
        return np.vstack([self.x, self.y])

    def __repr__(self):  # pragma: no cover
        return f"LagrangianPlane(n={self.n})"


def validate_frame(x, y, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Check the frame invariants; return the validated (X, Y) pair.

    Raises NotInjective when the stacked matrix is rank deficient and
    NotLagrangian when X*Y - Y*X is too large.
    """
    xm = _as_finite_matrix(x, "frame")
    ym = _as_finite_matrix(y, "frame")
    if xm.shape != ym.shape or xm.shape[0] != xm.shape[1]:
        raise ValidationError(f"frame blocks must be square and matching, got {xm.shape} and {ym.shape}")
    if xm.shape[0] < 1:
        raise ValidationError("frames need dimension at least 1")
    _check_frames(xm[None], ym[None], tol)
    return xm, ym


def _check_frames(xs: np.ndarray, ys: np.ndarray, tol: TolerancePolicy) -> None:
    """Refuse stacks of finite n x n frame blocks in which some frame
    (X; Y) is rank deficient (NotInjective) or has a Lagrangian residual
    ||X*Y - Y*X|| above residual_tol * (||X|| ||Y|| + 1) (NotLagrangian).

    Callers: :func:`validate_frame`, and ``maslov.custom_path`` for the
    piece midpoints it builds from frames that passed validate_frame."""
    ranks = count_above_cutoff(np.linalg.svd(np.concatenate([xs, ys], axis=-2), compute_uv=False), tol)
    if min(ranks) < xs.shape[-1]:
        raise NotInjective("frame columns are numerically dependent")
    residual, x_norm, y_norm = np.linalg.norm(np.stack([frame_pairing(xs, ys, xs, ys), xs, ys]), axis=(-2, -1))
    bound = tol.residual_tol * (x_norm * y_norm + 1.0)
    if (residual > bound).any():
        k = int(np.argmax(residual - bound))
        raise NotLagrangian(f"Lagrangian residual {residual[k]:.3e} exceeds {bound[k]:.3e}")


def trusted_plane(z: np.ndarray) -> LagrangianPlane:
    """Canonical form of the plane spanned by a 2n x n complex frame that
    is injective and Lagrangian by construction.

    It only orthonormalizes the frame, so it serves frames the library
    builds itself; input from outside goes through
    :func:`plane_from_frame`, which checks the frame first.
    """
    q, _ = np.linalg.qr(z)
    n = z.shape[1]
    return LagrangianPlane(q[:n], q[n:])


def plane_from_frame(x, y, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Validate a frame and return the spanned plane in canonical form."""
    xm, ym = validate_frame(x, y, tol)
    return trusted_plane(np.vstack([xm, ym]))


def plane_from_stacked(z, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Plane from a stacked 2n x n frame."""
    zm = _as_finite_matrix(z, "plane_from_stacked")
    if zm.shape[0] != 2 * zm.shape[1]:
        raise ValidationError(f"stacked frame must be 2n x n, got {zm.shape}")
    n = zm.shape[1]
    return plane_from_frame(zm[:n], zm[n:], tol)


def graph_plane(a, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Graph {(x, Ax)} of a Hermitian matrix.

    Once A passes ``as_hermitian``, the frame (I; A) is injective and
    exactly Lagrangian, so it is not checked again."""
    am = as_hermitian(a, tol, "graph matrix")
    if am.shape[0] < 1:
        raise ValidationError("frames need dimension at least 1")
    return trusted_plane(np.vstack([np.eye(am.shape[0]), am]))


def horizontal_plane(n: int) -> LagrangianPlane:
    """The plane C^n + 0, the graph of the zero matrix."""
    n = _as_dimension(n, "horizontal_plane: n")
    return LagrangianPlane(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))


def vertical_plane(n: int) -> LagrangianPlane:
    """The plane 0 + C^n (not a graph)."""
    n = _as_dimension(n, "vertical_plane: n")
    return LagrangianPlane(np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex))


def pairing_matrix(l1: LagrangianPlane, l2: LagrangianPlane) -> np.ndarray:
    """The n x n pairing X1*Y2 - Y1*X2 whose kernel represents L1 ∩ L2."""
    _same_dimension("pairing_matrix", l1=l1, l2=l2)
    return frame_pairing(l1.x, l1.y, l2.x, l2.y)


def intersection_dim(l1: LagrangianPlane, l2: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """dim(L1 ∩ L2), computed as the nullity of the frame pairing."""
    return _same_dimension("intersection_dim", l1=l1, l2=l2) - rank(frame_pairing(l1.x, l1.y, l2.x, l2.y), tol)


def planes_equal(l1: LagrangianPlane, l2: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Two planes are equal exactly when they intersect in full dimension."""
    return _same_dimension("planes_equal", l1=l1, l2=l2) == intersection_dim(l1, l2, tol)


def apply_symplectic(s, plane: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Image of a plane under a (anti)symplectic matrix, re-canonicalized."""
    sm = _as_finite_matrix(s, "apply_symplectic")
    n = _same_dimension("apply_symplectic", plane=plane)
    if sm.shape != (2 * n, 2 * n):
        raise ValidationError(f"map shape {sm.shape} does not match plane dimension {n}")
    return plane_from_stacked(sm @ plane.stacked, tol)


def _same_dimension(what: str, sequence=None, /, **planes) -> int:
    """The one check of plane arguments, made before any is read: each keyword
    names a parameter of the entry point ``what``, and ``sequence`` a pair
    (name, list or tuple of at least one plane), its entries named ``name[k]``.
    Returns the planes' one dimension n, else ValidationError."""
    if sequence is not None:
        name, entries = sequence
        if not (isinstance(entries, (list, tuple)) and entries):
            raise ValidationError(f"{what}: {name} must be a list or tuple of at least one plane, got {entries!r:.40}")
        planes |= {f"{name}[{k}]": p for k, p in enumerate(entries)}
    dims = set()
    for name, p in planes.items():
        if not isinstance(p, LagrangianPlane):
            raise ValidationError(f"{what}: {name} must be a LagrangianPlane, got {type(p).__name__}")
        dims.add(p.n)
    if len(dims) != 1:
        raise ValidationError(f"{what}: planes live in different dimensions" if dims else f"{what} needs a plane")
    return dims.pop()


def _candidate_angles(planes, what: str) -> np.ndarray:
    """Candidate Souriau angles of k planes of one dimension: a (k, 2n)
    array in [0, pi], the first n columns in [0, pi/2].

    The Souriau map (X + iY)(X - iY)^-1 of an orthonormal Lagrangian frame
    is unitary with eigenvalues e^{2i theta_j}, and it is similar to the
    normal matrix (X*X - Y*Y) + 2i X*Y.  Its Hermitian part
    X*X - Y*Y = 2 X*X - I therefore has the eigenvalues cos(2 theta_j),
    and X*X the eigenvalues cos^2(theta_j): one stacked ``eigvalsh`` of
    the X*X gives them.  Each theta_j (mod pi) is then a_j or pi - a_j,
    with a_j = arccos(|cos theta_j|) in [0, pi/2], and the candidates are
    both.
    """
    _same_dimension(what, ("planes", planes))
    xs = np.stack([p.x for p in planes])
    cos2 = np.linalg.eigvalsh(xs.conj().swapaxes(-1, -2) @ xs)
    a = np.arccos(np.minimum(np.sqrt(np.maximum(cos2, 0.0)), 1.0))
    return np.concatenate([a, np.pi - a], axis=-1)


def _selection_margin(values: np.ndarray, tol: TolerancePolicy, what: str) -> float:
    """The count-rule verdict on closed-form singular values, one set per
    matrix along the last axis: the smallest ratio of a set's least value
    to the set's cutoff.  A ratio of at most 1 raises SelectionFailed.

    The sets hold the values at every candidate angle, a superset of the
    true ones, so their least value is at most the true smallest singular
    value and their largest at least the true largest: a set that passes
    is a matrix of full count-rule rank."""
    margin = cutoff_margin(values, tol)
    if not margin > 1.0:
        raise SelectionFailed(f"{what}: closed-form margin {margin:.3g} does not clear the count-rule cutoff")
    return margin


def epsilon_select(planes, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[float, float, float]:
    """Two positive Robin epsilons at which X + eps Y has full count-rule
    rank for every plane, and the selection margin.

    With eps = tan(phi), X + eps Y has the singular values
    |cos(theta_j - phi)| / cos(phi), theta_j the Souriau angles of the
    plane, so its zeros are the phi = theta_j + pi/2 (mod pi).  The
    epsilons are taken in (0, 1.1], that is phi in (0, arctan 1.1]: each
    phi is the midpoint of one of the two widest gaps that the candidate
    zeros (2n per plane) leave in that interval, or, when the second gap
    is less than half as wide as the first, the two quarter points of the
    widest gap.  For m planes every phi then lies at least
    arctan(1.1) / (4(2mn + 1)) from every zero, and the smallest singular
    value is at least the sine of that distance.

    Returns ``(eps1, eps2, margin)``, margin as in :func:`_selection_margin`;
    a margin of at most 1 raises SelectionFailed.  No draw, SVD or retry.
    """
    theta = _candidate_angles(planes, "epsilon_select")
    # At most 2n zeros per plane: plain floats beat numpy calls at small n.
    zeros = np.mod(theta + np.pi / 2, np.pi).ravel().tolist()
    ends = [0.0, *sorted(z for z in zeros if 0.0 < z < _ROBIN_PHI_MAX), _ROBIN_PHI_MAX]
    gaps = sorted(((b - a, a) for a, b in zip(ends, ends[1:])), key=lambda gap: -gap[0])
    (w1, a1), (w2, a2) = gaps[0], (gaps[1:] or [(0.0, 0.0)])[0]
    if 2.0 * w2 >= w1:
        phi = np.array([a1 + w1 / 2, a2 + w2 / 2])
    else:
        phi = np.array([a1 + w1 * 0.25, a1 + w1 * 0.75])
    values = np.abs(np.cos(theta - phi[:, None, None])) / np.cos(phi)[:, None, None]
    margin = _selection_margin(values, tol, "epsilon selection")
    eps1, eps2 = np.tan(phi).tolist()
    return eps1, eps2, margin


def robin_map(plane: LagrangianPlane, epsilon: float, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Robin map R = Y (X + eps Y)^-1 of the canonical frame.

    Hermitian for real eps outside a finite exceptional set.  The epsilon
    is the caller's, not one of :func:`epsilon_select`, so it is checked
    first: one that is not a finite real number raises ValidationError,
    and an X + eps Y of count-rule rank below n raises SingularEpsilon.
    The result is symmetrized after an asymmetry check."""
    n = _same_dimension("robin_map", plane=plane)
    if not (isinstance(epsilon, numbers.Real) and np.isfinite(epsilon)):
        raise ValidationError(f"Robin epsilon must be a finite real number, got {epsilon!r}")
    if count_above_cutoff(np.linalg.svd(plane.x + epsilon * plane.y, compute_uv=False), tol) < n:
        raise SingularEpsilon(f"X + {epsilon} Y has count-rule rank below {n}")
    return robin_matrices((plane,), (epsilon,), tol)[0, 0]


def robin_matrices(planes, epsilons, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """The matrices of :func:`robin_map` for k planes of one dimension at
    each of a sequence of m epsilons, as an (m, k, n, n) stack built with
    one stacked inverse and one asymmetry check; each (k, n, n) entry is
    bit for bit the stack of its epsilon alone.  Each epsilon must come
    from :func:`epsilon_select` for these planes, which has already
    decided the count-rule rank of the same X + eps Y in closed form; any
    other epsilon goes through :func:`robin_map`.  An asymmetric map
    raises SingularEpsilon, naming the first epsilon that gave one."""
    _same_dimension("robin_matrices", ("planes", planes))
    xs, ys = np.stack([p.x for p in planes]), np.stack([p.y for p in planes])
    eps = np.asarray(epsilons, dtype=float)[:, None, None, None]
    names = [f"Robin map at epsilon {e:.6g}" for e in epsilons]
    return checked_hermitian_part(ys @ np.linalg.inv(xs + eps * ys), tol, SingularEpsilon, names)


def random_plane(n: int, seed=None, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Random Lagrangian plane: a random symplectic image of the horizontal
    plane, post-composed with the swap involution half of the time."""
    n = _as_dimension(n, "random_plane: n")
    rng = _as_rng(seed, "random_plane: seed")
    s = random_symplectic(n, rng)
    z = s[:, :n]
    if rng.random() < 0.5:
        z = swap_map(n) @ z
    return plane_from_stacked(z, tol)


def random_plane_with_mul(n: int, mul_dim: int, seed=None, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Random plane with a multivalued part of prescribed dimension.

    Built from a random orthonormal splitting C^n = D + D^perp and a random
    Hermitian operator on D; mul_dim = dim D^perp by construction.
    """
    n = _as_dimension(n, "random_plane_with_mul: n")
    mul_dim = _as_dimension(mul_dim, "random_plane_with_mul: mul_dim", 0)
    if mul_dim > n:
        raise ValidationError(f"random_plane_with_mul: mul_dim must lie in [0, {n}], got {mul_dim}")
    rng = _as_rng(seed, "random_plane_with_mul: seed")
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    u_dom, u_mul = u[:, : n - mul_dim], u[:, n - mul_dim:]
    p = u_dom @ u_dom.conj().T
    op = hermitian_part(p @ random_hermitian(n, rng) @ p)
    x = np.hstack([u_dom, np.zeros((n, mul_dim))])
    y = np.hstack([op @ u_dom, u_mul])
    return plane_from_frame(x, y, tol)


def transversal_companion(planes, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[LagrangianPlane, float]:
    """A plane transversal to every plane in the list, and the selection
    margin.

    The companion is the scalar plane L_phi = (cos(phi) I; sin(phi) I),
    whose pairing with a plane of Souriau angles theta_j has the singular
    values |sin(theta_j - phi)|.  phi is the midpoint of the widest gap
    that the candidate angles of all the planes (2n per plane) leave on
    the circle of length pi, so for m planes every pairing has smallest
    singular value at least sin(pi / (4mn)).  The candidates, and so
    their gaps, are symmetric under theta -> pi - theta; phi is taken in
    [0, pi/2], so that rounding does not pick between a gap and its
    mirror image.

    Returns ``(plane, margin)``, margin as in :func:`_selection_margin`; a
    margin of at most 1 raises SelectionFailed.  No draw, SVD or retry.
    """
    theta = _candidate_angles(planes, "transversal_companion")
    n = theta.shape[-1] // 2
    a = sorted(theta[..., :n].ravel().tolist())
    ends = [-a[0], *a, math.pi - a[-1]]
    width, low = max(((b - c, c) for c, b in zip(ends, ends[1:])), key=lambda gap: gap[0])
    phi = low + width / 2
    margin = _selection_margin(np.abs(np.sin(theta - phi)), tol, "companion selection")
    eye = np.eye(n, dtype=complex)
    return LagrangianPlane(np.cos(phi) * eye, np.sin(phi) * eye), margin


def transversal_normalization(la: LagrangianPlane, lb: LagrangianPlane,
                              tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Symplectic basis matrix Z with Z(C^n + 0) = La and Z(0 + C^n) = Lb.

    The inverse of Z is the symplectic map sending La to the horizontal
    plane and Lb to the vertical one.  Requires La and Lb transversal; a
    pairing of count-rule rank below n raises DualBasisFailure.
    A reference route only, read by ``test_reduction_graphs_match_normalization``
    and ``test_transversal_normalization_sends_pair_to_axes``.
    """
    n = _same_dimension("transversal_normalization", la=la, lb=lb)
    j = standard_form(n)
    a = la.stacked
    b = lb.stacked
    pairing = a.conj().T @ j @ b
    if rank(pairing, tol) < n:
        raise DualBasisFailure("pairing matrix between the planes is numerically singular")
    z = np.hstack([a, b @ np.linalg.inv(pairing)])
    residual = np.linalg.norm(z.conj().T @ j @ z - j)
    if residual > tol.residual_tol * max(1.0, np.linalg.norm(z) ** 2):
        raise DualBasisFailure(f"symplectic basis residual {residual:.3e} too large")
    return z


def direct_sum_planes(l1: LagrangianPlane, l2: LagrangianPlane) -> LagrangianPlane:
    """Direct sum of planes: the two canonical frames on a block diagonal,
    rows interleaved as in :func:`direct_sum_maps`.  The sum of two
    canonical frames is Lagrangian and orthonormal, so it is not checked again."""
    a, b = _same_dimension("direct_sum_planes", l1=l1), _same_dimension("direct_sum_planes", l2=l2)
    z = np.zeros((2 * (a + b), a + b), dtype=complex)
    z[:2 * a, :a], z[2 * a:, a:] = l1.stacked, l2.stacked
    return trusted_plane(z[_embedding_indices(a, b)])
