"""Lagrangian planes as canonicalized frames.

A plane is stored through a frame (X; Y), a 2n x n injective matrix whose
columns span the subspace; the plane is Lagrangian exactly when X*Y is
Hermitian.  Construction orthonormalizes the stacked frame, and all later
queries (intersection dimension, Robin maps, pairings) run on the
canonical frame so that frame-dependent quantities are well defined.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    as_hermitian,
    checked_hermitian_part,
    count_above_cutoff,
    hermitian_part,
    random_hermitian,
    rank,
    trusted_inertia,
)
from .symplectic import random_symplectic, standard_form, swap_map

# Search budgets; the candidate count is also the size of the seeded jitter draw.
_EPSILON_CANDIDATES = 128
_EPSILON_HALVINGS = 60
_COMPANION_ATTEMPTS = 64


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


@dataclass(frozen=True)
class RobinMap:
    """Hermitian matrix Y (X + eps Y)^-1 of a plane at a given epsilon."""

    epsilon: float
    matrix: np.ndarray


def validate_frame(x, y, tol: TolerancePolicy = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Check the frame invariants; return the validated (X, Y) pair.

    Raises NotInjective when the stacked matrix is rank deficient and
    NotLagrangian when X*Y - Y*X is too large.
    """
    xm = np.asarray(x, dtype=complex)
    ym = np.asarray(y, dtype=complex)
    if xm.ndim != 2 or xm.shape != ym.shape or xm.shape[0] != xm.shape[1]:
        raise ValidationError(f"frame blocks must be square and matching, got {xm.shape} and {ym.shape}")
    if xm.shape[0] < 1:
        raise ValidationError("frames need dimension at least 1")
    z = np.vstack([xm, ym])
    if not np.all(np.isfinite(z.view(float))):
        raise ValidationError("frame contains non-finite entries")
    if rank(z, tol) < xm.shape[1]:
        raise NotInjective("frame columns are numerically dependent")
    lag = xm.conj().T @ ym - ym.conj().T @ xm
    bound = tol.residual_tol * (np.linalg.norm(xm) * np.linalg.norm(ym) + 1.0)
    if np.linalg.norm(lag) > bound:
        raise NotLagrangian(f"Lagrangian residual {np.linalg.norm(lag):.3e} exceeds {bound:.3e}")
    return xm, ym


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
    zm = np.asarray(z, dtype=complex)
    if zm.ndim != 2 or zm.shape[0] != 2 * zm.shape[1]:
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
    if n < 1:
        raise ValidationError("dimension must be at least 1")
    return LagrangianPlane(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))


def vertical_plane(n: int) -> LagrangianPlane:
    """The plane 0 + C^n (not a graph)."""
    if n < 1:
        raise ValidationError("dimension must be at least 1")
    return LagrangianPlane(np.zeros((n, n), dtype=complex), np.eye(n, dtype=complex))


def pairing_matrix(l1: LagrangianPlane, l2: LagrangianPlane) -> np.ndarray:
    """The n x n pairing X1*Y2 - Y1*X2 whose kernel represents L1 ∩ L2."""
    if l1.n != l2.n:
        raise ValidationError("planes live in different dimensions")
    return l1.x.conj().T @ l2.y - l1.y.conj().T @ l2.x


def intersection_dim(l1: LagrangianPlane, l2: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """dim(L1 ∩ L2), computed as the nullity of the frame pairing."""
    return l1.n - rank(pairing_matrix(l1, l2), tol)


def planes_equal(l1: LagrangianPlane, l2: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """Two planes are equal exactly when they intersect in full dimension."""
    return intersection_dim(l1, l2, tol) == l1.n


def principal_angles(l1: LagrangianPlane, l2: LagrangianPlane) -> np.ndarray:
    """Principal angles between the two subspaces of C^2n.

    Computed through the sines (singular values of the projection onto
    the orthogonal complement), which stays accurate for tiny angles.
    A test route only: ``test_plane_from_frame_preserves_span`` reads it.
    """
    z1, z2 = l1.stacked, l2.stacked
    s = np.linalg.svd(z2 - z1 @ (z1.conj().T @ z2), compute_uv=False)
    return np.arcsin(np.clip(s, 0.0, 1.0))


def apply_symplectic(s, plane: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Image of a plane under a (anti)symplectic matrix, re-canonicalized."""
    sm = np.asarray(s, dtype=complex)
    if sm.shape != (2 * plane.n, 2 * plane.n):
        raise ValidationError(f"map shape {sm.shape} does not match plane dimension {plane.n}")
    return plane_from_stacked(sm @ plane.stacked, tol)


def _stacked_frames(planes, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The X blocks and the Y blocks of planes of one dimension, each as
    a (k, n, n) stack."""
    planes = list(planes)
    if not planes:
        raise ValidationError(f"{what} needs at least one plane")
    if any(p.n != planes[0].n for p in planes):
        raise ValidationError("planes live in different dimensions")
    return np.stack([p.x for p in planes]), np.stack([p.y for p in planes])


def epsilon_select(planes, tol: TolerancePolicy = DEFAULT_TOL, seed=None,
                   avoid: tuple[float, ...] = ()) -> float:
    """Pick a positive epsilon at which X + eps Y has full count-rule rank
    for every plane.

    The schedule tries eps in {1, 1/2, 1/3, ...}, each scaled by a seeded
    jitter in [0.9, 1.1]; the set of bad epsilon values is finite, so the
    schedule succeeds generically.  Candidates closer than 1e-9 to any
    value in ``avoid`` are skipped (used for independent double checks).
    The planes must share one dimension; each candidate is one stacked SVD.
    """
    xs, ys = _stacked_frames(planes, "epsilon_select")
    n = xs.shape[-1]
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(0.9, 1.1, size=_EPSILON_CANDIDATES)
    for k in range(1, _EPSILON_CANDIDATES + 1):
        eps = jitter[k - 1] / k
        if any(abs(eps - a) < 1e-9 for a in avoid):
            continue
        if (count_above_cutoff(np.linalg.svd(xs + eps * ys, compute_uv=False), tol) == n).all():
            return float(eps)
    raise SelectionFailed(f"no usable epsilon among {_EPSILON_CANDIDATES} candidates")


def epsilon_small(planes, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Epsilon in the small positive regime: shrinks geometrically until
    eps^-1 I - R^eps is positive semidefinite for every given plane."""
    planes = list(planes)
    if not planes:
        raise ValidationError("epsilon_small needs at least one plane")
    eps = 0.5
    for _ in range(_EPSILON_HALVINGS):
        try:
            ok = all(
                trusted_inertia(np.eye(p.n) / eps - robin_map(p, eps, tol).matrix, tol).n_minus == 0
                for p in planes
            )
        except SingularEpsilon:
            ok = False
        if ok:
            return eps
        eps /= 2.0
    raise SelectionFailed("no small epsilon reached the positive regime")


def robin_map(plane: LagrangianPlane, epsilon: float, tol: TolerancePolicy = DEFAULT_TOL) -> RobinMap:
    """Robin map R = Y (X + eps Y)^-1 of the canonical frame.

    Hermitian for real eps outside a finite exceptional set; the result is
    symmetrized after an asymmetry check, and an X + eps Y of count-rule
    rank below n raises SingularEpsilon.
    """
    return RobinMap(float(epsilon), checked_robin_matrices((plane,), epsilon, tol)[0])


def checked_robin_matrices(planes, epsilon: float, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """:func:`robin_matrices` at an epsilon that :func:`epsilon_select` has
    not picked for these planes: an X + eps Y of count-rule rank below n,
    for any plane, raises SingularEpsilon first, with one stacked SVD."""
    xs, ys = _stacked_frames(planes, "robin_matrices")
    n = xs.shape[-1]
    if (count_above_cutoff(np.linalg.svd(xs + epsilon * ys, compute_uv=False), tol) < n).any():
        raise SingularEpsilon(f"X + {epsilon} Y has count-rule rank below {n}")
    return robin_matrices(planes, epsilon, tol)


def robin_matrices(planes, epsilon, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """The matrices of :func:`robin_map` for planes of one dimension, as a
    (k, n, n) stack built with one stacked inverse.

    A sequence of m epsilons gives an (m, k, n, n) stack from the same one
    inverse and one asymmetry check, bit for bit the stacks of the single
    epsilons.  Each epsilon must come from :func:`epsilon_select` for these
    planes, which has already checked the count-rule rank of the same
    X + eps Y; any other epsilon goes through
    :func:`checked_robin_matrices`.  An asymmetric map raises
    SingularEpsilon, naming the first epsilon that gave one."""
    xs, ys = _stacked_frames(planes, "robin_matrices")
    eps = np.asarray(epsilon, dtype=float)
    if eps.ndim:
        what = [f"Robin map at epsilon {e:.6g}" for e in eps.tolist()]
        eps = eps[:, None, None, None]
    else:
        what = f"Robin map at epsilon {epsilon:.6g}"
    return checked_hermitian_part(ys @ np.linalg.inv(xs + eps * ys), tol, SingularEpsilon, what)


def random_plane(n: int, seed=None, tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Random Lagrangian plane: a random symplectic image of the horizontal
    plane, post-composed with the swap involution half of the time."""
    rng = np.random.default_rng(seed)
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
    if not 0 <= mul_dim <= n:
        raise ValidationError(f"mul_dim must lie in [0, {n}], got {mul_dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(g)
    u_dom, u_mul = u[:, : n - mul_dim], u[:, n - mul_dim:]
    p = u_dom @ u_dom.conj().T
    op = hermitian_part(p @ random_hermitian(n, rng) @ p)
    x = np.hstack([u_dom, np.zeros((n, mul_dim))])
    y = np.hstack([op @ u_dom, u_mul])
    return plane_from_frame(x, y, tol)


def transversal_companion(planes, tol: TolerancePolicy = DEFAULT_TOL, seed=None) -> LagrangianPlane:
    """A plane transversal to every plane in the list (at most 3 expected).

    Samples graphs of random Hermitian matrices, alternating with their
    swapped versions; failure after the attempt budget signals genuinely
    ill-conditioned inputs and raises SelectionFailed.  Each candidate is
    tested against all planes with one stacked SVD of its pairings.  The
    output of ``random_hermitian`` is exactly Hermitian, so the graph frame
    (I; H) is Lagrangian by construction and goes to ``trusted_plane``.
    """
    xs, ys = _stacked_frames(planes, "transversal_companion")
    n = xs.shape[-1]
    rng = np.random.default_rng(seed)
    for attempt in range(_COMPANION_ATTEMPTS):
        cand = trusted_plane(np.vstack([np.eye(n), random_hermitian(n, rng)]))
        if attempt % 2:
            cand = trusted_plane(swap_map(n) @ cand.stacked)
        pairings = cand.x.conj().T @ ys - cand.y.conj().T @ xs
        if (count_above_cutoff(np.linalg.svd(pairings, compute_uv=False), tol) == n).all():
            return cand
    raise SelectionFailed(f"no transversal companion found in {_COMPANION_ATTEMPTS} attempts")


def transversal_normalization(la: LagrangianPlane, lb: LagrangianPlane,
                              tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Symplectic basis matrix Z with Z(C^n + 0) = La and Z(0 + C^n) = Lb.

    The inverse of Z is the symplectic map sending La to the horizontal
    plane and Lb to the vertical one.  Requires La and Lb transversal; a
    pairing of count-rule rank below n raises DualBasisFailure.
    A reference route only, read by ``test_reduction_graphs_match_normalization``
    and ``test_transversal_normalization_sends_pair_to_axes``.
    """
    if la.n != lb.n:
        raise ValidationError("planes live in different dimensions")
    n = la.n
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


def direct_sum_planes(l1: LagrangianPlane, l2: LagrangianPlane,
                      tol: TolerancePolicy = DEFAULT_TOL) -> LagrangianPlane:
    """Direct sum of planes under the fixed block interleaving."""
    x = np.zeros((l1.n + l2.n, l1.n + l2.n), dtype=complex)
    y = np.zeros_like(x)
    x[: l1.n, : l1.n] = l1.x
    x[l1.n:, l1.n:] = l2.x
    y[: l1.n, : l1.n] = l1.y
    y[l1.n:, l1.n:] = l2.y
    return plane_from_frame(x, y, tol)
