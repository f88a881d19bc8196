"""Regular paths of Lagrangian planes and their Maslov index.

Endpoint conventions: positive parts of the crossing form are counted for
crossings in [0, 1) and negative parts for crossings in (0, 1].  A
crossing at t = 0 therefore contributes only its positive inertia and a
crossing at t = 1 only minus its negative inertia.  These conventions
make the index additive under concatenation of paths.

Only regular paths are supported: at every crossing the restricted form
must be nondegenerate, otherwise DegenerateCrossing is raised rather than
silently perturbing the data.

Every built-in path (segments of graphs, scaled projectors, minimal paths
and document ``custom`` paths) is a PiecewiseLinearPath: its frame is
linear in t between knots.  On each linear piece the pairing with the
reference plane is a matrix pencil K(t) = K(s0) + (t - s0) K1, so the
crossings are the real roots of det K(t): one eigenvalue solve per piece
(Robbin and Salamon, "The Maslov index for paths", Topology 32, 1993, for
crossing forms).  Reparametrizations are solved on their base path.  Only
paths given by a frame callable are sampled, at a fixed 2048 points.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCrossing,
    DualBasisFailure,
    NoCrossing,
    UnresolvedCluster,
    ValidationError,
)
from .hermitian import (
    DEFAULT_TOL,
    Inertia,
    TolerancePolicy,
    as_hermitian,
    count_above_cutoff,
    cutoff_for,
    hermitian_part,
    kernel_basis,
    trusted_inertia,
)
from .indices import VerificationRecord, duistermaat_omega
from .planes import (
    LagrangianPlane,
    pairing_matrix,
    plane_from_frame,
    random_plane,
)
from .symplectic import standard_form

# Sampling of frame-callable paths (crossings, monotonicity, derivative)
# and of reparametrization schedules.
_GRID = 2048
_MONOTONE_GRID = 256
_FD_STEP = 1e-6
_REFINE_WIDTH = 1e-12
_CLUSTER_WIDTH = 1e-9
_ENDPOINT_TOL = 1e-9
_MAX_RETRIES = 5
# Golden-section ratio: step of the bracketed minimization, and the
# rotation that spreads the pencil's probe shifts over a piece.
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class PiecewiseLinearPath:
    """Path that is linear in its frame between knots 0 = t_0 < ... < t_m = 1.

    xs, ys hold the start frame (X_k; Y_k) of each piece and xds, yds its
    exact derivative (X'_k; Y'_k).  On [t_k, t_{k+1}] the frame is
    (X_k + (t - t_k) X'_k; Y_k + (t - t_k) Y'_k), the same pencil that
    find_crossings solves.  At an interior knot ``frame_at`` and
    ``derivative_at`` use the piece to its right.
    """

    def __init__(self, knots, xs, ys, xds, yds, kind: str):
        self.knots = [float(t) for t in knots]
        self.kind = kind
        self._pieces = [(lo, hi, *(np.asarray(a, dtype=complex) for a in frames))
                        for lo, hi, *frames in zip(self.knots, self.knots[1:], xs, ys, xds, yds)]
        self.n = self._pieces[0][2].shape[0]

    @classmethod
    def through(cls, knots, xs, ys) -> "PiecewiseLinearPath":
        """Document ``custom`` path through the frames (xs[k]; ys[k]) at the knots."""
        h = np.diff(knots)[:, None, None]
        return cls(knots, xs[:-1], ys[:-1], np.diff(xs, axis=0) / h, np.diff(ys, axis=0) / h, "custom")

    def _piece(self, t: float):
        return self._pieces[min(max(bisect.bisect_right(self.knots, t) - 1, 0), len(self._pieces) - 1)]

    def frame_at(self, t: float):
        lo, _, x, y, xd, yd = self._piece(t)
        return x + (t - lo) * xd, y + (t - lo) * yd

    def derivative_at(self, t: float):
        return self._piece(t)[4:]

    def pieces(self):
        """Linear pieces (lo, hi, x, y, xd, yd): on [lo, hi] the frame is
        (x + (t - lo) xd; y + (t - lo) yd)."""
        return self._pieces


class CustomPath:
    """Path from a user-supplied frame function.

    Without an explicit derivative function, central finite differences
    with step 1e-6 are used; accuracy is limited accordingly.
    """

    kind = "custom"

    def __init__(self, frame_fn, n: int, derivative_fn=None):
        self._frame_fn = frame_fn
        self._derivative_fn = derivative_fn
        self.n = n

    def frame_at(self, t: float):
        x, y = self._frame_fn(t)
        return np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)

    def derivative_at(self, t: float):
        if self._derivative_fn is not None:
            x, y = self._derivative_fn(t)
            return np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        lo, hi = max(0.0, t - _FD_STEP), min(1.0, t + _FD_STEP)
        xlo, ylo = self.frame_at(lo)
        xhi, yhi = self.frame_at(hi)
        return (xhi - xlo) / (hi - lo), (yhi - ylo) / (hi - lo)


class ReparametrizedPath:
    """Base path traversed along a monotone schedule phi with phi' > 0."""

    def __init__(self, base, phi, dphi):
        self.base = base
        self.phi = phi
        self.dphi = dphi
        self.n = base.n
        self.kind = f"reparametrized({base.kind})"

    def frame_at(self, t: float):
        return self.base.frame_at(self.phi(t))

    def derivative_at(self, t: float):
        xd, yd = self.base.derivative_at(self.phi(t))
        w = self.dphi(t)
        return w * xd, w * yd


def graph_segment(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> PiecewiseLinearPath:
    """Straight segment of graphs from A to B: frames (I; A + t(B - A))."""
    am = as_hermitian(a, tol, "segment start")
    bm = as_hermitian(b, tol, "segment end")
    if am.shape != bm.shape:
        raise ValidationError("segment endpoints must share one dimension")
    n = am.shape[0]
    return PiecewiseLinearPath([0.0, 1.0], [np.eye(n)], [am], [np.zeros((n, n))], [bm - am],
                               "graph_segment")


def scaled_projector_path(q, tol: TolerancePolicy = DEFAULT_TOL) -> PiecewiseLinearPath:
    """Path t -> graph of t Q for an orthogonal projector Q."""
    qm = as_hermitian(q, tol, "projector")
    if np.linalg.norm(qm @ qm - qm) > tol.residual_tol * max(1.0, np.linalg.norm(qm)):
        raise ValidationError("scaled_projector_path needs an orthogonal projector")
    n = qm.shape[0]
    return PiecewiseLinearPath([0.0, 1.0], [np.eye(n)], [np.zeros((n, n))], [np.zeros((n, n))],
                               [qm], "scaled_projector")


def custom_path(frame_fn, n: int, derivative_fn=None) -> CustomPath:
    return CustomPath(frame_fn, n, derivative_fn)


def reparametrize(path, phi, dphi) -> ReparametrizedPath:
    """Precompose a path with a smooth increasing bijection of [0, 1].

    Crossings are found on the base path and mapped back through phi, so
    phi must fix both ends and must not turn back: on 256 points phi must
    increase strictly and dphi must be positive, except at t = 0 and t = 1
    where it may vanish (as for t^2 (3 - 2t)).
    """
    if abs(phi(0.0)) > DEFAULT_TOL.residual_tol or abs(phi(1.0) - 1.0) > DEFAULT_TOL.residual_tol:
        raise ValidationError("reparametrize needs phi(0) = 0 and phi(1) = 1")
    ts = np.linspace(0.0, 1.0, _MONOTONE_GRID)
    if (np.any(np.diff([phi(float(t)) for t in ts]) <= 0.0)
            or any(dphi(float(t)) <= 0.0 for t in ts[1:-1])):
        raise ValidationError("reparametrize needs an increasing phi with dphi > 0 inside (0, 1)")
    return ReparametrizedPath(path, phi, dphi)


@dataclass(frozen=True)
class Crossing:
    """Parameter value where the path meets the reference plane."""

    t: float
    dim: int
    form_inertia: Inertia


def _pairing_at(path, m: LagrangianPlane, t: float) -> np.ndarray:
    x, y = path.frame_at(t)
    return m.x.conj().T @ y - m.y.conj().T @ x


def _golden_minimize(f, lo: float, hi: float, width: float = _REFINE_WIDTH) -> float:
    invphi = _GOLDEN
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > width:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _restricted_form(basis: np.ndarray, x, y, xd, yd) -> np.ndarray:
    form = hermitian_part(x.conj().T @ yd - y.conj().T @ xd)
    return hermitian_part(basis.conj().T @ form @ basis)


def crossing_form(path, t0: float, m: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Crossing form at t0 restricted to the intersection with the
    reference plane, in the moving frame's kernel coordinates.

    Raises NoCrossing when the intersection is trivial at t0.
    """
    if path.n != m.n:
        raise ValidationError("path and reference plane dimensions differ")
    basis = kernel_basis(_pairing_at(path, m, t0), tol)
    if basis.shape[1] == 0:
        raise NoCrossing(f"no intersection with the reference plane at t={t0}")
    return _restricted_form(basis, *path.frame_at(t0), *path.derivative_at(t0))


def find_crossings(path, m: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> list[Crossing]:
    """Locate all crossings of a regular path with the reference plane.

    Piecewise-linear paths and their reparametrizations are solved
    exactly: on each linear piece the crossings are the real roots of the
    pairing pencil K(t) = K(s0) + (t - s0) K1, taken from the eigenvalues
    of K(s0)^-1 K1.  A root counts as a crossing only where
    ``kernel_basis`` finds a nontrivial intersection, and k roots within
    1e-9 of each other must meet an intersection of dimension k, else
    UnresolvedCluster is raised.  A root within 1e-9 of a piece end is
    placed on it only when the pairing has a kernel at that end; else it
    stays inside its piece.  A crossing at an interior knot needs roots
    from the pencils of both pieces, else UnresolvedCluster is raised (a
    lone root from beyond its piece is left to the other piece), and it is
    recorded once when the restricted forms of both pieces have equal
    inertia, else DegenerateCrossing is raised.  A pairing of count-rule
    rank below n at every probe point of a piece, so singular on all of
    it, raises DegenerateCrossing.

    Paths given by a frame callable are sampled instead: the smallest
    singular value of K(t) on 2048 fixed points, each plausible valley
    refined by bracketed minimization to width 1e-12.  A refined point is
    a crossing when ``kernel_basis`` finds a kernel in its own pairing,
    under that matrix's own count-rule cutoff.  Crossings closer than the
    grid spacing may be missed there.

    Degenerate restricted forms raise DegenerateCrossing; two crossings
    closer than 1e-9 raise UnresolvedCluster instead of being merged.
    """
    if path.n != m.n:
        raise ValidationError("path and reference plane dimensions differ")
    return _crossings(path, m, tol)


def _crossings(path, m: LagrangianPlane, tol: TolerancePolicy) -> list[Crossing]:
    if isinstance(path, ReparametrizedPath):
        # The crossing form is phi'(t) > 0 times the base form, so only
        # the parameter changes.
        return [Crossing(_schedule_inverse(path.phi, c.t), c.dim, c.form_inertia)
                for c in _crossings(path.base, m, tol)]
    if isinstance(path, PiecewiseLinearPath):
        return _pencil_crossings(path, m, tol)
    return _grid_crossings(path, m, tol)


def _schedule_inverse(phi, s: float) -> float:
    """The t in [0, 1] with phi(t) = s, by bisection on an increasing phi
    with phi(0) = 0 and phi(1) = 1."""
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    mid = 0.5
    while lo < mid < hi:
        if phi(mid) < s:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def _root_clusters(roots: np.ndarray) -> list[np.ndarray]:
    """Roots joined by chains of distances under 1e-9."""
    label = np.arange(len(roots))
    near = np.abs(roots[:, None] - roots[None, :]) < _CLUSTER_WIDTH
    for i, j in zip(*np.nonzero(np.triu(near, 1))):
        label[label == label[j]] = label[i]
    return [roots[label == v] for v in np.unique(label)]


def _pencil_roots(ka: np.ndarray, kd: np.ndarray, lo: float, hi: float,
                  tol: TolerancePolicy) -> list[tuple[float, int, bool]]:
    """Root clusters of det(ka + (t - lo) kd) whose mean real part t lies
    within 1e-9 of [lo, hi], as (t, size, beyond) triples; ``beyond``
    says every root of the cluster lies outside [lo, hi].

    The shift s0 is the one of n + 1 fixed points inside the piece whose
    pairing has the largest count-rule margin s_min / max(1, s_max).  A
    regular pencil has at most n roots, so when the pairing has count-rule
    rank below n at every one of them det K vanishes identically.
    """
    n = ka.shape[0]
    shifts = lo + (np.arange(1, n + 2) * _GOLDEN % 1.0) * (hi - lo)
    probes = ka + (shifts - lo)[:, None, None] * kd
    s = np.linalg.svd(probes, compute_uv=False)
    best = int(np.argmax(s[:, -1] / np.maximum(1.0, s[:, 0])))
    if count_above_cutoff(s[best], tol) < n:
        raise DegenerateCrossing(
            f"pairing with the reference plane is singular on all of [{lo:.12f}, {hi:.12f}]")
    lam = np.linalg.eigvals(np.linalg.solve(probes[best], kd))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        roots = shifts[best] - 1.0 / lam
    found = []
    for cluster in _root_clusters(roots[np.isfinite(roots)]):
        t = float(np.mean(cluster.real))
        if lo - _ENDPOINT_TOL <= t <= hi + _ENDPOINT_TOL:
            beyond = bool(np.all(cluster.real < lo) or np.all(cluster.real > hi))
            found.append((t, len(cluster), beyond))
    return found


def _meet(path, m: LagrangianPlane, t: float, lo: float, hi: float,
          tol: TolerancePolicy) -> tuple[float, np.ndarray] | None:
    """Where a root with real part t meets the reference plane, with the
    kernel basis there: on a piece end within 1e-9 of t when the pairing
    has a kernel at that end, else at t itself when it lies in [lo, hi].
    """
    ends = [e for e in (lo, hi) if abs(t - e) <= _ENDPOINT_TOL]
    inside = [t] if lo <= t <= hi and t not in ends else []
    for s in ends + inside:
        basis = kernel_basis(_pairing_at(path, m, s), tol)
        if basis.shape[1]:
            return s, basis
    return None


def _append_crossing(crossings: list[Crossing], t: float, form_in: Inertia) -> None:
    """Accept a crossing whose restricted form is nondegenerate and which
    lies at least 1e-9 after the previous one."""
    if form_in.n_zero:
        raise DegenerateCrossing(
            f"restricted crossing form at t={t:.12f} has nullity {form_in.n_zero}")
    if crossings and abs(t - crossings[-1].t) < _CLUSTER_WIDTH:
        raise UnresolvedCluster(
            f"crossings at t={crossings[-1].t:.12f} and t={t:.12f} are unresolved")
    crossings.append(Crossing(t, form_in.dim, form_in))


def _pencil_crossings(path, m: LagrangianPlane, tol: TolerancePolicy) -> list[Crossing]:
    mxh, myh = m.x.conj().T, m.y.conj().T
    pieces = path.pieces()
    # Kernel basis by parameter, with the root clusters met there: their
    # sizes, and whether each lies beyond its own piece.
    found: dict[float, tuple[np.ndarray, list[tuple[int, bool]]]] = {}
    for lo, hi, x, y, xd, yd in pieces:
        for t, size, beyond in _pencil_roots(mxh @ y - myh @ x, mxh @ yd - myh @ xd, lo, hi, tol):
            hit = _meet(path, m, t, lo, hi, tol)
            if hit is not None:
                found.setdefault(hit[0], (hit[1], []))[1].append((size, beyond))
            elif size > 1:
                raise UnresolvedCluster(
                    f"{size} pencil roots at t={t:.12f} where the intersection is trivial")
    crossings: list[Crossing] = []
    for t, (basis, clusters) in sorted(found.items(), key=lambda item: item[0]):
        x, y = path.frame_at(t)
        # One side inside a piece; both sides at an interior knot.
        sides = [trusted_inertia(_restricted_form(basis, x, y, xd, yd), tol)
                 for lo, hi, _, _, xd, yd in pieces if lo <= t <= hi]
        if len(clusters) < len(sides):
            # Both pencils at a knot pass through its pairing, so a
            # crossing there has roots on both sides.  A lone cluster from
            # beyond its piece lies in the other piece, whose own roots
            # cover that stretch.
            if clusters[0][1]:
                continue
            raise UnresolvedCluster(
                f"pencil roots near knot t={t:.12f} come from one side only")
        if any(s != sides[0] for s in sides):
            raise DegenerateCrossing(
                f"crossing at knot t={t:.12f} has restricted form inertia "
                f"{sides[0].as_tuple()} on the left and {sides[1].as_tuple()} on the right")
        # A degenerate crossing is also a multiple root, so the form's
        # nullity is checked before the cluster sizes.
        _append_crossing(crossings, t, sides[0])
        sizes = [size for size, _ in clusters]
        if any(size != basis.shape[1] for size in sizes):
            raise UnresolvedCluster(
                f"{sizes} pencil roots at t={t:.12f} where the intersection has "
                f"dimension {basis.shape[1]}")
    return crossings


def _grid_crossings(path, m: LagrangianPlane, tol: TolerancePolicy) -> list[Crossing]:
    ts = np.linspace(0.0, 1.0, _GRID)
    stack = np.stack([_pairing_at(path, m, float(t)) for t in ts])
    svals = np.linalg.svd(stack, compute_uv=False)
    sig = svals[:, -1]
    cut = cutoff_for(svals.ravel(), tol)
    step = ts[1] - ts[0]
    slope = float(np.max(np.abs(np.diff(sig)))) / step
    trigger = max(2.0 * slope * step, 64.0 * cut)

    candidates = []
    for i in range(_GRID):
        left = sig[i - 1] if i > 0 else np.inf
        right = sig[i + 1] if i + 1 < _GRID else np.inf
        if (sig[i] < left and sig[i] <= right) or (i == 0 and sig[0] <= right):
            drop = max(left - sig[i] if np.isfinite(left) else 0.0,
                       right - sig[i] if np.isfinite(right) else 0.0, 0.0)
            if sig[i] <= max(trigger, 6.0 * drop):
                candidates.append(i)

    def sigma_min(t: float) -> float:
        return float(np.linalg.svd(_pairing_at(path, m, t), compute_uv=False)[-1])

    crossings: list[Crossing] = []
    for i in candidates:
        lo = ts[i - 1] if i > 0 else ts[0]
        hi = ts[i + 1] if i + 1 < _GRID else ts[-1]
        t_star = float(np.clip(_golden_minimize(sigma_min, lo, hi), 0.0, 1.0))
        basis = kernel_basis(_pairing_at(path, m, t_star), tol)
        if not basis.shape[1]:
            continue
        form = _restricted_form(basis, *path.frame_at(t_star), *path.derivative_at(t_star))
        _append_crossing(crossings, t_star, trusted_inertia(form, tol))
    return crossings


def index_from_crossings(crossings) -> int:
    """Signed crossing count with the endpoint conventions: positive
    inertia on [0, 1), negative inertia on (0, 1]."""
    total = 0
    for c in crossings:
        at_start = c.t <= _ENDPOINT_TOL
        at_end = c.t >= 1.0 - _ENDPOINT_TOL
        if not at_end:
            total += c.form_inertia.n_plus
        if not at_start:
            total -= c.form_inertia.n_minus
    return total


def maslov_index(path, m: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Maslov index of a regular path with respect to a reference plane."""
    return index_from_crossings(find_crossings(path, m, tol))


def is_nondecreasing(path, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when the full crossing form is positive semidefinite along the
    path.

    On a linear piece the form is affine in t, so it is checked exactly
    at both ends of each piece; a reparametrization scales it by
    phi' > 0.  Paths given by a frame callable are checked on 256 points.
    """
    if isinstance(path, ReparametrizedPath):
        return is_nondecreasing(path.base, tol)
    if isinstance(path, PiecewiseLinearPath):
        points = ((x + s * xd, y + s * yd, xd, yd)
                  for lo, hi, x, y, xd, yd in path.pieces() for s in (0.0, hi - lo))
    else:
        points = ((*path.frame_at(float(t)), *path.derivative_at(float(t)))
                  for t in np.linspace(0.0, 1.0, _MONOTONE_GRID))
    return not any(trusted_inertia(hermitian_part(x.conj().T @ yd - y.conj().T @ xd), tol).n_minus
                   for x, y, xd, yd in points)


def _pair_normalization(l0: LagrangianPlane, l1: LagrangianPlane,
                        tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic basis Z and projector Q with Z(horizontal) = L0 and
    Z(graph of Q) = L1, where ker Q matches the intersection L0 ∩ L1.

    One SVD U S V* of the pairing matrix gives everything: with r its
    count-rule rank and a = (X0; Y0) U, the last n - r columns f of a are
    an orthonormal basis of L0 ∩ L1, and the first r columns g pair with
    h = (X1; Y1) V_r as g* J h = S_r.  The completion is closed form:
    b_g = h S_r^-1 - g and b_f = -J f + g (b_g + J g)* f, so that
    Z = [g, f, b_g, b_f] and Q = diag(I_r, 0).
    """
    n = l0.n
    j = standard_form(n)
    u, s, vh = np.linalg.svd(pairing_matrix(l0, l1))
    r = count_above_cutoff(s, tol)
    a = l0.stacked @ u
    g, f = a[:, :r], a[:, r:]
    b_g = l1.stacked @ vh[:r].conj().T / s[:r] - g
    b_f = -j @ f + g @ ((b_g + j @ g).conj().T @ f)
    z = np.hstack([a, b_g, b_f])
    residual = np.linalg.norm(z.conj().T @ j @ z - j)
    if residual > tol.residual_tol * max(1.0, np.linalg.norm(z) ** 2):
        raise DualBasisFailure(f"pair normalization residual {residual:.3e} too large")
    q = np.zeros((n, n), dtype=complex)
    q[:r, :r] = np.eye(r)
    return z, q


def minimal_path(l0: LagrangianPlane, l1: LagrangianPlane,
                 tol: TolerancePolicy = DEFAULT_TOL) -> PiecewiseLinearPath:
    """Smooth non-decreasing path from L0 to L1 whose Maslov index equals
    the Duistermaat index of (L0, L1, M) for every reference plane M.

    The path is the symplectic image of t -> graph(t Q): its crossing
    form is congruent to Q, hence positive semidefinite everywhere.  Z
    and Q = diag(I_r, 0) come from one SVD of the pairing matrix, r being
    its rank, so the path is constant on L0 ∩ L1.
    """
    if l0.n != l1.n:
        raise ValidationError("planes live in different dimensions")
    z, q = _pair_normalization(l0, l1, tol)
    n = l0.n
    z11, z12 = z[:n, :n], z[:n, n:]
    z21, z22 = z[n:, :n], z[n:, n:]
    return PiecewiseLinearPath([0.0, 1.0], [z11], [z21], [z12 @ q], [z22 @ q], "minimal")


def zwz_check(path, m1: LagrangianPlane, m2: LagrangianPlane,
              tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Difference of Maslov indices against two reference planes, compared
    with the two Duistermaat-index expressions for it (the endpoint line
    and the reference line)."""
    mas1 = maslov_index(path, m1, tol)
    mas2 = maslov_index(path, m2, tol)
    l0 = plane_from_frame(*path.frame_at(0.0), tol)
    l1 = plane_from_frame(*path.frame_at(1.0), tol)
    lhs = mas1 - mas2
    endpoint_line = (duistermaat_omega(l0, l1, m1, tol).value
                     - duistermaat_omega(l0, l1, m2, tol).value)
    reference_line = (duistermaat_omega(l1, m1, m2, tol).value
                      - duistermaat_omega(l0, m1, m2, tol).value)
    holds = lhs == endpoint_line == reference_line
    return VerificationRecord(
        "zhou_wu_zhu", holds, lhs, endpoint_line,
        {"maslov_m1": mas1, "maslov_m2": mas2,
         "endpoint_line": endpoint_line, "reference_line": reference_line})


def _smooth_monotone(alpha: float):
    phi = lambda t: (1.0 - alpha) * t + alpha * t * t * (3.0 - 2.0 * t)
    dphi = lambda t: (1.0 - alpha) + 6.0 * alpha * t * (1.0 - t)
    return phi, dphi


def extremal_check(l0: LagrangianPlane, l1: LagrangianPlane, m: LagrangianPlane,
                   trials: int = 10, tol: TolerancePolicy = DEFAULT_TOL, seed=None) -> VerificationRecord:
    """Maslov index over random non-decreasing paths from L0 to L1 is
    bounded below by the Duistermaat index, with equality on the minimal
    path.

    Samples alternate between smooth reparametrizations of the minimal
    path and detours through a random waypoint (two minimal pieces, whose
    indices add under concatenation).  Degenerate samples are redrawn up
    to 5 times.
    """
    rng = np.random.default_rng(seed)
    target = duistermaat_omega(l0, l1, m, tol).value
    base = minimal_path(l0, l1, tol)
    base_value = maslov_index(base, m, tol)
    samples = []
    for trial in range(trials):
        for attempt in range(_MAX_RETRIES + 1):
            try:
                if trial % 2 == 0:
                    phi, dphi = _smooth_monotone(rng.uniform(0.1, 0.9))
                    value = maslov_index(reparametrize(base, phi, dphi), m, tol)
                else:
                    mid = random_plane(l0.n, rng, tol)
                    value = (maslov_index(minimal_path(l0, mid, tol), m, tol)
                             + maslov_index(minimal_path(mid, l1, tol), m, tol))
                samples.append(value)
                break
            except (DegenerateCrossing, UnresolvedCluster):
                if attempt == _MAX_RETRIES:
                    raise
    holds = base_value == target and all(v >= target for v in samples)
    return VerificationRecord(
        "maslov_extremal", holds, base_value, target,
        {"samples": samples, "minimal_value": base_value, "index_value": target})
