"""Regular paths of Lagrangian planes and their Maslov index.

Endpoint conventions: positive parts of the crossing form are counted for
crossings in [0, 1) and negative parts for crossings in (0, 1].  A
crossing at t = 0 therefore contributes only its positive inertia and a
crossing at t = 1 only minus its negative inertia.  These conventions
make the index additive under concatenation of paths.

Only regular paths are supported: at every crossing the restricted form
must be nondegenerate, otherwise DegenerateCrossing is raised rather than
silently perturbing the data.

Crossings are found exactly wherever the path is linear in its frame.  On
each linear piece the pairing with the reference plane is a matrix pencil
K(t) = K(s0) + (t - s0) K1, so the crossings are the real roots of
det K(t): one eigenvalue solve per piece (Robbin and Salamon, "The Maslov
index for paths", Topology 32, 1993, for crossing forms).  Linear paths,
piecewise-linear paths and their reparametrizations take this route;
only paths given by a frame callable fall back to a sampled grid.
"""

from __future__ import annotations

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
    ill_conditioned,
    kernel_basis,
    rank,
    trusted_inertia,
)
from .indices import VerificationRecord, duistermaat_omega
from .planes import (
    LagrangianPlane,
    intersection_basis,
    intersection_dim,
    plane_from_frame,
    random_plane,
)
from .symplectic import standard_form

_REFINE_WIDTH = 1e-12
_CLUSTER_WIDTH = 1e-9
_ENDPOINT_TOL = 1e-9
# Golden-section ratio: step of the bracketed minimization, and the
# rotation that spreads the pencil's probe shifts over a piece.
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class LinearFramePath:
    """Path with frame (X0 + t X1; Y0 + t Y1) and exact derivative."""

    def __init__(self, x0, x1, y0, y1, kind: str = "linear"):
        self.x0 = np.asarray(x0, dtype=complex)
        self.x1 = np.asarray(x1, dtype=complex)
        self.y0 = np.asarray(y0, dtype=complex)
        self.y1 = np.asarray(y1, dtype=complex)
        self.n = self.x0.shape[0]
        self.kind = kind

    def frame_at(self, t: float):
        return self.x0 + t * self.x1, self.y0 + t * self.y1

    def derivative_at(self, t: float):
        return self.x1, self.y1

    def pieces(self):
        """Linear pieces (lo, hi, x, y, xd, yd): on [lo, hi] the frame is
        (x + (t - lo) xd; y + (t - lo) yd)."""
        return [(0.0, 1.0, self.x0, self.y0, self.x1, self.y1)]


class PiecewiseLinearPath:
    """Frames interpolated linearly between knots 0 = t_0 < ... < t_m = 1.

    The derivative is exact on each piece; at an interior knot
    ``derivative_at`` returns the one of the piece to its right.
    """

    kind = "custom"

    def __init__(self, knots, xs, ys):
        self.knots = np.asarray(knots, dtype=float)
        self.xs = np.asarray(xs, dtype=complex)
        self.ys = np.asarray(ys, dtype=complex)
        self.n = self.xs.shape[1]
        h = np.diff(self.knots)[:, None, None]
        self._xd = np.diff(self.xs, axis=0) / h
        self._yd = np.diff(self.ys, axis=0) / h

    def _piece(self, t: float) -> int:
        return int(np.clip(np.searchsorted(self.knots, t, side="right") - 1, 0, len(self.knots) - 2))

    def frame_at(self, t: float):
        k = self._piece(t)
        w = (t - self.knots[k]) / (self.knots[k + 1] - self.knots[k])
        return ((1 - w) * self.xs[k] + w * self.xs[k + 1],
                (1 - w) * self.ys[k] + w * self.ys[k + 1])

    def derivative_at(self, t: float):
        k = self._piece(t)
        return self._xd[k], self._yd[k]

    def pieces(self):
        """Linear pieces (lo, hi, x, y, xd, yd), one per pair of knots."""
        return [(float(self.knots[k]), float(self.knots[k + 1]),
                 self.xs[k], self.ys[k], self._xd[k], self._yd[k])
                for k in range(len(self.knots) - 1)]


class CustomPath:
    """Path from a user-supplied frame function.

    Without an explicit derivative function, central finite differences
    with the given step are used; accuracy is limited accordingly.
    """

    kind = "custom"

    def __init__(self, frame_fn, n: int, derivative_fn=None, fd_step: float = 1e-6):
        self._frame_fn = frame_fn
        self._derivative_fn = derivative_fn
        self._fd_step = fd_step
        self.n = n

    def frame_at(self, t: float):
        x, y = self._frame_fn(t)
        return np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)

    def derivative_at(self, t: float):
        if self._derivative_fn is not None:
            x, y = self._derivative_fn(t)
            return np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
        h = self._fd_step
        lo, hi = max(0.0, t - h), min(1.0, t + h)
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


def graph_segment(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> LinearFramePath:
    """Straight segment of graphs from A to B: frames (I; A + t(B - A))."""
    am = as_hermitian(a, tol, "segment start")
    bm = as_hermitian(b, tol, "segment end")
    if am.shape != bm.shape:
        raise ValidationError("segment endpoints must share one dimension")
    n = am.shape[0]
    return LinearFramePath(np.eye(n), np.zeros((n, n)), am, bm - am, kind="graph_segment")


def scaled_projector_path(q, tol: TolerancePolicy = DEFAULT_TOL) -> LinearFramePath:
    """Path t -> graph of t Q for an orthogonal projector Q."""
    qm = as_hermitian(q, tol, "projector")
    if np.linalg.norm(qm @ qm - qm) > tol.residual_tol * max(1.0, np.linalg.norm(qm)):
        raise ValidationError("scaled_projector_path needs an orthogonal projector")
    n = qm.shape[0]
    return LinearFramePath(np.eye(n), np.zeros((n, n)), np.zeros((n, n)), qm,
                           kind="scaled_projector")


def custom_path(frame_fn, n: int, derivative_fn=None, fd_step: float = 1e-6) -> CustomPath:
    return CustomPath(frame_fn, n, derivative_fn, fd_step)


def reparametrize(path, phi, dphi) -> ReparametrizedPath:
    """Precompose a path with a smooth increasing bijection of [0, 1].

    Crossings are found on the base path and mapped back through phi, so
    phi must fix both ends; a reversing schedule is rejected.
    """
    if abs(phi(0.0)) > DEFAULT_TOL.residual_tol or abs(phi(1.0) - 1.0) > DEFAULT_TOL.residual_tol:
        raise ValidationError("reparametrize needs phi(0) = 0 and phi(1) = 1")
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


def find_crossings(path, m: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL,
                   grid: int = 2048) -> list[Crossing]:
    """Locate all crossings of a regular path with the reference plane.

    Linear and piecewise-linear paths, and reparametrizations of either,
    are solved exactly: on each linear piece the crossings are the real
    roots of the pairing pencil K(t) = K(s0) + (t - s0) K1, taken from the
    eigenvalues of K(s0)^-1 K1.  A root counts as a crossing only where
    ``kernel_basis`` finds a nontrivial intersection, and k roots within
    1e-9 of each other must meet an intersection of dimension k, else
    UnresolvedCluster is raised.  A root within 1e-9 of a piece end is
    placed on it only when the pairing has a kernel at that end; else it
    stays inside its piece.  A crossing at an interior knot needs roots
    from the pencils of both pieces, else UnresolvedCluster is raised (a
    lone root from beyond its piece is left to the other piece), and it is
    recorded once when the restricted forms of both pieces have equal
    inertia, else DegenerateCrossing is raised.  A pairing that is
    singular on a whole piece raises DegenerateCrossing.

    Paths given by a frame callable are sampled instead: the smallest
    singular value of K(t) on ``grid`` points, each plausible valley
    refined by bracketed minimization to width 1e-12.  Crossings closer
    than the grid spacing may be missed there.

    Degenerate restricted forms raise DegenerateCrossing; two crossings
    closer than 1e-9 raise UnresolvedCluster instead of being merged.
    """
    if path.n != m.n:
        raise ValidationError("path and reference plane dimensions differ")
    return _crossings(path, m, tol, grid)


def _crossings(path, m: LagrangianPlane, tol: TolerancePolicy, grid: int) -> list[Crossing]:
    if isinstance(path, ReparametrizedPath):
        # The crossing form is phi'(t) > 0 times the base form, so only
        # the parameter changes.
        return [Crossing(_schedule_inverse(path.phi, c.t), c.dim, c.form_inertia)
                for c in _crossings(path.base, m, tol, grid)]
    if isinstance(path, (LinearFramePath, PiecewiseLinearPath)):
        return _pencil_crossings(path, m, tol)
    return _grid_crossings(path, m, tol, grid)


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

    The shift s0 is the best-conditioned of n + 1 fixed points inside the
    piece.  A regular pencil has at most n roots, so when the pairing is
    ill-conditioned at every one of them det K vanishes identically.
    """
    n = ka.shape[0]
    shifts = lo + (np.arange(1, n + 2) * _GOLDEN % 1.0) * (hi - lo)
    probes = ka + (shifts - lo)[:, None, None] * kd
    s = np.linalg.svd(probes, compute_uv=False)
    best = int(np.argmax(np.divide(s[:, -1], s[:, 0], out=np.zeros(n + 1), where=s[:, 0] > 0.0)))
    if ill_conditioned(probes[best], tol):
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


def _grid_crossings(path, m: LagrangianPlane, tol: TolerancePolicy, grid: int) -> list[Crossing]:
    ts = np.linspace(0.0, 1.0, grid)
    stack = np.stack([_pairing_at(path, m, float(t)) for t in ts])
    svals = np.linalg.svd(stack, compute_uv=False)
    sig = svals[:, -1]
    cut = cutoff_for(svals, tol)
    step = ts[1] - ts[0]
    slope = float(np.max(np.abs(np.diff(sig)))) / step if grid > 1 else 0.0
    trigger = max(2.0 * slope * step, 64.0 * cut)

    candidates = []
    for i in range(grid):
        left = sig[i - 1] if i > 0 else np.inf
        right = sig[i + 1] if i + 1 < grid else np.inf
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
        hi = ts[i + 1] if i + 1 < grid else ts[-1]
        t_star = float(np.clip(_golden_minimize(sigma_min, lo, hi), 0.0, 1.0))
        if sigma_min(t_star) > cut:
            continue
        _append_crossing(crossings, t_star, trusted_inertia(crossing_form(path, t_star, m, tol), tol))
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


def maslov_index(path, m: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL,
                 grid: int = 2048) -> int:
    """Maslov index of a regular path with respect to a reference plane."""
    return index_from_crossings(find_crossings(path, m, tol, grid))


def is_nondecreasing(path, tol: TolerancePolicy = DEFAULT_TOL, grid: int = 256) -> bool:
    """True when the full crossing form is positive semidefinite along the
    path.

    On a linear piece the form is affine in t, so it is checked exactly
    at both ends of each piece; a reparametrization scales it by
    phi' > 0.  Paths given by a frame callable are checked on a grid.
    """
    if isinstance(path, ReparametrizedPath):
        return is_nondecreasing(path.base, tol, grid)
    if isinstance(path, (LinearFramePath, PiecewiseLinearPath)):
        points = ((x + s * xd, y + s * yd, xd, yd)
                  for lo, hi, x, y, xd, yd in path.pieces() for s in (0.0, hi - lo))
    else:
        points = ((*path.frame_at(float(t)), *path.derivative_at(float(t)))
                  for t in np.linspace(0.0, 1.0, grid))
    return not any(trusted_inertia(hermitian_part(x.conj().T @ yd - y.conj().T @ xd), tol).n_minus
                   for x, y, xd, yd in points)


def _pair_normalization(l0: LagrangianPlane, l1: LagrangianPlane,
                        tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic basis Z and projector Q with Z(horizontal) = L0 and
    Z(graph of Q) = L1, where ker Q matches the intersection L0 ∩ L1.

    Columns are built from an intersection basis extended inside each
    plane, with the completion solved through the symplectic pairing.
    """
    n = l0.n
    j = standard_form(n)
    k = intersection_dim(l0, l1, tol)
    f = intersection_basis(l0, l1, tol)

    def complement_within(plane: LagrangianPlane) -> np.ndarray:
        resid = plane.stacked - f @ (f.conj().T @ plane.stacked)
        u, s, _ = np.linalg.svd(resid, full_matrices=False)
        if count_above_cutoff(s, tol) != n - k:
            raise DualBasisFailure("complement inside the plane has unexpected rank")
        return u[:, : n - k]

    if k < n:
        g = complement_within(l0)
        h = complement_within(l1)
        pairing = g.conj().T @ j @ h
        if rank(pairing, tol) < n - k:
            raise DualBasisFailure("pairing between plane complements is singular")
        h_dual = h @ np.linalg.inv(pairing)
        a = np.hstack([f, g])
        b_right = h_dual - g
    else:
        a = f
        b_right = np.zeros((2 * n, 0), dtype=complex)

    if k > 0:
        known = np.hstack([a, b_right])
        system = known.conj().T @ j
        rhs = np.zeros((2 * n - k, k), dtype=complex)
        rhs[:k, :k] = np.eye(k)
        b_solve, *_ = np.linalg.lstsq(system, rhs, rcond=None)
        skew = b_solve.conj().T @ j @ b_solve
        b_left = b_solve + f @ (skew / 2.0)
        b = np.hstack([b_left, b_right])
    else:
        b = b_right

    z = np.hstack([a, b])
    residual = np.linalg.norm(z.conj().T @ j @ z - j)
    if residual > tol.residual_tol * max(1.0, np.linalg.norm(z) ** 2):
        raise DualBasisFailure(f"pair normalization residual {residual:.3e} too large")
    q = np.zeros((n, n), dtype=complex)
    q[k:, k:] = np.eye(n - k)
    return z, q


def minimal_path(l0: LagrangianPlane, l1: LagrangianPlane,
                 tol: TolerancePolicy = DEFAULT_TOL, seed=None) -> LinearFramePath:
    """Smooth non-decreasing path from L0 to L1 whose Maslov index equals
    the Duistermaat index of (L0, L1, M) for every reference plane M.

    The path is the symplectic image of t -> graph(t Q): its crossing
    form is congruent to Q, hence positive semidefinite everywhere.
    """
    if l0.n != l1.n:
        raise ValidationError("planes live in different dimensions")
    z, q = _pair_normalization(l0, l1, tol)
    n = l0.n
    z11, z12 = z[:n, :n], z[:n, n:]
    z21, z22 = z[n:, :n], z[n:, n:]
    return LinearFramePath(z11, z12 @ q, z21, z22 @ q, kind="minimal")


def zwz_check(path, m1: LagrangianPlane, m2: LagrangianPlane,
              tol: TolerancePolicy = DEFAULT_TOL, grid: int = 2048) -> VerificationRecord:
    """Difference of Maslov indices against two reference planes, compared
    with the two Duistermaat-index expressions for it (the endpoint line
    and the reference line)."""
    mas1 = maslov_index(path, m1, tol, grid)
    mas2 = maslov_index(path, m2, tol, grid)
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
                   trials: int = 10, tol: TolerancePolicy = DEFAULT_TOL, seed=None,
                   max_retries: int = 5) -> VerificationRecord:
    """Maslov index over random non-decreasing paths from L0 to L1 is
    bounded below by the Duistermaat index, with equality on the minimal
    path.

    Samples alternate between smooth reparametrizations of the minimal
    path and detours through a random waypoint (two minimal pieces, whose
    indices add under concatenation).  Degenerate samples are redrawn up
    to ``max_retries`` times.
    """
    rng = np.random.default_rng(seed)
    target = duistermaat_omega(l0, l1, m, tol).value
    base = minimal_path(l0, l1, tol)
    base_value = maslov_index(base, m, tol)
    samples = []
    for trial in range(trials):
        for attempt in range(max_retries + 1):
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
                if attempt == max_retries:
                    raise
    holds = base_value == target and all(v >= target for v in samples)
    return VerificationRecord(
        "maslov_extremal", holds, base_value, target,
        {"samples": samples, "minimal_value": base_value, "index_value": target})
