"""Regular paths of Lagrangian planes and their Maslov index.

Endpoint conventions: positive parts of the crossing form are counted for
crossings in [0, 1) and negative parts for crossings in (0, 1].  A
crossing at t = 0 therefore contributes only its positive inertia and a
crossing at t = 1 only minus its negative inertia.  These conventions
make the index additive under concatenation of paths.

Only regular paths are supported: at every crossing the restricted form
must be nondegenerate, otherwise DegenerateCrossing is raised rather than
silently perturbing the data.

Every constructed path (segments of graphs, scaled projectors, minimal
paths and ``custom_path`` through knot frames) is a PiecewiseLinearPath:
its frame is linear in t between knots.  On each linear piece the
pairing with the reference plane is a matrix pencil
K(t) = K(s0) + (t - s0) K1, so the crossings are the real roots of
det K(t) (Robbin and Salamon, "The Maslov index for paths", Topology 32,
1993, for crossing forms).  One pass per
path solves the pencils of all its pieces as one stack, so a path takes
the same number of LAPACK calls whatever its number of pieces and roots.
Reparametrizations are solved on their base path, and any other path
object is refused, so no Maslov answer comes from sampling.
"""

from __future__ import annotations

import bisect
import numbers
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
    _as_dimension,
    _as_projector,
    _as_rng,
    _same_shape,
    as_hermitian,
    count_above_cutoff,
    hermitian_part,
    kernel_basis,
    trusted_inertia,
)
from .indices import VerificationRecord, duistermaat_omega
from .planes import (
    LagrangianPlane,
    _check_frames,
    _same_dimension,
    pairing_matrix,
    plane_from_frame,
    random_plane,
    validate_frame,
)
from .symplectic import _form_residual, frame_pairing, standard_form

# Points at which reparametrize checks a schedule phi and its rate.
_MONOTONE_GRID = 256
_CLUSTER_WIDTH = 1e-9
_ENDPOINT_TOL = 1e-9
_MAX_RETRIES = 5
# Golden-section ratio: the rotation that spreads the pencil's probe
# shifts over a piece.
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


class PiecewiseLinearPath:
    """Path that is linear in its frame between knots 0 = t_0 < ... < t_m = 1.

    xs, ys hold the start frame (X_k; Y_k) of each piece and xds, yds its
    exact derivative (X'_k; Y'_k).  On [t_k, t_{k+1}] the frame is
    (X_k + (t - t_k) X'_k; Y_k + (t - t_k) Y'_k), the same pencil that
    find_crossings solves.  At an interior knot ``frame_at`` and
    ``derivative_at`` use the piece to its right.

    The pieces are kept once, in ``frames``: the stacks (xs, ys, xds, yds)
    as one array of shape (4, m, n, n).
    """

    def __init__(self, knots, xs, ys, xds, yds, kind: str):
        self.knots = [float(t) for t in knots]
        self.kind = kind
        self.frames = np.asarray([xs, ys, xds, yds], dtype=complex)
        self.n = self.frames.shape[-1]

    def _index(self, t: float) -> int:
        return min(max(bisect.bisect_right(self.knots, t) - 1, 0), len(self.knots) - 2)

    def frame_at(self, t: float):
        x, y = self.frames_at([t])[:, 0]
        return x, y

    def frames_at(self, ts):
        """Frames at each t of ts: one array of shape (2, len(ts), n, n)
        holding the stacks of X and of Y."""
        ks = [self._index(t) for t in ts]
        w = np.array([t - self.knots[k] for t, k in zip(ts, ks)]).reshape(-1, 1, 1)
        f = self.frames[:, ks]
        return f[:2] + w * f[2:]

    def derivative_at(self, t: float):
        return tuple(self.frames[2:, self._index(t)])

    def pieces(self):
        """Linear pieces (lo, hi, x, y, xd, yd): on [lo, hi] the frame is
        (x + (t - lo) xd; y + (t - lo) yd)."""
        return list(zip(self.knots, self.knots[1:], *self.frames))


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
    _same_shape((am, bm), "graph_segment")
    n = am.shape[0]
    return PiecewiseLinearPath([0.0, 1.0], [np.eye(n)], [am], [np.zeros((n, n))], [bm - am],
                               "graph_segment")


def scaled_projector_path(q, tol: TolerancePolicy = DEFAULT_TOL) -> PiecewiseLinearPath:
    """Path t -> graph of t Q for an orthogonal projector Q."""
    qm = _as_projector(q, tol, "projector")
    n = qm.shape[0]
    return PiecewiseLinearPath([0.0, 1.0], [np.eye(n)], [np.zeros((n, n))], [np.zeros((n, n))],
                               [qm], "scaled_projector")


def custom_path(knots, xs, ys, tol: TolerancePolicy = DEFAULT_TOL) -> PiecewiseLinearPath:
    """Path through the frames (xs[k]; ys[k]) at the knots, linear in
    between: kind ``"custom"``.

    The knots must be finite and rise strictly from 0.0 to 1.0, with one
    frame per knot, all of one shape and each valid as
    :func:`validate_frame` decides.  The path must also stay Lagrangian
    between the knots, which the midpoint of each piece decides; a piece
    that leaves the Grassmannian raises ValidationError naming its knots.
    """
    try:
        ts = np.asarray(knots, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError("custom_path knots must be numbers") from exc
    if (ts.ndim != 1 or len(ts) < 2 or not np.isfinite(ts).all()
            or ts[0] != 0.0 or ts[-1] != 1.0 or (np.diff(ts) <= 0.0).any()):
        raise ValidationError("custom_path knots must be finite and rise strictly from 0.0 to 1.0")
    if len(xs) != len(ts) or len(ys) != len(ts):
        raise ValidationError(f"custom_path needs one frame per knot: {len(ts)} knots, "
                              f"{len(xs)} X blocks and {len(ys)} Y blocks")
    frames = [validate_frame(x, y, tol) for x, y in zip(xs, ys)]
    _same_shape([x for x, _ in frames], "custom_path")
    x, y = (np.stack(blocks) for blocks in zip(*frames))
    h = np.diff(ts)[:, None, None]
    path = PiecewiseLinearPath(ts, x[:-1], y[:-1], np.diff(x, axis=0) / h, np.diff(y, axis=0) / h,
                               "custom")
    # On a piece X*Y - Y*X = w(1 - w)(P - P*) with P = X_k* Y_k+1 - Y_k* X_k+1,
    # so the midpoint frame decides whether the whole piece is Lagrangian.
    mids = path.frames_at(0.5 * (ts[:-1] + ts[1:]))
    for k in range(len(ts) - 1):
        try:
            _check_frames(mids[0, k:k + 1], mids[1, k:k + 1], tol)
        except ValidationError as exc:
            raise ValidationError(f"custom_path between knots {k} and {k + 1}: {exc}") from exc
    return path


def _solvable(what: str, path, **planes) -> None:
    """Refuse a path with no exact pencils to solve (neither piecewise linear nor
    a reparametrization), and reference planes, keywords of ``_same_dimension``, off its dimension."""
    if not isinstance(path, (PiecewiseLinearPath, ReparametrizedPath)):
        raise ValidationError(f"{what} needs a path from this module's constructors "
                              f"or reparametrize, got {type(path).__name__}")
    if planes and _same_dimension(what, **planes) != path.n:
        raise ValidationError(f"{what}: the path and its planes live in different dimensions")


def reparametrize(path, phi, dphi) -> ReparametrizedPath:
    """Precompose a path with a smooth increasing bijection of [0, 1].

    Crossings are found on the base path and mapped back through phi, so
    phi must fix both ends and must not turn back: on 256 points phi must
    increase strictly and dphi must be positive, except at t = 0 and t = 1
    where it may vanish (as for t^2 (3 - 2t)).  A sample of phi or dphi
    that is not a finite real number raises ValidationError too, as does
    a base that is not a path of this module.
    """
    _solvable("reparametrize", path)
    ts = np.linspace(0.0, 1.0, _MONOTONE_GRID).tolist()
    values = [phi(t) for t in ts]
    rates = [dphi(t) for t in ts[1:-1]]
    if not all(isinstance(v, numbers.Real) for v in values + rates):
        raise ValidationError("reparametrize needs phi and dphi that return real numbers")
    if not (np.isfinite(values).all() and np.isfinite(rates).all()):
        raise ValidationError("reparametrize needs finite phi and dphi")
    if abs(values[0]) > DEFAULT_TOL.residual_tol or abs(values[-1] - 1.0) > DEFAULT_TOL.residual_tol:
        raise ValidationError("reparametrize needs phi(0) = 0 and phi(1) = 1")
    if np.any(np.diff(values) <= 0.0) or any(r <= 0.0 for r in rates):
        raise ValidationError("reparametrize needs an increasing phi with dphi > 0 inside (0, 1)")
    return ReparametrizedPath(path, phi, dphi)


@dataclass(frozen=True)
class Crossing:
    """Parameter value where the path meets the reference plane."""

    t: float
    dim: int
    form_inertia: Inertia


def _restricted_form(basis: np.ndarray, x, y, xd, yd) -> np.ndarray:
    """The crossing form restricted to the basis; for one matrix, or for
    each matrix of stacks of equal shape."""
    form = hermitian_part(frame_pairing(x, y, xd, yd))
    return hermitian_part(basis.conj().swapaxes(-1, -2) @ form @ basis)


def crossing_form(path, t0: float, m: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Crossing form at t0 restricted to the intersection with the
    reference plane, in the moving frame's kernel coordinates.

    Raises NoCrossing when the intersection is trivial at t0, and
    ValidationError when t0 is not a real number, or is nan or outside
    [0, 1], where the frame would be extrapolated off the path.
    """
    _solvable("crossing_form", path, m=m)
    if not (isinstance(t0, numbers.Real) and 0.0 <= t0 <= 1.0):
        raise ValidationError(f"crossing_form needs t0 in [0, 1], got {t0}")
    x, y = path.frame_at(t0)
    basis = kernel_basis(frame_pairing(m.x, m.y, x, y), tol)
    if basis.shape[1] == 0:
        raise NoCrossing(f"no intersection with the reference plane at t={t0}")
    return _restricted_form(basis, x, y, *path.derivative_at(t0))


def find_crossings(path, m: LagrangianPlane, tol: TolerancePolicy = DEFAULT_TOL) -> list[Crossing]:
    """Locate all crossings of a regular path with the reference plane.

    Piecewise-linear paths and their reparametrizations are solved
    exactly: on each linear piece the crossings are the real roots of the
    pairing pencil K(t) = K(s0) + (t - s0) K1, taken from the eigenvalues
    of K(s0)^-1 K1.  One pass per path stacks every piece: one SVD of the
    probe pairings, one ``solve`` and one ``eigvals`` for the pencils, one
    SVD for the kernels at the candidate meeting points, and one
    ``trusted_inertia`` call per crossing dimension for the restricted
    forms.  A root counts as a crossing only where the pairing has a
    kernel (count-rule rank below n), and k roots within 1e-9 of each
    other must meet an intersection of dimension k, else
    UnresolvedCluster is raised.  A root within 1e-9 of a piece end is
    placed on it only when the pairing has a kernel at that end; else it
    stays inside its piece.  A crossing at an interior knot needs roots
    from the pencils of both pieces, else UnresolvedCluster is raised (a
    lone root from beyond its piece is left to the other piece), and it is
    recorded once when the restricted forms of both pieces have equal
    inertia, else DegenerateCrossing is raised.  A pairing of count-rule
    rank below n at every probe point of a piece, so singular on all of
    it, raises DegenerateCrossing.  The pieces are walked in order: such
    a piece raises after the root clusters of the pieces before it are
    checked, and before any crossing form is.

    Any other path object raises ValidationError: there is no sampled
    search.  Degenerate restricted forms raise DegenerateCrossing; two crossings
    closer than 1e-9 raise UnresolvedCluster instead of being merged.
    """
    _solvable("find_crossings", path, m=m)
    return _crossings(path, m, tol)


def _crossings(path, m: LagrangianPlane, tol: TolerancePolicy) -> list[Crossing]:
    if isinstance(path, ReparametrizedPath):
        # The crossing form is phi'(t) > 0 times the base form, so only
        # the parameter changes.
        return [Crossing(_schedule_inverse(path.phi, c.t), c.dim, c.form_inertia)
                for c in _crossings(path.base, m, tol)]
    return _pencil_crossings(path, m, tol)


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


def _mean(values: list[float]) -> float:
    """``np.mean`` of the values, bit for bit: numpy adds fewer than eight
    values one by one from 0.0, and longer runs pairwise."""
    if len(values) >= 8:
        return float(np.mean(values))
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _root_clusters(roots: np.ndarray) -> list[list[list[float]]]:
    """For each row of roots, its finite roots joined by chains of
    distances under 1e-9, each cluster as the real parts of its roots.

    Every root starts with its own label, and each pair i < j within 1e-9,
    taken in order, gives the label of i to all roots labelled as j.
    Clusters come in the order of their final labels, roots in input
    order.  The distances come from one numpy call for all rows; the rest
    runs over plain floats.
    """
    with np.errstate(invalid="ignore"):
        near = (np.abs(roots[..., :, None] - roots[..., None, :]) < _CLUSTER_WIDTH).tolist()
    clusters = []
    for close, finite, reals in zip(near, np.isfinite(roots).tolist(), roots.real.tolist()):
        keep = [i for i, f in enumerate(finite) if f]
        label = list(range(len(reals)))
        for a, i in enumerate(keep):
            for j in keep[a + 1:]:
                if close[i][j] and label[j] != label[i]:
                    old, new = label[j], label[i]
                    label = [new if v == old else v for v in label]
        groups: dict[int, list[float]] = {}
        for i in keep:
            groups.setdefault(label[i], []).append(reals[i])
        clusters.append([groups[v] for v in sorted(groups)])
    return clusters


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


def _pencil_crossings(path: PiecewiseLinearPath, m: LagrangianPlane,
                      tol: TolerancePolicy) -> list[Crossing]:
    """Crossings from the pairing pencils of all pieces at once.

    Piece k has K(t) = K(lo) + (t - lo) K1 on [lo, hi].  Its shift s0 is
    the one of n + 1 fixed points inside the piece whose pairing has the
    largest count-rule margin s_min / max(1, s_max), and its roots are
    s0 - 1/lambda for the eigenvalues lambda of K(s0)^-1 K1.  A regular
    pencil has at most n roots, so when the pairing has count-rule rank
    below n at every probe, det K vanishes on the whole piece.  The pieces
    are walked in order and the walk ends at the first such piece, so only
    the pieces before it are solved.
    """
    n, knots, frames = path.n, path.knots, path.frames
    ka, kd = frame_pairing(m.x, m.y, frames[0::2], frames[1::2])
    lo, hi = np.array(knots[:-1]), np.array(knots[1:])
    shifts = lo[:, None] + (np.arange(1, n + 2) * _GOLDEN % 1.0) * (hi - lo)[:, None]
    probes = ka[:, None] + (shifts - lo[:, None])[..., None, None] * kd[:, None]
    s = np.linalg.svd(probes, compute_uv=False)
    best = np.argmax(s[..., -1] / np.maximum(1.0, s[..., 0]), axis=-1)
    regular = [r == n for r in count_above_cutoff(s[np.arange(len(lo)), best], tol)]
    walk = regular.index(False) if False in regular else len(regular)
    picked = (np.arange(walk), best[:walk])
    lam = np.linalg.eigvals(np.linalg.solve(probes[picked], kd[:walk]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        roots = shifts[picked][:, None] - 1.0 / lam

    # Root clusters whose mean real part t lies within 1e-9 of their
    # piece, with the points where each may meet the reference plane, in
    # order: piece ends within 1e-9 of t, then t itself inside the piece.
    # ``beyond`` says every root of the cluster lies outside the piece.
    clusters = []
    for k, row in enumerate(_root_clusters(roots)):
        a, b = knots[k], knots[k + 1]
        for reals in row:
            t = _mean(reals)
            if a - _ENDPOINT_TOL <= t <= b + _ENDPOINT_TOL:
                ends = [e for e in (a, b) if abs(t - e) <= _ENDPOINT_TOL]
                candidates = ends + ([t] if a <= t <= b and t not in ends else [])
                beyond = all(r < a for r in reals) or all(r > b for r in reals)
                clusters.append((t, len(reals), beyond, candidates))

    if not clusters and walk == len(regular):
        return []  # no root near any piece, and no singular piece
    # The frame at every candidate point, and the pairing's kernel there
    # from one SVD of their stack: the last dim rows of V*, dim being n
    # less the count-rule rank.
    points = list(dict.fromkeys(p for *_, ps in clusters for p in ps))
    at = {p: i for i, p in enumerate(points)}
    xy = path.frames_at(points)
    _, sv, vh = np.linalg.svd(frame_pairing(m.x, m.y, xy[0], xy[1]))
    dims = [n - r for r in count_above_cutoff(sv, tol)]

    # Meeting points, with the root clusters met there: their sizes, and
    # whether each lies beyond its own piece.
    found: dict[float, list[tuple[int, bool]]] = {}
    for t, size, beyond, ps in clusters:
        hit = next((p for p in ps if dims[at[p]]), None)
        if hit is not None:
            found.setdefault(hit, []).append((size, beyond))
        elif size > 1:
            raise UnresolvedCluster(
                f"{size} pencil roots at t={t:.12f} where the intersection is trivial")
    if walk < len(regular):
        raise DegenerateCrossing(
            f"pairing with the reference plane is singular on all of "
            f"[{knots[walk]:.12f}, {knots[walk + 1]:.12f}]")

    meets = sorted(found)
    sides = _restricted_inertias(path, meets, [at[t] for t in meets], xy, vh, dims, tol)
    crossings: list[Crossing] = []
    for t, side in zip(meets, sides):
        met = found[t]
        if len(met) < len(side):
            # Both pencils at a knot pass through its pairing, so a
            # crossing there has roots on both sides.  A lone cluster from
            # beyond its piece lies in the other piece, whose own roots
            # cover that stretch.
            if met[0][1]:
                continue
            raise UnresolvedCluster(
                f"pencil roots near knot t={t:.12f} come from one side only")
        if any(other != side[0] for other in side):
            raise DegenerateCrossing(
                f"crossing at knot t={t:.12f} has restricted form inertia "
                f"{side[0].as_tuple()} on the left and {side[1].as_tuple()} on the right")
        # A degenerate crossing is also a multiple root, so the form's
        # nullity is checked before the cluster sizes.
        _append_crossing(crossings, t, side[0])
        sizes = [size for size, _ in met]
        if any(size != dims[at[t]] for size in sizes):
            raise UnresolvedCluster(
                f"{sizes} pencil roots at t={t:.12f} where the intersection has "
                f"dimension {dims[at[t]]}")
    return crossings


def _restricted_inertias(path: PiecewiseLinearPath, meets: list[float], at: list[int],
                         xy: np.ndarray, vh: np.ndarray, dims: list[int],
                         tol: TolerancePolicy) -> list[list[Inertia]]:
    """Inertia of the crossing form at each meeting point, restricted to
    the kernel there, with the derivative of each piece that holds the
    point: one piece inside it, both at an interior knot.

    meets[i] is entry at[i] of the stacks xy (frames, as from
    ``frames_at``), vh (V* of the pairing) and dims (kernel dimensions).  The forms are stacked by
    kernel dimension, one ``trusted_inertia`` call for each dimension.
    """
    n, knots = path.n, path.knots
    sides = [[k for k in range(len(knots) - 1) if knots[k] <= t <= knots[k + 1]] for t in meets]
    entries = [(i, k) for i, ks in enumerate(sides) for k in ks]
    inertias: dict[tuple[int, int], Inertia] = {}
    for d in {dims[i] for i in at}:
        group = [(i, k) for i, k in entries if dims[at[i]] == d]
        rows, on = [at[i] for i, _ in group], [k for _, k in group]
        basis = vh[rows, n - d:].conj().swapaxes(-1, -2)
        form = _restricted_form(basis, *xy[:, rows], *path.frames[2:, on])
        inertias.update(zip(group, trusted_inertia(form, tol)))
    return [[inertias[i, k] for k in ks] for i, ks in enumerate(sides)]


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
    _solvable("maslov_index", path, m=m)
    return index_from_crossings(find_crossings(path, m, tol))


def is_nondecreasing(path, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when the full crossing form is positive semidefinite along the
    path.

    On a linear piece the form is affine in t, so it is checked exactly
    at both ends of each piece; a reparametrization scales it by
    phi' > 0, so it is checked on its base path.
    """
    _solvable("is_nondecreasing", path)
    if isinstance(path, ReparametrizedPath):
        return is_nondecreasing(path.base, tol)
    points = ((x + s * xd, y + s * yd, xd, yd)
              for lo, hi, x, y, xd, yd in path.pieces() for s in (0.0, hi - lo))
    return not any(trusted_inertia(hermitian_part(frame_pairing(x, y, xd, yd)), tol).n_minus
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
    residual = _form_residual(z)
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
    n = _same_dimension("minimal_path", l0=l0, l1=l1)
    z, q = _pair_normalization(l0, l1, tol)
    z11, z12 = z[:n, :n], z[:n, n:]
    z21, z22 = z[n:, :n], z[n:, n:]
    return PiecewiseLinearPath([0.0, 1.0], [z11], [z21], [z12 @ q], [z22 @ q], "minimal")


def zwz_check(path, m1: LagrangianPlane, m2: LagrangianPlane,
              tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Difference of Maslov indices against two reference planes, compared
    with the two Duistermaat-index expressions for it (the endpoint line
    and the reference line)."""
    _solvable("zwz_check", path, m1=m1, m2=m2)
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
    to 5 times.  ``trials`` must be at least 1: no sample is no verdict.
    """
    n = _same_dimension("extremal_check", l0=l0, l1=l1, m=m)
    trials = _as_dimension(trials, "extremal_check: trials")
    rng = _as_rng(seed, "extremal_check: seed")
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
                    mid = random_plane(n, rng, tol)
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
