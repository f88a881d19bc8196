"""Numerically robust primitives for complex Hermitian matrices.

Every zero/nonzero decision in the package is made here, by one rule,
the count rule: a value counts as nonzero when it exceeds
``rank_rel_tol * max(1, scale)``, ``scale`` being the largest absolute
value in its set.  The floor of 1 makes the zero matrix behave sensibly
and keeps both sides of integer identities on one footing.  A square
matrix is invertible exactly when its count-rule rank is full.  One
function applies the rule, ``_count``, to one ascending set of values:
the eigenvalues of a Hermitian matrix, or the singular values that
``count_above_cutoff`` hands it.

The rule also takes a stack of matrices (or of value sets) along the
leading axes and decides each one with its own cutoff, exactly as for a
single matrix; one call then replaces a loop of small LAPACK calls.

:func:`inertia` validates its input; :func:`trusted_inertia` and
:func:`trusted_eigh` serve matrices the library builds exactly Hermitian
itself, or validated once at a public entry point.  In the same way
``planes.trusted_plane`` only orthonormalizes frames that are Lagrangian
and injective by construction.
"""

from __future__ import annotations

import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import EigendecompositionError, NotHermitian, ValidationError


@dataclass(frozen=True)
class TolerancePolicy:
    """Global tolerance knobs.

    rank_rel_tol: relative cutoff for singular/eigenvalue rank decisions.
    residual_tol: maximum acceptable residual in consistency checks.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel_tol", "residual_tol"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 < value < 1.0):
                raise ValidationError(f"{name} must lie strictly between 0 and 1, got {value}")


DEFAULT_TOL = TolerancePolicy()


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue counts (negative, zero, positive) of a Hermitian form."""

    n_minus: int
    n_zero: int
    n_plus: int

    @property
    def dim(self) -> int:
        return self.n_minus + self.n_zero + self.n_plus

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_minus, self.n_zero, self.n_plus)


def _as_finite_matrix(a, what: str) -> np.ndarray:
    """A 2-D complex array with finite entries, in any layout, else ValidationError.
    Every public matrix argument but that of ``hermitian_part`` becomes an array here."""
    try:
        m = np.asarray(a, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} expects a matrix of numbers") from exc
    if m.ndim != 2:
        raise ValidationError(f"{what} expects a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError(f"{what} expects finite entries")
    return m


def _same_shape(matrices, what: str) -> None:
    """Refuse matrices that do not all share one shape."""
    shapes = [m.shape for m in matrices]
    if any(s != shapes[0] for s in shapes):
        raise ValidationError(f"{what}: matrix shapes {', '.join(map(str, shapes))} differ")


def _as_dimension(n, what: str, least: int = 1) -> int:
    """A dimension or count as an int, else ValidationError naming ``what``, "<entry point>: <parameter>"."""
    if not isinstance(n, (int, np.integer)) or n < least:
        raise ValidationError(f"{what} must be an integer of at least {least}, got {n!r}")
    return int(n)


def _as_rng(seed, what: str) -> np.random.Generator:
    """``np.random.default_rng(seed)``, which returns a Generator unaltered, else ValidationError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be None, a Generator or integers >= 0, got {seed!r}") from exc


def matrix_hash(m: np.ndarray) -> str:
    """Short content hash used in diagnostics."""
    import hashlib  # loads OpenSSL, which only error messages need

    h = hashlib.sha256()
    h.update(str(m.shape).encode())
    h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()[:16]


def hermitian_part(a) -> np.ndarray:
    """Return (A + A*)/2, for one matrix or each matrix of a stack."""
    m = np.asarray(a, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def checked_hermitian_part(m: np.ndarray, tol: TolerancePolicy, error: type, names: list[str]) -> np.ndarray:
    """Hermitian part of each matrix of a stack that the library built
    through an inverse, and so is Hermitian only up to rounding.  An
    asymmetry above ``sqrt(residual_tol) * max(1, |M|)`` means the
    construction broke down and raises ``error``.

    ``names`` holds one name per entry of the leading axis; the error
    names the first entry that fails and its own largest asymmetry."""
    asym = np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1))
    bound = np.sqrt(tol.residual_tol) * np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    failed = asym > bound
    if np.any(failed):
        k = int(np.argmax(failed.reshape(len(names), -1).any(axis=1)))
        raise error(f"{names[k]} asymmetry {np.max(asym[k]):.3e} exceeds sqrt(residual_tol) * max(1, |M|)")
    return hermitian_part(m)


def as_hermitian(a, tol: TolerancePolicy = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Symmetrize, rejecting inputs whose asymmetry exceeds the policy."""
    m = _as_finite_matrix(a, what)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    asym = np.linalg.norm(m - m.conj().T)
    if asym > tol.residual_tol * max(1.0, np.linalg.norm(m)):
        raise NotHermitian(f"{what} asymmetry {asym:.3e} exceeds tolerance")
    return (m + m.conj().T) / 2


def _as_projector(p, tol: TolerancePolicy, what: str) -> np.ndarray:
    """A Hermitian P with |P^2 - P| <= residual_tol * max(1, |P|), else ValidationError."""
    pm = as_hermitian(p, tol, what)
    if np.linalg.norm(pm @ pm - pm) > tol.residual_tol * max(1.0, np.linalg.norm(pm)):
        raise ValidationError(f"{what} is not idempotent: |P^2 - P| exceeds residual_tol * max(1, |P|)")
    return pm


def _cutoff(scale, tol: TolerancePolicy):
    """The count rule's cutoff for a set whose largest absolute value is ``scale``."""
    return tol.rank_rel_tol * np.maximum(1.0, scale)


def cutoff_margin(values: np.ndarray, tol: TolerancePolicy) -> float:
    """The smallest ratio of a set's least value to the set's cutoff, over
    a stack of sets of nonnegative values along the last axis.  It exceeds
    1 exactly when the count rule counts every value of every set."""
    return float((values.min(axis=-1) / _cutoff(values.max(axis=-1), tol)).min())


def count_above_cutoff(values: np.ndarray, tol: TolerancePolicy):
    """The count rule on singular values: how many exceed the cutoff of
    their set, as ``_count`` decides it.

    The values must be singular values as ``np.linalg.svd`` returns them:
    nonnegative and in descending order along the last axis.  An int for
    one set, 0 when it is empty; for a (k, m) stack of sets, a list of k
    counts."""
    ascending = values[..., ::-1].tolist()
    if values.ndim > 1:
        return [_count(v, tol).n_plus for v in ascending]
    return _count(ascending, tol).n_plus


def _count(v: list[float], tol: TolerancePolicy) -> Inertia:
    """The count rule on one set of values, given as an ascending list of
    plain floats: the eigenvalues of one matrix, or singular values, whose
    count is n_plus.  Every count is decided here.  The
    largest absolute value sits at one of the two ends, and
    each sign count is one binary search.  At n <= 6 that beats
    comparisons over a numpy array, whose cost is per-call overhead."""
    n = len(v)
    cut = tol.rank_rel_tol * max(1.0, -v[0], v[-1]) if n else 0.0
    n_minus, n_plus = bisect_left(v, -cut), n - bisect_right(v, cut)
    return Inertia(n_minus, n - n_minus - n_plus, n_plus)


def trusted_inertia(h: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL):
    """Inertia without input validation, for matrices that are exactly
    Hermitian by construction: outputs of ``hermitian_part``,
    ``as_hermitian`` or the omega form, and their sums and differences.

    A stack of shape (k, n, n) takes one ``eigvalsh`` call and gives a
    list of k inertias, each with the cutoff of its own matrix.

    A LAPACK failure raises :class:`EigendecompositionError`, a non-finite
    eigenvalue :class:`ValidationError`.  The guard reads the eigenvalues,
    not the entries, and ``eigvalsh`` of [[nan, 0], [0, 1]] is [0, -0]:
    only the entry-point checks keep NaN out."""
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigvalsh failed for matrix {matrix_hash(h)}") from exc
    if not np.isfinite(w).all():
        raise ValidationError(f"matrix {matrix_hash(h)} has non-finite eigenvalues")
    if w.ndim > 1:
        return [_count(v, tol) for v in w.tolist()]
    return _count(w.tolist(), tol)


@dataclass(frozen=True)
class Eigensystem:
    """One ``eigh`` of a Hermitian matrix and the count-rule inertia of its
    eigenvalues.  The values ascend, so the kernel is the block of columns
    n_minus ... n_minus + n_zero - 1 and the range is every other column."""

    inertia: Inertia
    values: np.ndarray
    vectors: np.ndarray

    def kernel(self) -> np.ndarray:
        """Orthonormal basis of the numerical kernel, one column per dimension."""
        lo = self.inertia.n_minus
        return self.vectors[:, lo:lo + self.inertia.n_zero]

    def _range(self) -> tuple[np.ndarray, np.ndarray]:
        lo = self.inertia.n_minus
        kernel = np.s_[lo:lo + self.inertia.n_zero]
        return np.delete(self.values, kernel), np.delete(self.vectors, kernel, axis=1)

    def range_projector(self) -> np.ndarray:
        """Orthogonal projector onto the range."""
        _, vr = self._range()
        return hermitian_part(vr @ vr.conj().T)

    def pseudoinverse(self) -> np.ndarray:
        """Moore-Penrose pseudoinverse; the inverse when n_zero is 0."""
        wr, vr = self._range()
        return hermitian_part((vr * (1.0 / wr)) @ vr.conj().T)


def trusted_eigh(h: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> Eigensystem:
    """Eigendecomposition without input validation, for one matrix that is
    exactly Hermitian (see :func:`trusted_inertia`); its inertia, kernel,
    range and pseudoinverse are all read from this one ``eigh``."""
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigh failed for matrix {matrix_hash(h)}") from exc
    if not np.isfinite(w).all():
        raise ValidationError(f"matrix {matrix_hash(h)} has non-finite eigenvalues")
    return Eigensystem(_count(w.tolist(), tol), w, v)


def inertia(h, tol: TolerancePolicy = DEFAULT_TOL) -> Inertia:
    """Count eigenvalues of a Hermitian matrix below, inside and above the
    zero band ``[-cutoff, +cutoff]``.

    The cutoff is ``rank_rel_tol * max(1, |lambda|_max)`` so that zero
    matrices report full nullity and scaling a matrix rescales the band
    with it.
    """
    return trusted_inertia(as_hermitian(h, tol), tol)


def n_minus(h, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Morse index: number of negative eigenvalues."""
    return inertia(h, tol).n_minus


def rank(m, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Numerical rank under the shared cutoff policy."""
    return count_above_cutoff(np.linalg.svd(_as_finite_matrix(m, "rank"), compute_uv=False), tol)


def kernel_basis(m, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, one column per dimension.

    Works for rectangular input; returns a ``cols x (cols - rank)`` array.
    """
    _, s, vh = np.linalg.svd(_as_finite_matrix(m, "kernel_basis"))
    return vh[count_above_cutoff(s, tol):].conj().T


def pseudoinverse(h, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Hermitian matrix via eigendecomposition."""
    return trusted_eigh(as_hermitian(h, tol), tol).pseudoinverse()


def range_projector(h, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the range of a Hermitian matrix."""
    return trusted_eigh(as_hermitian(h, tol), tol).range_projector()


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix with O(1) entries.  An n that is not an
    integer of at least 1, or a bad seed, raises :class:`ValidationError`."""
    n = _as_dimension(n, "random_hermitian: n")
    rng = _as_rng(rng, "random_hermitian: rng")
    return hermitian_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
