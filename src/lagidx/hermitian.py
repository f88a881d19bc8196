"""Numerically robust primitives for complex Hermitian matrices.

Every zero/nonzero decision in the package is made here, by one rule,
the count rule: a value counts as nonzero when it exceeds
``rank_rel_tol * max(1, scale)``, ``scale`` being the largest absolute
value in its set.  The floor of 1 makes the zero matrix behave sensibly
and keeps both sides of integer identities on one footing.  A square
matrix is invertible exactly when its count-rule rank is full.

The rule also takes a stack of matrices (or of value sets) along the
leading axes and decides each one with its own cutoff, exactly as for a
single matrix; one call then replaces a loop of small LAPACK calls.

:func:`inertia` validates its input; :func:`trusted_inertia` serves
matrices the library builds exactly Hermitian itself.  In the same way
``planes.trusted_plane`` only orthonormalizes frames that are Lagrangian
and injective by construction.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import EigendecompositionError, NotHermitian, NotInvertible, ValidationError


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
            if not 0.0 < value < 1.0:
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


def _as_square_complex(a, what: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError(f"{what} contains non-finite entries")
    return m


def matrix_hash(m: np.ndarray) -> str:
    """Short content hash used in diagnostics."""
    h = hashlib.sha256()
    h.update(str(m.shape).encode())
    h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()[:16]


def hermitian_part(a) -> np.ndarray:
    """Return (A + A*)/2, for one matrix or each matrix of a stack."""
    m = np.asarray(a, dtype=complex)
    return (m + m.conj().swapaxes(-1, -2)) / 2


def checked_hermitian_part(m: np.ndarray, tol: TolerancePolicy, error: type,
                           what: str | list[str]) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix of a stack, that the
    library built through an inverse and so is Hermitian only up to
    rounding.  An asymmetry above ``sqrt(residual_tol) * max(1, |M|)``
    means the construction broke down and raises ``error``.

    ``what`` names the matrix or stack; a list of names, one per entry of
    the leading axis, makes the error name the first entry that fails and
    its own largest asymmetry."""
    asym = np.linalg.norm(m - m.conj().swapaxes(-1, -2), axis=(-2, -1))
    bound = np.sqrt(tol.residual_tol) * np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    failed = asym > bound
    if np.any(failed):
        if isinstance(what, list):
            first = int(np.argmax(failed.reshape(len(what), -1).any(axis=1)))
            what, asym = what[first], asym[first]
        raise error(f"{what} asymmetry {np.max(asym):.3e} exceeds sqrt(residual_tol) * max(1, |M|)")
    return hermitian_part(m)


def as_hermitian(a, tol: TolerancePolicy = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Symmetrize, rejecting inputs whose asymmetry exceeds the policy."""
    m = _as_square_complex(a, what)
    asym = np.linalg.norm(m - m.conj().T)
    if asym > tol.residual_tol * max(1.0, np.linalg.norm(m)):
        raise NotHermitian(f"{what} asymmetry {asym:.3e} exceeds tolerance")
    return (m + m.conj().T) / 2


def _cutoff(scale, tol: TolerancePolicy):
    """The count rule's cutoff for a set whose largest absolute value is ``scale``."""
    return tol.rank_rel_tol * np.maximum(1.0, scale)


def cutoff_for(values: np.ndarray, tol: TolerancePolicy):
    """Zero cutoff of a set of eigen- or singular values; for a stack of
    sets along the last axis, one cutoff per set."""
    return _cutoff(np.max(np.abs(values), axis=-1, initial=0.0), tol)


def count_above_cutoff(values: np.ndarray, tol: TolerancePolicy):
    """The count rule: how many values exceed the cutoff of their set.

    The values must be singular values as ``np.linalg.svd`` returns them:
    nonnegative and in descending order along the last axis, so the scale
    of each set is its first value.  An int for one set, 0 when it is
    empty; for a stack of sets, an array of counts."""
    if values.ndim > 1:
        return np.sum(values > _cutoff(values[..., :1], tol), axis=-1)
    if not values.size:
        return 0
    return int(np.count_nonzero(values > tol.rank_rel_tol * max(values[0], 1.0)))


def eigh_or_raise(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigh failed for matrix {matrix_hash(h)}") from exc


def trusted_inertia(h: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL):
    """Inertia without input validation, for matrices that are exactly
    Hermitian by construction: outputs of ``hermitian_part``,
    ``as_hermitian`` or the omega form, and their sums and differences.

    A stack of shape (k, n, n) takes one ``eigvalsh`` call and gives a
    list of k inertias, each with the cutoff of its own matrix.  The
    eigenvalues of each matrix come in ascending order, so the largest
    absolute value sits at one of the two ends, and each sign count is one
    binary search over plain floats.  At n <= 6 that beats comparisons
    over the numpy stack, whose cost is per-call overhead."""
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigvalsh failed for matrix {matrix_hash(h)}") from exc
    if not np.isfinite(w).all():
        raise ValidationError(f"matrix {matrix_hash(h)} has non-finite eigenvalues")
    n = w.shape[-1]
    counts = []
    for v in (w.tolist() if w.ndim > 1 else [w.tolist()]):
        cut = tol.rank_rel_tol * max(1.0, -v[0], v[-1]) if n else 0.0
        n_minus, n_plus = bisect_left(v, -cut), n - bisect_right(v, cut)
        counts.append(Inertia(n_minus, n - n_minus - n_plus, n_plus))
    return counts if w.ndim > 1 else counts[0]


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
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0
    return count_above_cutoff(np.linalg.svd(a, compute_uv=False), tol)


def kernel_basis(m, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel, one column per dimension.

    Works for rectangular input; returns a ``cols x (cols - rank)`` array.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"kernel_basis expects a matrix, got shape {a.shape}")
    _, s, vh = np.linalg.svd(a)
    return vh[count_above_cutoff(s, tol):].conj().T


def pseudoinverse(h, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a Hermitian matrix via eigendecomposition."""
    m = as_hermitian(h, tol)
    w, v = eigh_or_raise(m)
    cut = cutoff_for(w, tol)
    inv = np.where(np.abs(w) > cut, 1.0 / np.where(np.abs(w) > cut, w, 1.0), 0.0)
    return hermitian_part((v * inv) @ v.conj().T)


def range_projector(h, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the range of a Hermitian matrix."""
    m = as_hermitian(h, tol)
    w, v = eigh_or_raise(m)
    keep = np.abs(w) > cutoff_for(w, tol)
    vr = v[:, keep]
    return hermitian_part(vr @ vr.conj().T)


def inverse_or_raise(h, tol: TolerancePolicy = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Inverse of a Hermitian matrix, rejecting numerically singular input."""
    m = as_hermitian(h, tol)
    if trusted_inertia(m, tol).n_zero:
        raise NotInvertible(f"{what} has a numerical kernel")
    return np.linalg.inv(m)


def random_hermitian(n: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix with O(scale) entries."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(scale * g)
