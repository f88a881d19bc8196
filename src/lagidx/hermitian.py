"""Numerically robust primitives for complex Hermitian matrices.

Every zero/nonzero decision in the package is made here, by two rules:

* the count rule: a value counts as nonzero when it exceeds
  ``rank_rel_tol * max(1, scale)``, ``scale`` being the largest absolute
  value in its set.  The floor of 1 makes the zero matrix behave
  sensibly and keeps both sides of integer identities on one footing;
* the conditioning rule: a matrix is ill-conditioned when
  ``s_max / s_min > 1 / rank_rel_tol``.  Without the floor of 1 it
  differs from the count rule when ``s_max < 1``.

:func:`inertia` validates its input; :func:`trusted_inertia` serves
matrices the library builds exactly Hermitian itself.
"""

from __future__ import annotations

import hashlib
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
    """Return (A + A*)/2."""
    m = np.asarray(a, dtype=complex)
    return (m + m.conj().T) / 2


def as_hermitian(a, tol: TolerancePolicy = DEFAULT_TOL, what: str = "matrix") -> np.ndarray:
    """Symmetrize, rejecting inputs whose asymmetry exceeds the policy."""
    m = _as_square_complex(a, what)
    asym = np.linalg.norm(m - m.conj().T)
    if asym > tol.residual_tol * max(1.0, np.linalg.norm(m)):
        raise NotHermitian(f"{what} asymmetry {asym:.3e} exceeds tolerance")
    return (m + m.conj().T) / 2


def cutoff_for(values: np.ndarray, tol: TolerancePolicy) -> float:
    """Zero cutoff for a set of eigen- or singular values."""
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    return tol.rank_rel_tol * max(1.0, scale)


def count_above_cutoff(values: np.ndarray, tol: TolerancePolicy) -> int:
    """The count rule: how many values exceed the cutoff of their set."""
    return int(np.sum(values > cutoff_for(values, tol)))


def ill_conditioned(m: np.ndarray, tol: TolerancePolicy) -> bool:
    """The conditioning rule: ``s_max / s_min > 1 / rank_rel_tol``."""
    s = np.linalg.svd(m, compute_uv=False)
    return s[-1] <= 0.0 or float(s[0] / s[-1]) > 1.0 / tol.rank_rel_tol


def eigh_or_raise(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigh failed for matrix {matrix_hash(h)}") from exc


def trusted_inertia(h: np.ndarray, tol: TolerancePolicy = DEFAULT_TOL) -> Inertia:
    """Inertia without input validation, for matrices that are exactly
    Hermitian by construction: outputs of ``hermitian_part``,
    ``as_hermitian`` or the omega form, and their sums and differences."""
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigvalsh failed for matrix {matrix_hash(h)}") from exc
    if not np.all(np.isfinite(w)):
        raise ValidationError(f"matrix {matrix_hash(h)} has non-finite eigenvalues")
    cut = cutoff_for(w, tol)
    n_minus = int(np.sum(w < -cut))
    n_plus = int(np.sum(w > cut))
    return Inertia(n_minus, h.shape[0] - n_minus - n_plus, n_plus)


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


def pinv_general(m, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """SVD pseudoinverse of a general matrix under the shared cutoff."""
    a = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    cut = cutoff_for(s, tol)
    inv = np.where(s > cut, 1.0 / np.where(s > cut, s, 1.0), 0.0)
    return vh.conj().T @ (inv[:, None] * u.conj().T)


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
