"""The Hermitian symplectic structure on C^n + C^n.

Convention: the inner product is conjugate-linear in the first slot, so
the symplectic form is ``omega(u, v) = u* J v`` with the block matrix
``J = [[0, I], [-I, 0]]``.  A map S is symplectic when ``S* J S = J`` and
anti-symplectic when ``S* J S = -J``.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .hermitian import DEFAULT_TOL, TolerancePolicy, _as_dimension, random_hermitian


def standard_form(n: int) -> np.ndarray:
    """Matrix J of the symplectic form on C^n + C^n."""
    n = _as_dimension(n)
    j = np.zeros((2 * n, 2 * n), dtype=complex)
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def frame_pairing(x1: np.ndarray, y1: np.ndarray, x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """The symplectic pairing X1*Y2 - Y1*X2 of the frames (X1; Y1) and
    (X2; Y2); for stacks of blocks, of each pair of frames along the
    leading axes, which broadcast.  The only place the pairing is
    written: it vanishes on a Lagrangian frame paired with itself, and
    its kernel represents the intersection of two planes."""
    return x1.conj().swapaxes(-1, -2) @ y2 - y1.conj().swapaxes(-1, -2) @ x2


def omega(u, v) -> complex:
    """Symplectic pairing <x1, y2> - <x2, y1> of two vectors in C^2n."""
    uu = np.asarray(u, dtype=complex).ravel()
    vv = np.asarray(v, dtype=complex).ravel()
    if uu.shape != vv.shape or uu.size % 2:
        raise ValidationError(f"omega needs two vectors of equal even length, got {uu.size} and {vv.size}")
    return complex(frame_pairing(*uu.reshape(2, -1, 1), *vv.reshape(2, -1, 1))[0, 0])


def _check_even_square(s) -> tuple[np.ndarray, int]:
    m = np.asarray(s, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2:
        raise ValidationError(f"expected a square even-dimensional matrix, got shape {m.shape}")
    return m, m.shape[0] // 2


def _form_residual(m: np.ndarray) -> float:
    """||M* J M - J|| of a 2n x 2n matrix, M* J M paired from its row blocks."""
    n = m.shape[0] // 2
    return float(np.linalg.norm(frame_pairing(m[:n], m[n:], m[:n], m[n:]) - standard_form(n)))


def is_symplectic(s, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when ||S* J S - J|| <= residual_tol * ||J||, where ||J|| = sqrt(2n)."""
    m, n = _check_even_square(s)
    return _form_residual(m) <= tol.residual_tol * np.sqrt(2 * n)


def is_antisymplectic(s, tol: TolerancePolicy = DEFAULT_TOL) -> bool:
    """True when S with its row blocks swapped, whose pairing is -S* J S, is symplectic."""
    m, n = _check_even_square(s)
    return is_symplectic(np.vstack([m[n:], m[:n]]), tol)


# Coefficients b_0 .. b_13 of the [13/13] Pade approximant of exp
# (Higham, SIAM J. Matrix Anal. Appl. 26 (2005), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)


def _expm_pade13(a: np.ndarray) -> np.ndarray:
    """exp(a) by one unscaled [13/13] Pade approximant: 6 matmuls and 1 solve.

    Accurate to roundoff while ||a|| <= theta_13 ~ 5.37 in any consistent
    norm, so the caller must bound the norm; there is no scaling and squaring.
    U and V are summed in place, term by term in the order of the textbook
    expressions, and b_1, b_0 go on the diagonal, so the result is bit for
    bit that of ``solve(V - U, V + U)`` with a dense identity.
    """
    b = _PADE13
    diag = np.s_[::a.shape[0] + 1]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = b[13] * a6
    u += b[11] * a4
    u += b[9] * a2
    u = a6 @ u
    u += b[7] * a6
    u += b[5] * a4
    u += b[3] * a2
    u.flat[diag] += b[1]
    u = a @ u
    v = b[12] * a6
    v += b[10] * a4
    v += b[8] * a2
    v = a6 @ v
    v += b[6] * a6
    v += b[4] * a4
    v += b[2] * a2
    v.flat[diag] += b[0]
    del a2, a4, a6
    p = v + u
    v -= u
    del u
    return np.linalg.solve(v, p)


def random_symplectic(n: int, seed=None) -> np.ndarray:
    """Random symplectic map exp(J H) with H a random Hermitian matrix.

    H is rescaled to spectral norm <= 1.5, so ||J H||_2 <= 1.5 lies far
    below theta_13 ~ 5.37 and one degree-13 diagonal Pade approximant,
    with no scaling and squaring, gives the exponential to roundoff.  J H
    is Hamiltonian and a diagonal Pade approximant r satisfies
    r(x) r(-x) = 1, so r(J H) is exactly symplectic in exact arithmetic,
    as the exponential is; the output passes :func:`is_symplectic` up to
    floating-point error.  An n that is not an integer of at least 1
    raises :class:`ValidationError` before anything is drawn from ``seed``.

    J is a signed block permutation, so J H = (H_lower; -H_upper) is taken
    by slicing, bit for bit the product ``standard_form(n) @ H``.
    """
    n = _as_dimension(n)
    rng = np.random.default_rng(seed)
    h = random_hermitian(2 * n, rng)
    norm = np.linalg.norm(h, 2)
    if norm > 1.5:
        h *= 1.5 / norm
    jh = np.vstack([h[n:], -h[:n]])
    del h
    return _expm_pade13(jh)


def swap_map(n: int) -> np.ndarray:
    """The anti-symplectic involution (x, y) -> (y, x)."""
    n = _as_dimension(n)
    s = np.zeros((2 * n, 2 * n), dtype=complex)
    s[:n, n:] = np.eye(n)
    s[n:, :n] = np.eye(n)
    return s


def _embedding_indices(a: int, b: int) -> np.ndarray:
    # Source positions, ordered (x1, y1, x2, y2), of each coordinate of the
    # target ordering (x1 x2, y1 y2).
    idx = np.empty(2 * (a + b), dtype=int)
    idx[0:a] = np.arange(a)
    idx[a:a + b] = 2 * a + np.arange(b)
    idx[a + b:2 * a + b] = a + np.arange(a)
    idx[2 * a + b:] = 2 * a + b + np.arange(b)
    return idx


def direct_sum_maps(s1, s2) -> np.ndarray:
    """Direct sum of maps on C^2a and C^2b as a map on C^2(a+b).

    Uses the fixed index interleaving (x1, x2, y1, y2): the x-block of
    the sum is the concatenation of the two x-blocks, same for y.
    """
    m1, a = _check_even_square(s1)
    m2, b = _check_even_square(s2)
    block = np.zeros((2 * (a + b), 2 * (a + b)), dtype=complex)
    block[:2 * a, :2 * a] = m1
    block[2 * a:, 2 * a:] = m2
    idx = _embedding_indices(a, b)
    return block[np.ix_(idx, idx)]
