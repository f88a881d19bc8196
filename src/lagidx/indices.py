"""The Duistermaat index of a Lagrangian triple, by three independent
algorithms, plus the Kashiwara signature index and the Morse-index
difference formulas that follow from them.

Algorithms:

* ``omega``   - inertia of the 3n x 3n pairing form assembled from the
  canonical frames; deterministic, no epsilon, designated reference.
* ``robin``   - alternating Morse indices of Robin-map differences at a
  shared epsilon, recomputed at a second independent epsilon with exact
  integer agreement demanded.
* ``reduce``  - the axiomatic route: pick a companion plane L4 transversal
  to all three, expand through the cocycle identity, and evaluate each
  term as the Morse index of the graph matrix
  B(La, W) = P(La, W) · P(L4, W)^-1 · P(L4, La), P = pairing_matrix, that
  the middle plane W has once La is horizontal and L4 vertical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DualBasisFailure,
    EpsilonDisagreement,
    InclusionViolated,
    SelectionFailed,
    ToleranceBreakdown,
    TransversalityViolated,
    ValidationError,
)
from .hermitian import (
    DEFAULT_TOL,
    TolerancePolicy,
    as_hermitian,
    checked_hermitian_part,
    hermitian_part,
    inertia,
    inverse_or_raise,
    kernel_basis,
    pseudoinverse,
    range_projector,
    trusted_inertia,
)
from .planes import (
    LagrangianPlane,
    checked_robin_matrices,
    epsilon_select,
    intersection_dim,
    pairing_matrix,
    robin_matrices,
    transversal_companion,
    vertical_plane,
)
from .relations import compress, decompose, difference, inverse


@dataclass(frozen=True)
class IndexReport:
    """Result of a Duistermaat index computation."""

    value: int
    method: str
    epsilon_used: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class VerificationRecord:
    """Both sides of an integer identity plus intermediate inertias."""

    identity: str
    holds: bool
    lhs: int
    rhs: int
    details: dict = field(default_factory=dict)


def coboundary(phi, args):
    """Alternating sum of phi over all omissions of one argument."""
    args = list(args)
    k = len(args)
    total = 0
    for j in range(1, k + 1):
        total += (-1) ** (k - j) * phi(*(args[:j - 1] + args[j:]))
    return total


def _check_triple(l1, l2, l3):
    if not (l1.n == l2.n == l3.n):
        raise ValidationError("planes of a triple must share the same dimension")
    return l1.n


def _check_bounds(value: int, n: int, method: str) -> int:
    if not 0 <= value <= n:
        raise ToleranceBreakdown(f"{method} produced {value} outside [0, {n}]")
    return int(value)


def omega_form(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane) -> np.ndarray:
    """Hermitian 3n x 3n matrix of the triple pairing form in frame
    coordinates.  Its nullity is the sum of the three pairwise
    intersection dimensions."""
    n = _check_triple(l1, l2, l3)
    w = np.zeros((3 * n, 3 * n), dtype=complex)
    w12 = pairing_matrix(l1, l2)
    w13 = -pairing_matrix(l1, l3)
    w23 = pairing_matrix(l2, l3)
    w[:n, n:2 * n] = w12
    w[:n, 2 * n:] = w13
    w[n:2 * n, 2 * n:] = w23
    w[n:2 * n, :n] = w12.conj().T
    w[2 * n:, :n] = w13.conj().T
    w[2 * n:, n:2 * n] = w23.conj().T
    return w


def duistermaat_omega(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
                      tol: TolerancePolicy = DEFAULT_TOL) -> IndexReport:
    """Duistermaat index as n_-(W) - n + dim(L1 ∩ L3)."""
    n = _check_triple(l1, l2, l3)
    inr = trusted_inertia(omega_form(l1, l2, l3), tol)
    dim13 = intersection_dim(l1, l3, tol)
    value = _check_bounds(inr.n_minus - n + dim13, n, "omega")
    return IndexReport(value, "omega", None, {"form_inertia": inr.as_tuple(), "dim13": dim13})


def _robin_combination(nm21: int, nm31: int, nm32: int) -> int:
    # Alternating Morse-index sum over Robin-map differences.
    return nm21 - nm31 + nm32


def _robin_values(r: np.ndarray, tol: TolerancePolicy) -> list[int]:
    # r holds the (3, n, n) Robin maps of the triple at each epsilon along
    # its leading axes; one eigvalsh call serves every difference.
    n = r.shape[-1]
    diffs = r[..., [1, 2, 2], :, :] - r[..., [0, 0, 1], :, :]
    nm = [i.n_minus for i in trusted_inertia(diffs.reshape(-1, n, n), tol)]
    return [_robin_combination(*nm[k:k + 3]) for k in range(0, len(nm), 3)]


def duistermaat_robin(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
                      tol: TolerancePolicy = DEFAULT_TOL, seed=None,
                      epsilon: Optional[float] = None) -> IndexReport:
    """Duistermaat index through Robin maps at a shared epsilon.

    The value is constant in epsilon away from a finite bad set, so it is
    computed at two independently selected epsilons, in one stacked pass,
    and any disagreement is raised as a sharp tolerance alarm.  Passing an
    explicit ``epsilon`` skips selection and the double check.  An int
    ``seed`` selects the second epsilon with ``seed + 1``; a Generator
    draws both epsilons from its stream in turn.
    """
    n = _check_triple(l1, l2, l3)
    planes = (l1, l2, l3)
    if epsilon is not None:
        value, = _robin_values(checked_robin_matrices(planes, epsilon, tol), tol)
        return IndexReport(_check_bounds(value, n, "robin"), "robin", float(epsilon),
                           {"forced_epsilon": True})
    eps1 = epsilon_select(planes, tol, seed)
    if isinstance(seed, np.random.Generator):
        seed2 = seed
    else:
        seed2 = None if seed is None else seed + 1
    eps2 = epsilon_select(planes, tol, seed2, avoid=(eps1,))
    v1, v2 = _robin_values(robin_matrices(planes, (eps1, eps2), tol), tol)
    if v1 != v2:
        raise EpsilonDisagreement(
            f"epsilon {eps1:.6g} gave {v1} but epsilon {eps2:.6g} gave {v2}")
    return IndexReport(_check_bounds(v1, n, "robin"), "robin", eps1,
                       {"epsilon_second": eps2, "value_second": v2})


def _reduction_graphs(planes, l4: LagrangianPlane, tol: TolerancePolicy) -> np.ndarray:
    """Stack of the Hermitian graph matrices B(L1, L2), B(L1, L3) and
    B(L2, L3) against the companion L4, each from n x n pairings alone:
    B(La, W) = P(La, W) · P(L4, W)^-1 · P(L4, La).

    ``transversal_companion`` has already given each of these same
    G_k = P(L4, L_k) full count-rule rank, and P(La, L4) = -G_a* has the
    same singular values, so no pairing is decided again here.  An
    asymmetric B (one of the planes is not Lagrangian) raises
    DualBasisFailure."""
    x = np.stack([p.x for p in planes])
    y = np.stack([p.y for p in planes])
    g = l4.x.conj().T @ y - l4.y.conj().T @ x
    a, w = [0, 0, 1], [1, 2, 2]  # La and W of the three terms
    p_aw = x[a].conj().swapaxes(-1, -2) @ y[w] - y[a].conj().swapaxes(-1, -2) @ x[w]
    return checked_hermitian_part(p_aw @ np.linalg.solve(g[w], g[a]), tol, DualBasisFailure,
                                  "reduction graph matrix")


def duistermaat_reduce(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
                       tol: TolerancePolicy = DEFAULT_TOL, seed=None) -> IndexReport:
    """Duistermaat index by the axiomatic reduction.

    A companion plane L4 transversal to all three is drawn, and the
    cocycle identity expands the index into three terms against it.  In
    the symplectic coordinates where La is horizontal and L4 vertical, the
    middle plane W of a term is the graph of
    B(La, W) = P(La, W) · P(L4, W)^-1 · P(L4, La), with P = pairing_matrix,
    and the term is the Morse index of B.

    One companion is drawn; its count-rule verdict is the only
    transversality check.  An asymmetric B, from a non-Lagrangian plane,
    raises SelectionFailed from DualBasisFailure.
    """
    n = _check_triple(l1, l2, l3)
    l4 = transversal_companion((l1, l2, l3), tol, seed)
    try:
        graphs = _reduction_graphs((l1, l2, l3), l4, tol)
    except DualBasisFailure as exc:
        raise SelectionFailed("reduction failed against its companion plane") from exc
    t12, t13, t23 = (i.n_minus for i in trusted_inertia(graphs, tol))
    value = _check_bounds(t12 - t13 + t23, n, "reduce")
    return IndexReport(value, "reduce", None, {"terms": (t12, t13, t23)})


def duistermaat_graphs(a, b, c, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Closed form for graph triples: n_-(B-A) - n_-(C-A) + n_-(C-B)."""
    am, bm, cm = (as_hermitian(m, tol) for m in (a, b, c))
    if not (am.shape == bm.shape == cm.shape):
        raise ValidationError("graph matrices must share one dimension")
    return (trusted_inertia(bm - am, tol).n_minus
            - trusted_inertia(cm - am, tol).n_minus
            + trusted_inertia(cm - bm, tol).n_minus)


def duistermaat(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
                tol: TolerancePolicy = DEFAULT_TOL, method: str = "omega",
                seed=None, epsilon: Optional[float] = None) -> IndexReport:
    """Dispatch a triple to one of the index algorithms.

    ``closed_form`` requires all three planes to be graphs (transversal
    to the vertical plane).
    """
    if method == "omega":
        return duistermaat_omega(l1, l2, l3, tol)
    if method == "robin":
        return duistermaat_robin(l1, l2, l3, tol, seed, epsilon)
    if method == "reduce":
        return duistermaat_reduce(l1, l2, l3, tol, seed)
    if method == "closed_form":
        n = _check_triple(l1, l2, l3)
        v = vertical_plane(n)
        mats = []
        for p in (l1, l2, l3):
            if intersection_dim(p, v, tol) != 0:
                raise ValidationError("closed_form needs all three planes to be graphs")
            mats.append(hermitian_part(p.y @ np.linalg.inv(p.x)))
        value = _check_bounds(duistermaat_graphs(*mats, tol=tol), n, "closed_form")
        return IndexReport(value, "closed_form")
    raise ValidationError(f"unknown method {method!r}")


def kashiwara(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
              tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Kashiwara (Hormander-Kashiwara-Wall) index: the signature of the
    triple pairing form."""
    _check_triple(l1, l2, l3)
    return trusted_inertia(omega_form(l1, l2, l3), tol).signature


def duistermaat_relation_vertical(a, plane: LagrangianPlane, order: str,
                                  tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Index of (graph, plane, vertical) or (plane, graph, vertical) via
    the operator-part formulas.

    ``graph_first`` evaluates n_-(L - A_dom); ``plane_first`` evaluates
    n_-(A_dom - L) + mul_dim.  Zero padding outside the domain never adds
    negative eigenvalues, so no correction of n_- is needed.
    """
    am = as_hermitian(a, tol, "graph matrix")
    if am.shape[0] != plane.n:
        raise ValidationError("matrix dimension does not match the plane")
    parts = decompose(plane, tol)
    a_dom = compress(am, parts.dom_projector, tol)
    if order == "graph_first":
        return trusted_inertia(parts.operator_part - a_dom, tol).n_minus
    if order == "plane_first":
        return trusted_inertia(a_dom - parts.operator_part, tol).n_minus + parts.mul_dim
    raise ValidationError(f"order must be 'graph_first' or 'plane_first', got {order!r}")


def morse_difference_invertible(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Check n_-(A-B) - n_-(B^-1 - A^-1) = n_-(A) - n_-(B) for invertible
    Hermitian A, B."""
    am = as_hermitian(a, tol)
    bm = as_hermitian(b, tol)
    ai = inverse_or_raise(am, tol, "A")
    bi = inverse_or_raise(bm, tol, "B")
    n_ab = inertia(am - bm, tol).n_minus
    n_inv = inertia(bi - ai, tol).n_minus
    na, nb = inertia(am, tol).n_minus, inertia(bm, tol).n_minus
    return VerificationRecord(
        "morse_difference_invertible", n_ab - n_inv == na - nb, n_ab - n_inv, na - nb,
        {"n_minus_A": na, "n_minus_B": nb, "n_minus_diff": n_ab, "n_minus_inverse_diff": n_inv})


def _require_kernel_inclusion(small, big, tol: TolerancePolicy, label: str) -> None:
    """ker(small) ⊆ ker(big), verified through both kernel-basis residuals
    and projector containment."""
    k_small = kernel_basis(small, tol)
    if k_small.shape[1]:
        resid = np.linalg.norm(big @ k_small)
        if resid > tol.residual_tol * max(1.0, np.linalg.norm(big)):
            raise InclusionViolated(f"{label}: kernel vectors leak, residual {resid:.3e}")
    p_small = range_projector(small, tol)
    p_big = range_projector(big, tol)
    if np.linalg.norm(p_small @ p_big - p_big) > tol.residual_tol:
        raise InclusionViolated(f"{label}: range containment fails")


def morse_difference_kernel(a, b, case: str, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Morse index of A - B when one kernel contains the other.

    ``kerA_in_kerB``: n_-(A-B) = n_-(A) - n_-(B) + n_-(B^+ - P_B A^+ P_B).
    ``kerB_in_kerA``: n_-(A-B) = n_-(A) - n_-(B) + n_-(P_A B^+ P_A - A^+)
    + n_0(A) - n_0(B).
    """
    am = as_hermitian(a, tol)
    bm = as_hermitian(b, tol)
    lhs = inertia(am - bm, tol).n_minus
    ia, ib = inertia(am, tol), inertia(bm, tol)
    if case == "kerA_in_kerB":
        _require_kernel_inclusion(am, bm, tol, "ker A inside ker B")
        correction = inertia(pseudoinverse(bm, tol)
                             - compress(pseudoinverse(am, tol), range_projector(bm, tol), tol),
                             tol).n_minus
        rhs = ia.n_minus - ib.n_minus + correction
    elif case == "kerB_in_kerA":
        _require_kernel_inclusion(bm, am, tol, "ker B inside ker A")
        correction = inertia(compress(pseudoinverse(bm, tol), range_projector(am, tol), tol)
                             - pseudoinverse(am, tol), tol).n_minus
        rhs = ia.n_minus - ib.n_minus + correction + ia.n_zero - ib.n_zero
    else:
        raise ValidationError(f"case must be 'kerA_in_kerB' or 'kerB_in_kerA', got {case!r}")
    return VerificationRecord(
        f"morse_difference_kernel[{case}]", lhs == rhs, lhs, rhs,
        {"inertia_A": ia.as_tuple(), "inertia_B": ib.as_tuple(), "correction": correction})


def morse_sum_invertible(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Check n_-(A+B) + n_0(A+B) + n_-(A^-1 + B^-1) = n_-(A) + n_-(B)."""
    am = as_hermitian(a, tol)
    bm = as_hermitian(b, tol)
    ai = inverse_or_raise(am, tol, "A")
    bi = inverse_or_raise(bm, tol, "B")
    i_sum = inertia(am + bm, tol)
    n_inv = inertia(ai + bi, tol).n_minus
    lhs = i_sum.n_minus + i_sum.n_zero + n_inv
    rhs = inertia(am, tol).n_minus + inertia(bm, tol).n_minus
    return VerificationRecord(
        "morse_sum_invertible", lhs == rhs, lhs, rhs,
        {"inertia_sum": i_sum.as_tuple(), "n_minus_inverse_sum": n_inv})


def index_via_resolvent_difference(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
                                   tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Index of a triple whose third plane is transversal to the first two
    and to the vertical plane, via inverses of relation differences."""
    n = _check_triple(l1, l2, l3)
    v = vertical_plane(n)
    for other, label in ((l1, "L1"), (l2, "L2"), (v, "the vertical plane")):
        if intersection_dim(l3, other, tol) != 0:
            raise TransversalityViolated(f"L3 is not transversal to {label}")
    mats = []
    for p in (l1, l2):
        inv_diff = inverse(difference(p, l3, tol))
        if intersection_dim(inv_diff, v, tol) != 0:
            raise ToleranceBreakdown("inverted difference failed to be a graph")
        mats.append(hermitian_part(inv_diff.y @ np.linalg.inv(inv_diff.x)))
    return trusted_inertia(mats[0] - mats[1], tol).n_minus


def haynsworth_check(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Inertia additivity of the block matrix [[A, I], [I, B^-1]] expanded
    along either diagonal block; the two expansions together recover the
    invertible Morse difference identity."""
    am = as_hermitian(a, tol)
    bm = as_hermitian(b, tol)
    ai = inverse_or_raise(am, tol, "A")
    bi = inverse_or_raise(bm, tol, "B")
    n = am.shape[0]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, :n] = am
    h[:n, n:] = np.eye(n)
    h[n:, :n] = np.eye(n)
    h[n:, n:] = bi
    direct = inertia(h, tol).n_minus
    via_a = inertia(am, tol).n_minus + inertia(bi - ai, tol).n_minus
    via_d = inertia(bi, tol).n_minus + inertia(am - bm, tol).n_minus
    holds = direct == via_a == via_d
    return VerificationRecord(
        "haynsworth_double_expansion", holds, via_a, via_d,
        {"n_minus_block": direct,
         "pivot_A": via_a,
         "pivot_Binv": via_d})
