"""The Duistermaat index of a Lagrangian triple, by three independent
algorithms, plus the Kashiwara signature index and the Morse-index
difference formulas that follow from them.

Algorithms:

* ``omega``   - inertia of the 3n x 3n pairing form assembled from the
  canonical frames; deterministic, no epsilon, designated reference.
* ``robin``   - alternating Morse indices of Robin-map differences at a
  shared epsilon, recomputed at a second epsilon, away from the first,
  with exact integer agreement demanded.
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
    NotInvertible,
    SelectionFailed,
    ToleranceBreakdown,
    TransversalityViolated,
    ValidationError,
)
from .hermitian import (
    DEFAULT_TOL,
    Eigensystem,
    TolerancePolicy,
    _same_shape,
    as_hermitian,
    checked_hermitian_part,
    hermitian_part,
    trusted_eigh,
    trusted_inertia,
)
from .planes import (
    LagrangianPlane,
    _same_dimension,
    epsilon_select,
    intersection_dim,
    robin_matrices,
    transversal_companion,
    vertical_plane,
)
from .relations import decompose, difference, inverse
from .symplectic import frame_pairing


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


def _check_bounds(value: int, n: int, method: str) -> int:
    if not 0 <= value <= n:
        raise ToleranceBreakdown(f"{method} produced {value} outside [0, {n}]")
    return int(value)


def omega_form(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane) -> np.ndarray:
    """Hermitian 3n x 3n matrix of the triple pairing form in frame
    coordinates.  Its nullity is the sum of the three pairwise
    intersection dimensions."""
    n = _same_dimension("omega_form", l1=l1, l2=l2, l3=l3)
    w = np.zeros((3 * n, 3 * n), dtype=complex)
    w12 = frame_pairing(l1.x, l1.y, l2.x, l2.y)
    w13 = -frame_pairing(l1.x, l1.y, l3.x, l3.y)
    w23 = frame_pairing(l2.x, l2.y, l3.x, l3.y)
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
    n = _same_dimension("duistermaat_omega", l1=l1, l2=l2, l3=l3)
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
                      tol: TolerancePolicy = DEFAULT_TOL, seed=None) -> IndexReport:
    """Duistermaat index through Robin maps at a shared epsilon.

    The value is constant in epsilon away from a finite bad set, so it is
    computed at the two epsilons of :func:`epsilon_select`, in one stacked
    pass, and any disagreement is raised as EpsilonDisagreement.  There is
    no way to pass an epsilon: near the bad set one epsilon alone can give
    a wrong index without any error.  ``seed`` is accepted and unused: the
    selection is closed-form.
    """
    n = _same_dimension("duistermaat_robin", l1=l1, l2=l2, l3=l3)
    planes = (l1, l2, l3)
    eps1, eps2, margin = epsilon_select(planes, tol)
    v1, v2 = _robin_values(robin_matrices(planes, (eps1, eps2), tol), tol)
    if v1 != v2:
        raise EpsilonDisagreement(
            f"epsilon {eps1:.6g} gave {v1} but epsilon {eps2:.6g} gave {v2}")
    return IndexReport(_check_bounds(v1, n, "robin"), "robin", eps1,
                       {"epsilon_second": eps2, "value_second": v2, "selection_margin": margin})


def _reduction_graphs(planes, l4: LagrangianPlane, tol: TolerancePolicy) -> np.ndarray:
    """Stack of the Hermitian graph matrices B(L1, L2), B(L1, L3) and
    B(L2, L3) against the scalar companion L4 of
    :func:`transversal_companion`, each from n x n pairings alone:
    B(La, W) = P(La, W) · P(L4, W)^-1 · P(L4, La).

    ``transversal_companion`` has already given each of these same
    G_k = P(L4, L_k) full count-rule rank, in closed form, and
    P(La, L4) = -G_a* has the same singular values, so no pairing is
    decided again here.  A G_k that LAPACK finds exactly singular (only a
    frame built past the validating constructors can give one) or an
    asymmetric B (one of the planes is not Lagrangian) raises
    DualBasisFailure."""
    # L4 is (cos(phi) I; sin(phi) I), so G_k = cos(phi) Y_k - sin(phi) X_k.
    c, s = l4.x[0, 0].real, l4.y[0, 0].real
    g = np.stack([c * p.y - s * p.x for p in planes])
    l1, l2, l3 = planes
    p_aw = np.stack([frame_pairing(la.x, la.y, w.x, w.y) for la, w in ((l1, l2), (l1, l3), (l2, l3))])
    try:
        solved = np.linalg.solve(g[[1, 2, 2]], g[[0, 0, 1]])
    except np.linalg.LinAlgError as exc:
        raise DualBasisFailure("a companion pairing is exactly singular") from exc
    return checked_hermitian_part(p_aw @ solved, tol, DualBasisFailure, ["B(L1, L2)", "B(L1, L3)", "B(L2, L3)"])


def duistermaat_reduce(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
                       tol: TolerancePolicy = DEFAULT_TOL, seed=None) -> IndexReport:
    """Duistermaat index by the axiomatic reduction.

    A companion plane L4 transversal to all three is chosen in closed form
    by :func:`transversal_companion`, and the cocycle identity expands the
    index into three terms against it.  In the symplectic coordinates
    where La is horizontal and L4 vertical, the middle plane W of a term
    is the graph of
    B(La, W) = P(La, W) · P(L4, W)^-1 · P(L4, La), with P = pairing_matrix,
    and the term is the Morse index of B.

    The companion's count-rule verdict is the only transversality check.
    An asymmetric B, from a non-Lagrangian plane, or an exactly singular
    companion pairing raises SelectionFailed from DualBasisFailure.
    ``seed`` is accepted and unused.
    """
    n = _same_dimension("duistermaat_reduce", l1=l1, l2=l2, l3=l3)
    l4, margin = transversal_companion((l1, l2, l3), tol)
    try:
        graphs = _reduction_graphs((l1, l2, l3), l4, tol)
    except DualBasisFailure as exc:
        raise SelectionFailed("reduction failed against its companion plane") from exc
    t12, t13, t23 = (i.n_minus for i in trusted_inertia(graphs, tol))
    value = _check_bounds(t12 - t13 + t23, n, "reduce")
    return IndexReport(value, "reduce", None, {"terms": (t12, t13, t23), "selection_margin": margin})


def duistermaat_graphs(a, b, c, tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Closed form for graph triples: n_-(B-A) - n_-(C-A) + n_-(C-B)."""
    am, bm, cm = (as_hermitian(m, tol) for m in (a, b, c))
    _same_shape((am, bm, cm), "duistermaat_graphs")
    return _graphs_index(am, bm, cm, tol)


def _graphs_index(am, bm, cm, tol: TolerancePolicy) -> int:
    """:func:`duistermaat_graphs` on exactly Hermitian matrices of one shape."""
    return (trusted_inertia(bm - am, tol).n_minus
            - trusted_inertia(cm - am, tol).n_minus
            + trusted_inertia(cm - bm, tol).n_minus)


def duistermaat(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
                tol: TolerancePolicy = DEFAULT_TOL, method: str = "omega",
                seed=None) -> IndexReport:
    """Dispatch a triple to one of the index algorithms.

    ``closed_form`` requires all three planes to be graphs (transversal
    to the vertical plane).  ``seed`` is accepted and unused.
    """
    n = _same_dimension("duistermaat", l1=l1, l2=l2, l3=l3)
    if method == "omega":
        return duistermaat_omega(l1, l2, l3, tol)
    if method == "robin":
        return duistermaat_robin(l1, l2, l3, tol, seed)
    if method == "reduce":
        return duistermaat_reduce(l1, l2, l3, tol, seed)
    if method == "closed_form":
        parts = [decompose(p, tol) for p in (l1, l2, l3)]
        if any(q.mul_dim for q in parts):
            raise ValidationError("closed_form needs all three planes to be graphs")
        value = _check_bounds(_graphs_index(*(q.operator_part for q in parts), tol), n, "closed_form")
        return IndexReport(value, "closed_form")
    raise ValidationError(f"unknown method {method!r}")


def kashiwara(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
              tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Kashiwara (Hormander-Kashiwara-Wall) index: the signature of the
    triple pairing form."""
    _same_dimension("kashiwara", l1=l1, l2=l2, l3=l3)
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
    _same_dimension("duistermaat_relation_vertical", plane=plane)
    _same_shape((am, plane.x), "duistermaat_relation_vertical")
    parts = decompose(plane, tol)
    p = parts.dom_projector
    a_dom = hermitian_part(p @ am @ p)
    if order == "graph_first":
        return trusted_inertia(parts.operator_part - a_dom, tol).n_minus
    if order == "plane_first":
        return trusted_inertia(a_dom - parts.operator_part, tol).n_minus + parts.mul_dim
    raise ValidationError(f"order must be 'graph_first' or 'plane_first', got {order!r}")


def _hermitian_pair(a, b, tol: TolerancePolicy) -> tuple[np.ndarray, np.ndarray]:
    """The one validation of the two inputs of a Morse formula; every
    matrix built from them afterwards is trusted."""
    am = as_hermitian(a, tol)
    bm = as_hermitian(b, tol)
    _same_shape((am, bm), "Morse formula")
    return am, bm


def _invertible_pair(a, b, tol: TolerancePolicy):
    """Validated A and B with one ``eigh`` each: (A, B, A^-1, B^-1, In(A),
    In(B)).  Each inverse is the pseudoinverse of a matrix with no
    numerical kernel."""
    am, bm = _hermitian_pair(a, b, tol)
    systems = []
    for m, what in ((am, "A"), (bm, "B")):
        e = trusted_eigh(m, tol)
        if e.inertia.n_zero:
            raise NotInvertible(f"{what} has a numerical kernel")
        systems.append(e)
    ea, eb = systems
    return am, bm, ea.pseudoinverse(), eb.pseudoinverse(), ea.inertia, eb.inertia


def morse_difference_invertible(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Check n_-(A-B) - n_-(B^-1 - A^-1) = n_-(A) - n_-(B) for invertible
    Hermitian A, B."""
    am, bm, ai, bi, ia, ib = _invertible_pair(a, b, tol)
    n_ab = trusted_inertia(am - bm, tol).n_minus
    n_inv = trusted_inertia(bi - ai, tol).n_minus
    na, nb = ia.n_minus, ib.n_minus
    return VerificationRecord(
        "morse_difference_invertible", n_ab - n_inv == na - nb, n_ab - n_inv, na - nb,
        {"n_minus_A": na, "n_minus_B": nb, "n_minus_diff": n_ab, "n_minus_inverse_diff": n_inv})


def _require_kernel_inclusion(small: Eigensystem, big_m: np.ndarray, big: Eigensystem,
                              tol: TolerancePolicy, label: str) -> None:
    """ker(small) ⊆ ker(big), verified through both the kernel-vector
    residual and projector containment, read from the two eigensystems."""
    k_small = small.kernel()
    if k_small.shape[1]:
        resid = np.linalg.norm(big_m @ k_small)
        if resid > tol.residual_tol * max(1.0, np.linalg.norm(big_m)):
            raise InclusionViolated(f"{label}: kernel vectors leak, residual {resid:.3e}")
    p_big = big.range_projector()
    if np.linalg.norm(small.range_projector() @ p_big - p_big) > tol.residual_tol:
        raise InclusionViolated(f"{label}: range containment fails")


def morse_difference_kernel(a, b, case: str, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Morse index of A - B when one kernel contains the other.

    ``kerA_in_kerB``: n_-(A-B) = n_-(A) - n_-(B) + n_-(B^+ - P_B A^+ P_B).
    ``kerB_in_kerA``: n_-(A-B) = n_-(A) - n_-(B) + n_-(P_A B^+ P_A - A^+)
    + n_0(A) - n_0(B).
    """
    am, bm = _hermitian_pair(a, b, tol)
    lhs = trusted_inertia(am - bm, tol).n_minus
    ea, eb = trusted_eigh(am, tol), trusted_eigh(bm, tol)
    ia, ib = ea.inertia, eb.inertia
    if case == "kerA_in_kerB":
        _require_kernel_inclusion(ea, bm, eb, tol, "ker A inside ker B")
        p = eb.range_projector()
        correction = trusted_inertia(eb.pseudoinverse() - hermitian_part(p @ ea.pseudoinverse() @ p),
                                     tol).n_minus
        rhs = ia.n_minus - ib.n_minus + correction
    elif case == "kerB_in_kerA":
        _require_kernel_inclusion(eb, am, ea, tol, "ker B inside ker A")
        p = ea.range_projector()
        correction = trusted_inertia(hermitian_part(p @ eb.pseudoinverse() @ p) - ea.pseudoinverse(),
                                     tol).n_minus
        rhs = ia.n_minus - ib.n_minus + correction + ia.n_zero - ib.n_zero
    else:
        raise ValidationError(f"case must be 'kerA_in_kerB' or 'kerB_in_kerA', got {case!r}")
    return VerificationRecord(
        f"morse_difference_kernel[{case}]", lhs == rhs, lhs, rhs,
        {"inertia_A": ia.as_tuple(), "inertia_B": ib.as_tuple(), "correction": correction})


def morse_sum_invertible(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Check n_-(A+B) + n_0(A+B) + n_-(A^-1 + B^-1) = n_-(A) + n_-(B)."""
    am, bm, ai, bi, ia, ib = _invertible_pair(a, b, tol)
    i_sum = trusted_inertia(am + bm, tol)
    n_inv = trusted_inertia(ai + bi, tol).n_minus
    lhs = i_sum.n_minus + i_sum.n_zero + n_inv
    rhs = ia.n_minus + ib.n_minus
    return VerificationRecord(
        "morse_sum_invertible", lhs == rhs, lhs, rhs,
        {"inertia_sum": i_sum.as_tuple(), "n_minus_inverse_sum": n_inv})


def index_via_resolvent_difference(l1: LagrangianPlane, l2: LagrangianPlane, l3: LagrangianPlane,
                                   tol: TolerancePolicy = DEFAULT_TOL) -> int:
    """Index of a triple whose third plane is transversal to the first two
    and to the vertical plane, via inverses of relation differences."""
    v = vertical_plane(_same_dimension("index_via_resolvent_difference", l1=l1, l2=l2, l3=l3))
    for other, label in ((l1, "L1"), (l2, "L2"), (v, "the vertical plane")):
        if intersection_dim(l3, other, tol) != 0:
            raise TransversalityViolated(f"L3 is not transversal to {label}")
    mats = []
    for p in (l1, l2):
        parts = decompose(inverse(difference(p, l3, tol)), tol)
        if parts.mul_dim:
            raise ToleranceBreakdown("inverted difference failed to be a graph")
        mats.append(parts.operator_part)
    return trusted_inertia(mats[0] - mats[1], tol).n_minus


def haynsworth_check(a, b, tol: TolerancePolicy = DEFAULT_TOL) -> VerificationRecord:
    """Inertia additivity of the block matrix [[A, I], [I, B^-1]] expanded
    along either diagonal block; the two expansions together recover the
    invertible Morse difference identity.  In(B^-1) takes its own
    ``eigvalsh`` rather than In(B), so the expansions stay independent."""
    am, bm, ai, bi, ia, _ = _invertible_pair(a, b, tol)
    n = am.shape[0]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, :n] = am
    h[:n, n:] = np.eye(n)
    h[n:, :n] = np.eye(n)
    h[n:, n:] = bi
    direct = trusted_inertia(h, tol).n_minus
    via_a = ia.n_minus + trusted_inertia(bi - ai, tol).n_minus
    via_d = trusted_inertia(bi, tol).n_minus + trusted_inertia(am - bm, tol).n_minus
    holds = direct == via_a == via_d
    return VerificationRecord(
        "haynsworth_double_expansion", holds, via_a, via_d,
        {"n_minus_block": direct,
         "pivot_A": via_a,
         "pivot_Binv": via_d})
