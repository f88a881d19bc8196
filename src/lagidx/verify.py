"""Seeded verification suites for the identity catalogue.

Every check draws its own inputs from a per-trial generator derived from
the master seed by a fixed splitting rule
(``SeedSequence([master, check_id, n, trial])``), evaluates one exact
integer identity, and reports both sides on failure.  Failing trials are
shrunk best-effort by halving the dimension and re-sampling, seeded by
``[master, check_id, n, trial, size, k]``, before being recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, wraps
from itertools import permutations

import numpy as np

from . import maslov as ms
from .errors import DegenerateCrossing, LagidxError, UnresolvedCluster, ValidationError
from .hermitian import DEFAULT_TOL, TolerancePolicy, _as_dimension, inertia, random_hermitian
from .indices import (
    coboundary,
    duistermaat,
    duistermaat_graphs,
    duistermaat_omega,
    duistermaat_reduce,
    duistermaat_relation_vertical,
    duistermaat_robin,
    haynsworth_check,
    index_via_resolvent_difference,
    kashiwara,
    morse_difference_invertible,
    morse_difference_kernel,
    morse_sum_invertible,
    omega_form,
)
from .planes import (
    apply_symplectic,
    direct_sum_planes,
    epsilon_select,
    graph_plane,
    horizontal_plane,
    intersection_dim,
    planes_equal,
    random_plane,
    random_plane_with_mul,
    robin_matrices,
    vertical_plane,
)
from .relations import decompose, difference, inverse, reconstruct
from .symplectic import random_symplectic, swap_map

_DEGENERATE_RETRIES = 5
_MINIMIZE_ATTEMPTS = 32


def sample_plane(n: int, rng: np.random.Generator, tol: TolerancePolicy = DEFAULT_TOL):
    """Random plane, with a multivalued part forced about a quarter of the
    time so relation identities see mul_dim >= 1."""
    if rng.random() < 0.25:
        return random_plane_with_mul(n, int(rng.integers(1, n + 1)), rng, tol)
    return random_plane(n, rng, tol)


def _sample_triple(n, rng, tol):
    return tuple(sample_plane(n, rng, tol) for _ in range(3))


def _invertible_hermitian(n, rng, tol):
    a = random_hermitian(n, rng)
    if inertia(a, tol).n_zero:
        a = a + 0.5 * np.eye(n)
    return a


def _iD(l1, l2, l3, tol):
    return duistermaat_omega(l1, l2, l3, tol).value


def _dims(l1, l2, l3, tol):
    """dim(L1 ∩ L2), dim(L1 ∩ L3) and dim(L2 ∩ L3)."""
    return tuple(intersection_dim(p, q, tol) for p, q in ((l1, l2), (l1, l3), (l2, l3)))


def _holds(rec):
    """A library VerificationRecord as a check's (ok, details)."""
    return rec.holds, rec.details | {"lhs": rec.lhs, "rhs": rec.rhs}


# --- individual checks: (n, rng, tol) -> (ok, details) ---------------------


def check_normalization(n, rng, tol):
    a = random_hermitian(n, rng)
    expected = inertia(a, tol).n_minus
    g0, ga, gv = horizontal_plane(n), graph_plane(a, tol), vertical_plane(n)
    values = {
        "omega": duistermaat_omega(g0, ga, gv, tol).value,
        "robin": duistermaat_robin(g0, ga, gv, tol).value,
        "reduce": duistermaat_reduce(g0, ga, gv, tol).value,
    }
    ok = all(v == expected for v in values.values())
    return ok, {"expected": expected, **values}


def check_symplectic_invariance(n, rng, tol):
    triple = _sample_triple(n, rng, tol)
    s = random_symplectic(n, rng)
    before = _iD(*triple, tol)
    after = _iD(*(apply_symplectic(s, p, tol) for p in triple), tol)
    return before == after, {"before": before, "after": after}


def check_cocycle(n, rng, tol):
    quad = [sample_plane(n, rng, tol) for _ in range(4)]
    value = coboundary(lambda a, b, c: _iD(a, b, c, tol), quad)
    # same evaluator, applied twice to the pairwise Morse function; the
    # double coboundary vanishes identically
    mats = [random_hermitian(n, rng) for _ in range(4)]
    pairwise = lambda x, y: inertia(y - x, tol).n_minus
    square = coboundary(lambda a, b, c: coboundary(pairwise, [a, b, c]), mats)
    return value == 0 and square == 0, {"coboundary": value, "double_coboundary": square}


def check_bounds(n, rng, tol):
    triple = _sample_triple(n, rng, tol)
    value = _iD(*triple, tol)
    return 0 <= value <= n, {"value": value, "n": n}


def check_method_agreement(n, rng, tol):
    triple = _sample_triple(n, rng, tol)
    vo = duistermaat_omega(*triple, tol).value
    vr = duistermaat_robin(*triple, tol).value
    vd = duistermaat_reduce(*triple, tol).value
    return vo == vr == vd, {"omega": vo, "robin": vr, "reduce": vd}


def check_special_values(n, rng, tol):
    l, m = sample_plane(n, rng, tol), sample_plane(n, rng, tol)
    llm = _iD(l, l, m, tol)
    mll = _iD(m, l, l, tol)
    lml = _iD(l, m, l, tol)
    expected = n - intersection_dim(l, m, tol)
    ok = llm == 0 and mll == 0 and lml == expected
    return ok, {"iD(L,L,M)": llm, "iD(M,L,L)": mll, "iD(L,M,L)": lml, "n-dim": expected}


def check_swap12(n, rng, tol):
    l1, l2, l3 = _sample_triple(n, rng, tol)
    lhs = _iD(l1, l2, l3, tol) + _iD(l2, l1, l3, tol)
    rhs = n - intersection_dim(l1, l2, tol)
    return lhs == rhs, {"lhs": lhs, "rhs": rhs}


def check_swap23(n, rng, tol):
    l1, l2, l3 = _sample_triple(n, rng, tol)
    lhs = _iD(l1, l2, l3, tol) + _iD(l1, l3, l2, tol)
    rhs = n - intersection_dim(l2, l3, tol)
    return lhs == rhs, {"lhs": lhs, "rhs": rhs}


def check_swap13(n, rng, tol):
    l1, l2, l3 = _sample_triple(n, rng, tol)
    lhs = _iD(l1, l2, l3, tol) + _iD(l3, l2, l1, tol)
    rhs = (n - intersection_dim(l1, l2, tol) - intersection_dim(l2, l3, tol)
           + intersection_dim(l1, l3, tol))
    return lhs == rhs, {"lhs": lhs, "rhs": rhs}


def check_cyclic_shifts(n, rng, tol):
    l1, l2, l3 = _sample_triple(n, rng, tol)
    d12, d13, d23 = _dims(l1, l2, l3, tol)
    base = _iD(l1, l2, l3, tol) - d13
    shifted1 = _iD(l3, l1, l2, tol) - d23
    shifted2 = _iD(l2, l3, l1, tol) - d12
    return base == shifted1 == shifted2, {"base": base, "shift1": shifted1, "shift2": shifted2}


def check_additivity(n, rng, tol):
    a = 1 + (n - 1) % 3
    b = int(rng.integers(1, 4))
    first = _sample_triple(a, rng, tol)
    second = _sample_triple(b, rng, tol)
    summed = _iD(*(direct_sum_planes(p, q) for p, q in zip(first, second)), tol)
    parts = _iD(*first, tol) + _iD(*second, tol)
    return summed == parts, {"sum": summed, "parts": parts, "dims": (a, b)}


def check_antisymplectic(n, rng, tol):
    triple = _sample_triple(n, rng, tol)
    anti = swap_map(n) @ random_symplectic(n, rng)
    lhs = _iD(*(apply_symplectic(anti, p, tol) for p in triple), tol)
    rhs = _iD(triple[2], triple[1], triple[0], tol)
    return lhs == rhs, {"lhs": lhs, "rhs": rhs}


def check_subtraction(n, rng, tol):
    triple = _sample_triple(n, rng, tol)
    ga = graph_plane(random_hermitian(n, rng), tol)
    before = _iD(*triple, tol)
    after = _iD(*(difference(p, ga, tol) for p in triple), tol)
    return before == after, {"before": before, "after": after}


def check_inversion(n, rng, tol):
    l1, l2, l3 = _sample_triple(n, rng, tol)
    lhs = _iD(l1, l2, l3, tol)
    rhs = _iD(inverse(l3), inverse(l2), inverse(l1), tol)
    return lhs == rhs, {"lhs": lhs, "rhs": rhs}


def check_relation_vertical(order, n, rng, tol):
    a = random_hermitian(n, rng)
    plane = sample_plane(n, rng, tol)
    closed = duistermaat_relation_vertical(a, plane, order, tol)
    pair = (graph_plane(a, tol), plane) if order == "graph_first" else (plane, graph_plane(a, tol))
    direct = _iD(*pair, vertical_plane(n), tol)
    return closed == direct, {"closed_form": closed, "direct": direct,
                              "mul_dim": decompose(plane, tol).mul_dim}


def check_decompose_reconstruct(n, rng, tol):
    plane = sample_plane(n, rng, tol)
    parts = decompose(plane, tol)
    rebuilt = reconstruct(parts, tol)
    same = planes_equal(rebuilt, plane, tol)
    mul_ok = parts.mul_dim == intersection_dim(plane, vertical_plane(n), tol)
    return same and mul_ok, {"reconstruct_equal": same, "mul_dim": parts.mul_dim}


def check_resolvent_difference(n, rng, tol):
    l1, l2 = sample_plane(n, rng, tol), sample_plane(n, rng, tol)
    # A graph is transversal to the vertical plane, and a generic one to l1 and l2.
    l3 = graph_plane(random_hermitian(n, rng), tol)
    via_relations = index_via_resolvent_difference(l1, l2, l3, tol)
    direct = _iD(l1, l2, l3, tol)
    return via_relations == direct, {"via_relations": via_relations, "direct": direct}


def check_kashiwara_correspondence(n, rng, tol):
    l1, l2, l3 = _sample_triple(n, rng, tol)
    s = kashiwara(l1, l2, l3, tol)
    from_dui = _iD(l2, l1, l3, tol) - _iD(l3, l1, l2, tol)
    d12, d13, d23 = _dims(l1, l2, l3, tol)
    twice = n - d12 + d13 - d23 - s
    dui_back = twice // 2 if twice % 2 == 0 else None
    ok = s == from_dui and dui_back == _iD(l1, l2, l3, tol)
    return ok, {"signature": s, "from_duistermaat": from_dui, "back": dui_back}


def check_omega_kernel(n, rng, tol):
    if n > 1 and rng.random() < 0.5:
        split = int(rng.integers(1, n))
        shared = sample_plane(split, rng, tol)
        l1 = direct_sum_planes(shared, sample_plane(n - split, rng, tol))
        l2 = direct_sum_planes(shared, sample_plane(n - split, rng, tol))
        l3 = sample_plane(n, rng, tol)
    else:
        l1, l2, l3 = _sample_triple(n, rng, tol)
    nullity = inertia(omega_form(l1, l2, l3), tol).n_zero
    dims = sum(_dims(l1, l2, l3, tol))
    return nullity == dims, {"nullity": nullity, "pairwise_sum": dims}


def check_factorization(n, rng, tol):
    l1, l2, l3 = _sample_triple(n, rng, tol)
    eps, _, _ = epsilon_select((l1, l2, l3), tol)
    w = omega_form(l1, l2, l3)
    r1, r2, r3 = robin_matrices((l1, l2, l3), (eps,), tol)[0]
    eye = np.eye(n)
    t = np.block([[-eye, eye, eye], [eye, -eye, eye], [eye, eye, -eye]])
    d = np.zeros((3 * n, 3 * n), dtype=complex)
    mid = np.zeros((3 * n, 3 * n), dtype=complex)
    for j, (p, block) in enumerate(zip((l1, l2, l3), (r3 - r2, r1 - r3, r2 - r1))):
        d[j * n:(j + 1) * n, j * n:(j + 1) * n] = p.x + eps * p.y
        mid[j * n:(j + 1) * n, j * n:(j + 1) * n] = block
    rebuilt = 0.5 * d.conj().T @ t.conj().T @ mid @ t @ d
    residual = float(np.linalg.norm(w - rebuilt))
    bound = tol.residual_tol * max(1.0, np.linalg.norm(w))
    return residual <= bound, {"residual": residual, "bound": bound, "epsilon": eps}


def check_closed_form_graphs(n, rng, tol):
    mats = [random_hermitian(n, rng) for _ in range(3)]
    closed = duistermaat_graphs(*mats, tol=tol)
    direct = _iD(*(graph_plane(m, tol) for m in mats), tol)
    return closed == direct, {"closed_form": closed, "direct": direct}


def check_truth_table(n, rng, tol):
    expected = {
        (0.0, 1.0, 2.0): 0, (1.0, 2.0, 0.0): 0, (2.0, 0.0, 1.0): 0,
        (0.0, 2.0, 1.0): 1, (1.0, 0.0, 2.0): 1, (2.0, 1.0, 0.0): 1,
    }
    got = {}
    ok = True
    for scalars in permutations((0.0, 1.0, 2.0)):
        planes = tuple(graph_plane(np.array([[s]]), tol) for s in scalars)
        values = {method: duistermaat(*planes, tol=tol, method=method).value
                  for method in ("omega", "robin", "reduce", "closed_form")}
        got[scalars] = values
        ok = ok and all(v == expected[scalars] for v in values.values())
    boundary = duistermaat_graphs(np.array([[1.0]]), np.array([[1.0]]), np.array([[0.0]]), tol=tol)
    ok = ok and boundary == 0
    return ok, {"table": {str(k): v for k, v in got.items()}, "boundary_A_eq_B": boundary}


def check_morse_general(n, rng, tol):
    a = random_hermitian(n, rng)
    b = random_hermitian(n, rng)
    lhs = inertia(a - b, tol).n_minus
    rhs = (inertia(a, tol).n_minus - inertia(b, tol).n_minus
           + _iD(horizontal_plane(n), graph_plane(b, tol), graph_plane(a, tol), tol))
    return lhs == rhs, {"lhs": lhs, "rhs": rhs}


def check_invertible_pair(formula, n, rng, tol):
    return _holds(formula(_invertible_hermitian(n, rng, tol), _invertible_hermitian(n, rng, tol), tol))


def _shared_kernel_pair(n, rng, small_kernel, big_kernel):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v, _ = np.linalg.qr(g)
    da = rng.standard_normal(n) + np.sign(rng.standard_normal(n)) * 0.2
    db = rng.standard_normal(n) + np.sign(rng.standard_normal(n)) * 0.2
    if small_kernel:
        da[n - small_kernel:] = 0.0
    if big_kernel:
        db[n - big_kernel:] = 0.0
    return (v @ np.diag(da) @ v.conj().T, v @ np.diag(db) @ v.conj().T)


def check_morse_kernel(case, n, rng, tol):
    small = int(rng.integers(0, n))
    big = int(rng.integers(small, n))
    pair = _shared_kernel_pair(n, rng, small, big)
    a, b = pair if case == "kerA_in_kerB" else pair[::-1]
    return _holds(morse_difference_kernel(a, b, case, tol))


def _redrawn(check):
    """The check, redrawn up to ``_DEGENERATE_RETRIES`` times on degenerate
    or unresolved crossings; the last such error fails the trial."""
    @wraps(check)
    def redrawn(n, rng, tol):
        for attempt in range(_DEGENERATE_RETRIES + 1):
            try:
                return check(n, rng, tol)
            except (DegenerateCrossing, UnresolvedCluster) as exc:
                if attempt == _DEGENERATE_RETRIES:
                    return False, {"error": str(exc)}
    return redrawn


@_redrawn
def check_minimal_path(n, rng, tol):
    l0, l1 = sample_plane(n, rng, tol), sample_plane(n, rng, tol)
    m = sample_plane(n, rng, tol)
    path = ms.minimal_path(l0, l1, tol)
    mas = ms.maslov_index(path, m, tol)
    target = _iD(l0, l1, m, tol)
    return mas == target, {"maslov": mas, "duistermaat": target}


@_redrawn
def check_zwz(n, rng, tol):
    a = random_hermitian(n, rng)
    b = random_hermitian(n, rng)
    m1 = sample_plane(n, rng, tol)
    m2 = sample_plane(n, rng, tol)
    rec = ms.zwz_check(ms.graph_segment(a, b, tol), m1, m2, tol)
    return rec.holds, rec.details


@_redrawn
def check_segment_oracle(n, rng, tol):
    a = random_hermitian(n, rng)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = a + g @ g.conj().T / n + 0.2 * np.eye(n)
    c = random_hermitian(n, rng)
    mas = ms.maslov_index(ms.graph_segment(a, b, tol), graph_plane(c, tol), tol)
    oracle = inertia(a - c, tol).n_minus - inertia(b - c, tol).n_minus
    return mas == oracle, {"maslov": mas, "eig_count_oracle": oracle}


def check_endpoint_conventions(n, rng, tol):
    """Fixed scalar paths that pin the asymmetric endpoint rules: positive
    parts count at t=0 but not t=1, negative parts at t=1 but not t=0."""
    one = np.eye(1)
    up = ms.graph_segment(0 * one, one, tol)
    down = ms.graph_segment(0 * one, -one, tol)
    values = {
        "up_vs_start": ms.maslov_index(up, horizontal_plane(1), tol),
        "up_vs_end": ms.maslov_index(up, graph_plane(one, tol), tol),
        "down_vs_start": ms.maslov_index(down, horizontal_plane(1), tol),
        "down_vs_end": ms.maslov_index(down, graph_plane(-one, tol), tol),
    }
    expected = {"up_vs_start": 1, "up_vs_end": 0, "down_vs_start": 0, "down_vs_end": -1}
    return values == expected, {"values": values, "expected": expected}


@_redrawn
def check_extremal(n, rng, tol):
    l0, l1 = sample_plane(n, rng, tol), sample_plane(n, rng, tol)
    m = sample_plane(n, rng, tol)
    rec = ms.extremal_check(l0, l1, m, trials=2, tol=tol, seed=int(rng.integers(2 ** 31)))
    return rec.holds, rec.details


SUITES: dict[str, list] = {
    "axioms": [
        ("normalization", check_normalization),
        ("symplectic-invariance", check_symplectic_invariance),
        ("cocycle", check_cocycle),
        ("bounds", check_bounds),
        ("method-agreement", check_method_agreement),
    ],
    "permutations": [
        ("special-values", check_special_values),
        ("swap12", check_swap12),
        ("swap23", check_swap23),
        ("swap13", check_swap13),
        ("cyclic-shifts", check_cyclic_shifts),
        ("additivity", check_additivity),
        ("antisymplectic", check_antisymplectic),
    ],
    "relations": [
        ("subtraction", check_subtraction),
        ("inversion", check_inversion),
        ("graph-plane-vertical", partial(check_relation_vertical, "graph_first")),
        ("plane-graph-vertical", partial(check_relation_vertical, "plane_first")),
        ("decompose-reconstruct", check_decompose_reconstruct),
        ("resolvent-difference", check_resolvent_difference),
    ],
    "kashiwara": [
        ("signature-correspondence", check_kashiwara_correspondence),
        ("form-nullity", check_omega_kernel),
    ],
    "graphs": [
        ("closed-form", check_closed_form_graphs),
        ("truth-table", check_truth_table),
        ("morse-general", check_morse_general),
    ],
    "morse-formulas": [
        ("invertible-difference", partial(check_invertible_pair, morse_difference_invertible)),
        ("kernel-case-1", partial(check_morse_kernel, "kerA_in_kerB")),
        ("kernel-case-2", partial(check_morse_kernel, "kerB_in_kerA")),
        ("sum-invertible", partial(check_invertible_pair, morse_sum_invertible)),
        ("haynsworth", partial(check_invertible_pair, haynsworth_check)),
    ],
    "maslov-zwz": [
        ("minimal-path", check_minimal_path),
        ("zhou-wu-zhu", check_zwz),
        ("segment-oracle", check_segment_oracle),
        ("endpoint-conventions", check_endpoint_conventions),
    ],
    "extremal": [
        ("extremal-inequality", check_extremal),
    ],
    "factorization": [
        ("omega-factorization", check_factorization),
    ],
}

_CHECK_IDS = {name: i for i, name in enumerate(
    name for checks in SUITES.values() for name, _ in checks)}
_CHECK_FNS = {name: fn for checks in SUITES.values() for name, fn in checks}


@dataclass
class Failure:
    check: str
    n: int
    trial: int
    seed_entropy: list
    details: dict
    minimized: dict | None = None


@dataclass
class SuiteReport:
    suite: str
    trials: int
    n_values: list
    seed: int
    failures: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "n_values": list(self.n_values),
            "seed": self.seed,
            "checks": list(self.checks),
            "failures": [vars(f) for f in self.failures],
        }


def _minimize(check_fn, n: int, entropy: list, tol) -> dict | None:
    """Shrink a failure by halving the dimension and re-sampling from
    children ``entropy + [size, k]`` of the failing trial's entropy."""
    best = None
    size = n // 2
    while size >= 1:
        for k in range(_MINIMIZE_ATTEMPTS):
            child = entropy + [size, k]
            rng = np.random.default_rng(np.random.SeedSequence(child))
            try:
                ok, details = check_fn(size, rng, tol)
            except LagidxError:
                continue
            if not ok:
                best = {"n": size, "seed_entropy": child, "details": details}
                break
        else:
            break
        size //= 2
    return best


def _grid(n_values, trials, seed, what: str) -> tuple[list[int], int, int]:
    """The dimensions, trials and seed (a ``SeedSequence`` word) of a run that checks something."""
    ns = [_as_dimension(n, f"{what}: n_values entry") for n in n_values]
    if not ns:
        raise ValidationError(f"{what}: n_values names no dimension")
    return ns, _as_dimension(trials, f"{what}: trials"), _as_dimension(seed, f"{what}: seed", 0)


def run_check(check_name: str, n_values, trials: int, seed: int = 0,
              tol: TolerancePolicy = DEFAULT_TOL, minimize: bool = True) -> list[Failure]:
    """Run one named check over the grid of dimensions and trials."""
    n_values, trials, seed = _grid(n_values, trials, seed, "run_check")
    fn = _CHECK_FNS[check_name]
    cid = _CHECK_IDS[check_name]
    failures = []
    for n in n_values:
        for trial in range(trials):
            entropy = [seed, cid, n, trial]
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            try:
                ok, details = fn(n, rng, tol)
            except LagidxError as exc:
                ok, details = False, {"error": f"{type(exc).__name__}: {exc}"}
            if not ok:
                minimized = _minimize(fn, n, entropy, tol) if minimize else None
                failures.append(Failure(check_name, n, trial, entropy, details, minimized))
    return failures


def run_suite(suite: str, n_values=(1, 2, 3, 4, 5, 6), trials: int = 25, seed: int = 0,
              tol: TolerancePolicy = DEFAULT_TOL, minimize: bool = True) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; available: {', '.join(SUITES)}")
    n_values, trials, seed = _grid(n_values, trials, seed, "run_suite")
    report = SuiteReport(suite, trials, n_values, seed,
                         checks=[name for name, _ in SUITES[suite]])
    for name, _ in SUITES[suite]:
        report.failures.extend(run_check(name, n_values, trials, seed, tol, minimize))
    return report


def run_suites(suites, n_values=(1, 2, 3, 4, 5, 6), trials: int = 25, seed: int = 0,
               tol: TolerancePolicy = DEFAULT_TOL) -> list[SuiteReport]:
    return [run_suite(s, n_values, trials, seed, tol) for s in suites]
