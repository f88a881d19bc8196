import numpy as np
import pytest

from lagidx import (
    Inertia,
    NotHermitian,
    TolerancePolicy,
    ValidationError,
    inertia,
    kernel_basis,
    pseudoinverse,
    random_hermitian,
    range_projector,
    rank,
)
from lagidx.hermitian import (
    as_hermitian,
    checked_hermitian_part,
    count_above_cutoff,
    hermitian_part,
    trusted_inertia,
)

# With rank_rel_tol = 1e-9 and largest value 1, the count rule's cutoff is
# exactly 1e-9: a value at the cutoff is zero, the next double above is not.
AT_CUTOFF = 1e-9
ABOVE_CUTOFF = np.nextafter(1e-9, 1.0)


@pytest.mark.parametrize("matrix, expected", [
    (np.diag([1.0, -1.0, 0.0]), (1, 1, 1)),
    (np.eye(4), (0, 0, 4)),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), (1, 0, 1)),
    (np.diag([1.0, AT_CUTOFF, -AT_CUTOFF]), (0, 2, 1)),
    (np.diag([1.0, ABOVE_CUTOFF, -ABOVE_CUTOFF]), (1, 0, 2)),
])
def test_inertia_examples(matrix, expected):
    assert inertia(matrix).as_tuple() == expected


def test_inertia_negation_swaps_counts(rng):
    for n in range(1, 7):
        h = random_hermitian(n, rng)
        h[:, 0] = 0.0
        h[0, :] = 0.0  # force a kernel direction
        h = hermitian_part(h)
        i = inertia(h)
        j = inertia(-h)
        assert (j.n_minus, j.n_zero, j.n_plus) == (i.n_plus, i.n_zero, i.n_minus)


def test_sylvester_invariance(rng):
    # Congruence by any invertible matrix preserves the inertia exactly.
    for n in range(1, 7):
        for _ in range(100):
            h = random_hermitian(n, rng)
            if rng.random() < 0.3 and n > 1:
                v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
                w = rng.standard_normal(n)
                w[: rng.integers(1, n)] = 0.0
                h = hermitian_part(v @ np.diag(w) @ v.conj().T)
            s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert inertia(hermitian_part(s.conj().T @ h @ s)).as_tuple() == inertia(h).as_tuple()


def test_kernel_basis_examples(tol):
    assert kernel_basis(np.zeros((2, 2))).shape == (2, 2)
    assert kernel_basis(np.eye(3)).shape == (3, 0)
    assert kernel_basis(np.diag([1.0, AT_CUTOFF])).shape == (2, 1)
    assert kernel_basis(np.diag([1.0, ABOVE_CUTOFF])).shape == (2, 0)
    k = kernel_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert k.shape == (2, 1)
    expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
    phase = k[0, 0] / expected[0]
    assert np.allclose(k[:, 0], phase * expected)


def test_kernel_dimension_matches_inertia(rng, tol):
    for n in range(1, 7):
        h = random_hermitian(n, rng)
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w = rng.standard_normal(n)
        w[: rng.integers(0, n + 1)] = 0.0
        h = hermitian_part(v @ np.diag(w) @ v.conj().T)
        k = kernel_basis(h, tol)
        assert k.shape[1] == inertia(h, tol).n_zero
        assert np.linalg.norm(h @ k) <= tol.residual_tol * max(1.0, np.linalg.norm(h))
        assert np.allclose(k.conj().T @ k, np.eye(k.shape[1]), atol=1e-12)


def test_pseudoinverse_examples():
    assert np.allclose(pseudoinverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))
    assert np.allclose(pseudoinverse(np.eye(5)), np.eye(5))
    # rank one: H = v v* with |v| = 2, so H^+ = v v* / 16
    v = np.array([2.0, 0.0])
    h = np.outer(v, v.conj())
    hp = pseudoinverse(h)
    assert np.allclose(hp, h / 16.0)
    assert np.allclose(h @ hp @ h, h)


def test_penrose_identities(rng, tol):
    for n in range(1, 7):
        v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        w = rng.standard_normal(n)
        w[: rng.integers(0, n)] = 0.0
        h = hermitian_part(v @ np.diag(w) @ v.conj().T)
        hp = pseudoinverse(h, tol)
        assert np.linalg.norm(h @ hp @ h - h) <= tol.residual_tol * max(1.0, np.linalg.norm(h))
        assert np.linalg.norm(hp @ h @ hp - hp) <= tol.residual_tol * max(1.0, np.linalg.norm(hp))
        assert np.linalg.norm((h @ hp).conj().T - h @ hp) <= tol.residual_tol
        assert np.linalg.norm((hp @ h).conj().T - hp @ h) <= tol.residual_tol
        # involution
        assert np.allclose(pseudoinverse(hp, tol), h, atol=1e-8 * max(1.0, np.linalg.norm(h)))


def test_range_projector_examples(tol):
    assert np.allclose(range_projector(np.diag([3.0, 0.0])), np.diag([1.0, 0.0]))
    assert np.allclose(range_projector(np.zeros((3, 3))), np.zeros((3, 3)))
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    p = np.outer(v, v.conj())
    assert np.allclose(range_projector(p), p)
    q = range_projector(np.diag([1.0, -2.0, 0.0]))
    assert np.allclose(q @ q, q)
    assert np.allclose(q, q.conj().T)


def test_rank(tol):
    assert rank(np.zeros((3, 3)), tol) == 0
    assert rank(np.eye(3), tol) == 3
    assert rank(np.array([[1.0, 1.0], [1.0, 1.0]]), tol) == 1
    assert rank(np.diag([1.0, AT_CUTOFF]), tol) == 1
    assert rank(np.diag([1.0, ABOVE_CUTOFF]), tol) == 2
    # With s_max < 1 the floor of 1 keeps the cutoff at 1e-9, so 6e-10
    # is dropped although s_max / s_min < 1e9.
    small = np.diag([0.5, 6e-10])
    assert rank(small, tol) == 1


def test_count_rule_refuses_a_scaled_identity_up_to_the_cutoff(tol):
    # Rounding noise and a multiple of the identity at the 1e-9 cutoff
    # have s_max / s_min = 1, yet count-rule rank 0; the next double above
    # the cutoff has full rank.
    assert rank(1e-16 * np.eye(3), tol) == 0
    assert rank(AT_CUTOFF * np.eye(3), tol) == 0
    assert rank(ABOVE_CUTOFF * np.eye(3), tol) == 3


def test_stacked_rules_decide_each_matrix_alone(tol):
    # Scales from 1e-4 to 1e6 in one stack, and values exactly at and just
    # above the 1e-9 cutoff: a cutoff shared across the stack (1e-3 from
    # the 1e6 slice) would zero every small value below.
    diagonals = [
        (1e6, 1e-4),
        (1.0, 1e-10),
        (1.0, AT_CUTOFF),
        (1.0, -ABOVE_CUTOFF),
        (-0.5, 6e-10),
        (1e-4, -1e-4),
    ]
    stack = np.array([np.diag(d) for d in diagonals], dtype=complex)
    ranks = count_above_cutoff(np.linalg.svd(stack, compute_uv=False), tol)
    assert ranks.tolist() == [rank(m, tol) for m in stack] == [1, 1, 1, 2, 1, 2]
    inertias = trusted_inertia(stack, tol)
    assert inertias == [inertia(m, tol) for m in stack]
    assert [i.as_tuple() for i in inertias] == [
        (0, 1, 1), (0, 1, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 0, 1)]


def test_count_rule_reads_the_leading_singular_value(tol):
    # The scale of each set is its first singular value; the counts match
    # the README formula, whose scale is the largest absolute value.
    def readme_count(values):
        cut = tol.rank_rel_tol * max(1.0, np.max(np.abs(values), initial=0.0))
        return int(np.sum(values > cut))

    empty = np.zeros((2, 0))
    assert count_above_cutoff(empty, tol).tolist() == [0, 0]
    assert count_above_cutoff(empty[0], tol) == 0
    diagonals = [
        (0.0, 0.0, 0.0),
        (1.0, AT_CUTOFF, 0.0),
        (1.0, ABOVE_CUTOFF, AT_CUTOFF),
        (1e6, -2e-3, 1e-4),
    ]
    s = np.linalg.svd(np.array([np.diag(d) for d in diagonals], dtype=complex), compute_uv=False)
    expected = [readme_count(v) for v in s]
    assert expected == [0, 1, 2, 2]
    assert count_above_cutoff(s, tol).tolist() == expected
    assert [count_above_cutoff(v, tol) for v in s] == expected


def test_trusted_inertia_stack_with_zero_matrices(tol):
    zero = np.zeros((3, 3))
    stack = np.array([
        zero,
        np.diag([1.0, -AT_CUTOFF, AT_CUTOFF]),
        zero,
        np.diag([-2.0, ABOVE_CUTOFF, 0.0]),
        np.diag([-1.0, -ABOVE_CUTOFF, ABOVE_CUTOFF]),
        zero,
    ], dtype=complex)
    inertias = trusted_inertia(stack, tol)
    assert inertias == [trusted_inertia(m, tol) for m in stack]
    assert [i.as_tuple() for i in inertias] == [
        (0, 3, 0), (0, 2, 1), (0, 3, 0), (1, 2, 0), (2, 0, 1), (0, 3, 0)]


def test_checked_hermitian_part_names_the_first_failing_entry(tol):
    stack = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]], [[0.0, 2.0], [0.0, 0.0]]], dtype=complex)
    with pytest.raises(NotHermitian, match=r"^second asymmetry 1\.414e\+00 "):
        checked_hermitian_part(stack, tol, NotHermitian, ["first", "second", "third"])
    with pytest.raises(NotHermitian, match=r"^stack asymmetry 2\.828e\+00 "):
        checked_hermitian_part(stack, tol, NotHermitian, "stack")


def test_tolerance_policy_validation():
    with pytest.raises(ValidationError):
        TolerancePolicy(rank_rel_tol=0.0)
    with pytest.raises(ValidationError):
        TolerancePolicy(residual_tol=2.0)


def test_rejects_bad_input():
    with pytest.raises(NotHermitian):
        inertia(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        inertia(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValidationError):
        as_hermitian(np.ones((2, 3)))


def test_inertia_dataclass():
    i = Inertia(1, 2, 3)
    assert i.dim == 6
    assert i.signature == 2
