import numpy as np
import pytest

from lagidx import (
    DegenerateCrossing,
    NoCrossing,
    UnresolvedCluster,
    ValidationError,
    apply_symplectic,
    crossing_form,
    direct_sum_planes,
    duistermaat_omega,
    extremal_check,
    find_crossings,
    graph_plane,
    graph_segment,
    horizontal_plane,
    inertia,
    intersection_dim,
    is_nondecreasing,
    maslov_index,
    minimal_path,
    plane_from_frame,
    random_plane,
    random_plane_with_mul,
    random_symplectic,
    reparametrize,
    scaled_projector_path,
    vertical_plane,
    zwz_check,
)
from lagidx import document as doc
from lagidx.hermitian import random_hermitian
from lagidx.maslov import custom_path, index_from_crossings


def scalar_graph(s):
    return graph_plane(np.array([[float(s)]]))


def scalar_segment(a, b):
    return graph_segment(np.array([[float(a)]]), np.array([[float(b)]]))


def test_crossing_form_scalar():
    path = scalar_segment(0, 1)
    form = crossing_form(path, 0.5, scalar_graph(0.5))
    assert form.shape == (1, 1)
    assert inertia(form).as_tuple() == (0, 0, 1)
    with pytest.raises(NoCrossing):
        crossing_form(path, 0.25, scalar_graph(0.5))


def test_crossing_form_scaled_projector():
    q = np.diag([1.0, 1.0, 0.0])
    path = scaled_projector_path(q)
    # at t=1/2 the path graph(tQ) meets graph(Q/2) in the Q-eigenspace
    m = graph_plane(q / 2)
    form = crossing_form(path, 0.5, m)
    i = inertia(form)
    assert i.n_minus == 0  # the form is <x, Qx> restricted, never negative
    assert i.n_plus >= 1


def test_find_crossings_examples():
    crossings = find_crossings(scalar_segment(0, 1), scalar_graph(0.5))
    assert len(crossings) == 1
    assert crossings[0].t == pytest.approx(0.5, abs=1e-9)
    assert crossings[0].dim == 1
    assert find_crossings(scalar_segment(0, 1), scalar_graph(2)) == []
    with pytest.raises(DegenerateCrossing):
        find_crossings(scalar_segment(0, 0), horizontal_plane(1))


def test_maslov_examples():
    assert maslov_index(scalar_segment(0, 1), scalar_graph(0.5)) == 1
    # crossing at t=0 with positive form counts, at t=1 it does not
    assert maslov_index(scalar_segment(0, 1), scalar_graph(0)) == 1
    assert maslov_index(scalar_segment(0, 1), scalar_graph(1)) == 0
    assert maslov_index(scalar_segment(0, 1), scalar_graph(2)) == 0
    # negative-direction segments: n_- counts at t=1 but not at t=0
    assert maslov_index(scalar_segment(0, -1), scalar_graph(0)) == 0
    assert maslov_index(scalar_segment(0, -1), scalar_graph(-1)) == -1


def test_multidim_crossings():
    a = np.zeros((2, 2))
    b = np.diag([2.0, 1.0])
    m = graph_plane(np.diag([1.0, 0.5]))
    crossings = find_crossings(graph_segment(a, b), m)
    assert [round(c.t, 6) for c in crossings] == [0.5]
    assert crossings[0].dim == 2  # both eigenvalue branches cross together
    assert maslov_index(graph_segment(a, b), m) == 2


def test_crossings_inside_one_grid_cell():
    # 2e-4 apart: both fall in one cell of a 2048-point grid
    path = graph_segment(np.zeros((2, 2)), np.eye(2))
    crossings = find_crossings(path, graph_plane(np.diag([0.3, 0.3002])))
    assert [c.t for c in crossings] == pytest.approx([0.3, 0.3002], abs=1e-12)
    assert maslov_index(path, graph_plane(np.diag([0.3, 0.3002]))) == 2


def test_steep_crossing_near_an_end_stays_inside():
    # slope 20 puts the root 5e-10 after t=0, where |K(0)| = 1e-8 is
    # above the cutoff: the crossing must not be moved onto the end
    crossings = find_crossings(scalar_segment(0, 20), scalar_graph(1e-8))
    assert [c.t for c in crossings] == pytest.approx([5e-10], abs=1e-15)
    assert maslov_index(scalar_segment(0, 20), scalar_graph(1e-8)) == 1


def test_crossing_next_to_a_probe_shift():
    # one eigenvalue sits 1e-8 from the first probe shift, 0.618034
    for seed in range(40):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        m = graph_plane(u @ np.diag([0.618034, 0.3]) @ u.conj().T)
        crossings = find_crossings(graph_segment(np.zeros((2, 2)), np.eye(2)), m)
        assert [c.t for c in crossings] == pytest.approx([0.3, 0.618034], abs=1e-12)


def test_double_crossing_in_rotated_coordinates(rng):
    # a unitary change of basis splits the double root by rounding only
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    rotate = lambda d: u @ np.diag(d) @ u.conj().T
    path = graph_segment(np.zeros((3, 3)), rotate([2.0, 2.0, 1.0]))
    crossings = find_crossings(path, graph_plane(rotate([1.0, 1.0, 3.0])))
    assert len(crossings) == 1
    assert crossings[0].t == pytest.approx(0.5, abs=1e-12)
    assert crossings[0].dim == 2
    assert crossings[0].form_inertia.as_tuple() == (0, 0, 2)


def test_scaled_projector_crossings(rng):
    # K1 is singular: the pencil has roots at infinity along ker Q
    q = np.diag([1.0, 1.0, 0.0])
    crossings = find_crossings(scaled_projector_path(q), graph_plane(np.diag([0.5, 2.0, -1.0])))
    assert [(round(c.t, 12), c.dim) for c in crossings] == [(0.5, 1)]
    for _ in range(5):
        m = random_plane(3, rng)
        assert maslov_index(scaled_projector_path(q), m) == \
            duistermaat_omega(horizontal_plane(3), graph_plane(q), m).value


def test_path_reversal_negates_interior_index():
    assert maslov_index(scalar_segment(1, 0), scalar_graph(0.5)) == -1
    assert maslov_index(scalar_segment(-1, 2), scalar_graph(0.7)) == \
        -maslov_index(scalar_segment(2, -1), scalar_graph(0.7))


def test_concatenation_additivity(rng):
    # splitting a segment at a non-crossing junction adds the pieces
    for _ in range(10):
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        c = random_hermitian(2, rng)
        s = float(rng.uniform(0.2, 0.8))
        mid = a + s * (b - a)
        whole = maslov_index(graph_segment(a, b), graph_plane(c))
        left = maslov_index(graph_segment(a, mid), graph_plane(c))
        right = maslov_index(graph_segment(mid, b), graph_plane(c))
        assert whole == left + right


def test_is_nondecreasing():
    assert is_nondecreasing(graph_segment(np.zeros((2, 2)), np.eye(2)))
    assert is_nondecreasing(scaled_projector_path(np.diag([1.0, 0.0])))
    assert not is_nondecreasing(graph_segment(np.zeros((2, 2)), -np.eye(2)))
    assert is_nondecreasing(scalar_knot_path([0.0, 0.25, 1.0]))
    assert not is_nondecreasing(scalar_knot_path([0.0, 0.25, 0.0]))
    phi = lambda t: t * t * (3 - 2 * t)
    dphi = lambda t: 6 * t * (1 - t)
    assert not is_nondecreasing(reparametrize(scalar_segment(1, 0), phi, dphi))
    # the callable path keeps the sampled check
    assert is_nondecreasing(custom_path(lambda t: (np.eye(1), np.array([[t]])), 1))


def scalar_knot_path(values, grid=(0.0, 0.5, 1.0), n=1):
    """Document custom path through the graphs of the given multiples of
    the n x n identity."""
    frames = [{"x": doc.encode_matrix(np.eye(n)), "y": doc.encode_matrix(v * np.eye(n))}
              for v in values]
    raw = doc.new_document({"p": {"type": "path", "kind": "custom", "grid": list(grid),
                                  "frames": frames}})
    return doc.Document(raw).path("p")


def test_path_kinds(rng):
    # bench/tracer.py groups find_crossings spans by these strings
    base = minimal_path(random_plane(2, rng), random_plane(2, rng))
    phi = lambda t: t * t * (3 - 2 * t)
    dphi = lambda t: 6 * t * (1 - t)
    kinds = [scalar_segment(0, 1).kind, scaled_projector_path(np.eye(1)).kind, base.kind,
             scalar_knot_path([0.0, 0.25, 1.0]).kind, reparametrize(base, phi, dphi).kind]
    assert kinds == ["graph_segment", "scaled_projector", "minimal", "custom",
                     "reparametrized(minimal)"]


def test_document_path_frames_match_its_pieces():
    # frame_at is the pencil's own formula, so the kernel test at a root
    # sees exactly the pairing whose roots the pencil found
    path = scalar_knot_path([0.1, 0.7, -1.3, 2.9], grid=(0.0, 0.17, 0.41, 1.0), n=2)
    for lo, hi, x, y, xd, yd in path.pieces():
        for t in np.linspace(lo, hi, 8)[:-1]:
            px, py = path.frame_at(t)
            assert np.array_equal(px, x + (t - lo) * xd) and np.array_equal(py, y + (t - lo) * yd)
    # and it passes through the document's knot frames
    for t, v in zip((0.0, 0.17, 0.41, 1.0), (0.1, 0.7, -1.3, 2.9)):
        px, py = path.frame_at(t)
        assert np.array_equal(px, np.eye(2))
        assert np.allclose(py, v * np.eye(2), rtol=0, atol=1e-15)


@pytest.mark.xfail(strict=True, reason="the 2048-point grid of a callable path merges two "
                   "crossings 2e-4 apart into one valley; ROADMAP item 4 (spectral flow) "
                   "replaces the grid")
def test_callable_path_crossings_inside_one_grid_cell():
    path = custom_path(lambda t: (np.eye(2), t * np.eye(2)), 2)
    assert maslov_index(path, graph_plane(np.diag([0.3, 0.3002]))) == 2


def test_crossing_at_interior_knot():
    # up with slope 1/2 then slope 3/2: one positive crossing at the knot
    crossings = find_crossings(scalar_knot_path([0.0, 0.25, 1.0]), scalar_graph(0.25))
    assert [(c.t, c.dim, c.form_inertia.as_tuple()) for c in crossings] == [(0.5, 1, (0, 0, 1))]
    assert maslov_index(scalar_knot_path([0.0, 0.25, 1.0]), scalar_graph(0.25)) == 1
    # up then down: the two sides disagree, so the touching is not a crossing
    with pytest.raises(DegenerateCrossing, match="knot t=0.5"):
        find_crossings(scalar_knot_path([0.0, 0.25, 0.0]), scalar_graph(0.25))
    # steep right piece: the root 5e-10 after the knot, where |K| is about
    # 7e-7, stays inside the right piece
    crossings = find_crossings(scalar_knot_path([0.0, 1.0, 1000.0]), scalar_graph(1 + 1e-6))
    assert [c.t for c in crossings] == pytest.approx([0.5 + 1e-6 / 1998], abs=1e-15)
    assert maslov_index(scalar_knot_path([0.0, 1.0, 1000.0]), scalar_graph(1 + 1e-6)) == 1
    # crossings inside the pieces, one per piece
    path = scalar_knot_path([0.0, 1.0, 0.0])
    assert [round(c.t, 12) for c in find_crossings(path, scalar_graph(0.5))] == [0.25, 0.75]
    assert maslov_index(path, scalar_graph(0.5)) == 0


def test_roots_near_a_knot_from_beyond_the_piece():
    # the left pencil, extended past the knot at 0.3, has a root 6e-10
    # after it; the path crosses once, 1.4e-9 after the knot
    path = scalar_knot_path([0.0, 0.5, 1.0], grid=(0.0, 0.3, 1.0))
    crossings = find_crossings(path, scalar_graph(0.5 + 1e-9))
    assert [c.t for c in crossings] == pytest.approx([0.3 + 1.4e-9], abs=1e-15)
    assert maslov_index(path, scalar_graph(0.5 + 1e-9)) == 1
    # the right pencil joins its root 5e-10 after the knot with one 5e-10
    # before it, from the crossing of the left piece: two roots where the
    # intersection is trivial cannot be resolved
    with pytest.raises(UnresolvedCluster):
        find_crossings(scalar_knot_path([0.0, 20.0, 1020.0], n=2),
                       graph_plane(np.diag([20 - 1e-6, 20 + 1e-6])))


def test_reparametrized_crossings_map_back(rng):
    phi = lambda t: 0.3 * t + 0.7 * t * t * (3 - 2 * t)
    dphi = lambda t: 0.3 + 4.2 * t * (1 - t)
    seen = 0
    for n in (1, 2, 3, 4):
        base = minimal_path(random_plane(n, rng), random_plane(n, rng))
        m = random_plane(n, rng)
        plain = find_crossings(base, m)
        mapped = find_crossings(reparametrize(base, phi, dphi), m)
        assert [(c.dim, c.form_inertia) for c in mapped] == [(c.dim, c.form_inertia) for c in plain]
        assert [phi(c.t) for c in mapped] == pytest.approx([c.t for c in plain], abs=1e-12)
        seen += len(plain)
    assert seen >= 2


def test_reparametrization_keeps_index(rng):
    path = graph_segment(np.diag([-1.0, -0.5]), np.diag([2.0, 1.5]))
    m = graph_plane(random_hermitian(2, rng) * 0.3)
    base = maslov_index(path, m)
    phi = lambda t: t * t * (3 - 2 * t)
    dphi = lambda t: 6 * t * (1 - t)
    assert maslov_index(reparametrize(path, phi, dphi), m) == base
    with pytest.raises(ValidationError):
        reparametrize(path, lambda t: 1 - t, lambda t: -1.0)
    # Fixes both ends but turns back near t = 1/2 (phi' = -0.88 there):
    # the segment 0 -> 1 would cross graph(0.5) up, down and up again.
    with pytest.raises(ValidationError):
        reparametrize(scalar_segment(0, 1), lambda t: t + 0.3 * np.sin(2 * np.pi * t),
                      lambda t: 1 + 0.6 * np.pi * np.cos(2 * np.pi * t))


def test_custom_path_finite_differences():
    # custom wrapper around an analytic segment reproduces its crossings
    a, b = np.array([[0.0]]), np.array([[1.0]])
    path = custom_path(lambda t: (np.eye(1), a + t * (b - a)), 1)
    assert maslov_index(path, scalar_graph(0.5)) == 1


def test_callable_path_near_miss_is_decided_at_its_own_point():
    # The pairing dips to 1e-7 at t = 0.3 and reaches 1e3 at t = 1.  The
    # grid's cutoff, scaled by 1e3, makes the dip a candidate, but the
    # point's own pairing has count-rule rank 1: no crossing, as for the
    # same path scaled to 1, whose dip is not even a candidate.
    for scale in (1000.0, 1.0):
        path = custom_path(
            lambda t, s=scale: (np.eye(1), np.array([[1e-7 + (s / 0.49) * (t - 0.3) ** 2]])), 1)
        assert find_crossings(path, horizontal_plane(1)) == []


def test_custom_path_reads_its_derivative_fn():
    # graph(t diag(1, 2)) meets graph(diag(0.25, 1.5)) at t = 0.25 and
    # t = 0.75.  The crossing forms come from derivative_fn: the true
    # derivative gives +2, a sign-flipped one gives -2.
    b = np.diag([1.0, 2.0])
    frame = lambda t: (np.eye(2), t * b)
    reference = graph_plane(np.diag([0.25, 1.5]))
    up = custom_path(frame, 2, derivative_fn=lambda t: (np.zeros((2, 2)), b))
    flipped = custom_path(frame, 2, derivative_fn=lambda t: (np.zeros((2, 2)), -b))
    assert [round(c.t, 9) for c in find_crossings(up, reference)] == [0.25, 0.75]
    assert maslov_index(up, reference) == 2
    assert maslov_index(flipped, reference) == -2
    assert is_nondecreasing(up) and not is_nondecreasing(flipped)


def test_minimal_path_examples():
    # G_0 to graph(Q): the straight projector path qualifies
    q = np.diag([1.0, 0.0])
    path = minimal_path(horizontal_plane(2), graph_plane(q))
    assert is_nondecreasing(path)
    for m in (vertical_plane(2), graph_plane(np.diag([0.5, 2.0])), graph_plane(-np.eye(2))):
        assert maslov_index(path, m) == duistermaat_omega(horizontal_plane(2), graph_plane(q), m).value
    # identical endpoints: constant path with zero index on regular data
    same = minimal_path(scalar_graph(1), scalar_graph(1))
    assert maslov_index(same, scalar_graph(0)) == 0
    # n=1 example against the vertical reference
    path = minimal_path(horizontal_plane(1), scalar_graph(1))
    assert maslov_index(path, vertical_plane(1)) == 0


def test_minimal_path_random(rng, tol):
    for trial in range(20):
        n = 1 + trial % 4
        l0 = random_plane(n, rng)
        l1 = random_plane_with_mul(n, trial % 2, rng) if trial % 3 else random_plane(n, rng)
        m = random_plane(n, rng)
        path = minimal_path(l0, l1, tol)
        assert planes_same(path, 0.0, l0) and planes_same(path, 1.0, l1)
        assert is_nondecreasing(path, tol)
        assert maslov_index(path, m, tol) == duistermaat_omega(l0, l1, m, tol).value
    # Planes that meet: S(C + A) and S(C + B) share the k-dimensional
    # factor C, scrambled by a random symplectic map S.
    for n in range(2, 7):
        for k in range(1, n):
            s = random_symplectic(n, rng)
            common = random_plane(k, rng)
            l0, l1 = (apply_symplectic(s, direct_sum_planes(common, random_plane(n - k, rng)))
                      for _ in range(2))
            m = random_plane(n, rng)
            assert intersection_dim(l0, l1, tol) == k
            path = minimal_path(l0, l1, tol)
            assert planes_same(path, 0.0, l0) and planes_same(path, 1.0, l1)
            assert is_nondecreasing(path, tol)
            assert maslov_index(path, m, tol) == duistermaat_omega(l0, l1, m, tol).value


def planes_same(path, t, plane):
    endpoint = plane_from_frame(*path.frame_at(t))
    return intersection_dim(endpoint, plane) == plane.n


def test_zwz_identity(rng):
    rec = zwz_check(scalar_segment(0, 1), scalar_graph(0.5), scalar_graph(2))
    assert rec.holds
    assert rec.details["maslov_m1"] - rec.details["maslov_m2"] == 1
    rec = zwz_check(scalar_segment(0, 1), scalar_graph(0.5), scalar_graph(0.5))
    assert rec.holds and rec.lhs == 0
    for _ in range(10):
        a, b = random_hermitian(2, rng), random_hermitian(2, rng)
        m1, m2 = random_plane(2, rng), random_plane(2, rng)
        assert zwz_check(graph_segment(a, b), m1, m2).holds


def test_extremal_inequality(rng):
    rec = extremal_check(horizontal_plane(1), scalar_graph(1), scalar_graph(1.5),
                         trials=4, seed=2)
    assert rec.holds
    assert all(v >= rec.rhs for v in rec.details["samples"])
    # loops based at one plane have nonnegative index against any reference
    plane = random_plane(2, rng)
    rec = extremal_check(plane, plane, random_plane(2, rng), trials=2, seed=3)
    assert rec.holds and rec.rhs == 0


def test_segment_eigenvalue_oracle(rng):
    # for strictly increasing segments the index counts eigenvalues of
    # A + t(B-A) passing the reference level, an independent computation
    for _ in range(25):
        n = int(rng.integers(1, 5))
        a = random_hermitian(n, rng)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = a + g @ g.conj().T / n + 0.2 * np.eye(n)
        c = random_hermitian(n, rng)
        mas = maslov_index(graph_segment(a, b), graph_plane(c))
        assert mas == inertia(a - c).n_minus - inertia(b - c).n_minus


def test_degenerate_cases_raise():
    q = np.diag([1.0, 0.0])
    # reference sharing a constant intersection with the moving path
    path = scaled_projector_path(q)
    with pytest.raises(DegenerateCrossing):
        find_crossings(path, graph_plane(np.diag([0.5, 0.0])))


def test_segment_inside_the_reference_plane_is_degenerate(rng):
    # The constant segment at A lies wholly inside graph(A): the pencil is
    # rounding noise on the whole piece and must not give "no crossings".
    for n in range(1, 5):
        for _ in range(5):
            a = random_hermitian(n, rng)
            with pytest.raises(DegenerateCrossing):
                find_crossings(graph_segment(a, a), graph_plane(a))
    # Both ends meet the horizontal plane in a line, and so does every
    # point between: the pairing's s_max < 1 must not hide that.
    ends = (np.diag([0.2, 3e-10]), np.diag([0.5, 5e-10]))
    assert [intersection_dim(horizontal_plane(2), graph_plane(e)) for e in ends] == [1, 1]
    with pytest.raises(DegenerateCrossing):
        find_crossings(graph_segment(*ends), horizontal_plane(2))


def test_minimal_path_from_a_plane_to_itself_is_degenerate(rng):
    for n in range(1, 5):
        for _ in range(5):
            plane = random_plane(n, rng)
            with pytest.raises(DegenerateCrossing):
                find_crossings(minimal_path(plane, plane), plane)


def test_index_from_crossings_is_pure():
    from lagidx import Crossing, Inertia

    crossings = [
        Crossing(0.0, 1, Inertia(0, 0, 1)),
        Crossing(0.5, 2, Inertia(1, 0, 1)),
        Crossing(1.0, 1, Inertia(1, 0, 0)),
    ]
    # start: +1; interior: +1-1; end: -1
    assert index_from_crossings(crossings) == 0
