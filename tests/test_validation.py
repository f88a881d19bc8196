"""Each input condition is checked by one helper, called at every public
entry point that needs it: a finite matrix in any memory layout, a
Lagrangian plane argument (planes of one dimension), matrices of one
shape, a dimension or count argument that is an integer >= 1, a seed,
and a path the Maslov pencils can solve.

The finite-matrix condition is run at every public entry point that
takes a matrix: a non-numeric or ragged argument, and a map with NaN
entries, raise ValidationError, never numpy's own errors or a False or
NaN result.  Scalar arguments that are not real numbers (a Robin
epsilon, a tolerance, a crossing parameter, the values of a schedule)
raise ValidationError naming the argument."""

import inspect

import numpy as np
import pytest

import lagidx
from lagidx import (
    LagrangianPlane,
    RelationParts,
    TolerancePolicy,
    ValidationError,
    apply_symplectic,
    compress,
    difference,
    direct_sum_maps,
    duistermaat,
    duistermaat_graphs,
    duistermaat_relation_vertical,
    custom_path,
    extremal_check,
    find_crossings,
    graph_plane,
    graph_segment,
    haynsworth_check,
    horizontal_plane,
    index_via_resolvent_difference,
    inertia,
    intersection_dim,
    is_antisymplectic,
    is_nondecreasing,
    is_symplectic,
    kashiwara,
    kernel_basis,
    minimal_path,
    morse_difference_invertible,
    morse_difference_kernel,
    morse_sum_invertible,
    n_minus,
    omega_form,
    plane_from_frame,
    plane_from_stacked,
    planes_equal,
    pseudoinverse,
    random_hermitian,
    random_plane,
    random_plane_with_mul,
    random_symplectic,
    range_projector,
    rank,
    reconstruct,
    reparametrize,
    robin_map,
    scaled_projector_path,
    standard_form,
    swap_map,
    vertical_plane,
    zwz_check,
)
from lagidx.maslov import crossing_form
from lagidx.planes import (
    epsilon_select,
    pairing_matrix,
    robin_matrices,
    transversal_companion,
    transversal_normalization,
)

RNG = np.random.default_rng(5)
H = np.array([[1.0, 2j, 0.5], [-2j, 3.0, 1 - 1j], [0.5, 1 + 1j, -1.0]])  # Hermitian, invertible
B = np.diag([2.0, -1.0, 0.5]).astype(complex)
PLANE = random_plane(3, RNG)


def frames(plane):
    return plane.x, plane.y


# Each op takes a matrix-valued argument builder ``m``: called with the
# transposed view of a C-ordered array, or with its contiguous copy.
TRANSPOSED = {
    "inertia": lambda m: inertia(m(H.T)),
    "graph_plane": lambda m: frames(graph_plane(m(H.T))),
    "plane_from_frame": lambda m: frames(plane_from_frame(m(PLANE.x.T.copy().T), m(PLANE.y.T.copy().T))),
    "morse_difference_invertible": lambda m: morse_difference_invertible(m(H.T), B),
    "duistermaat_graphs": lambda m: duistermaat_graphs(m(H.T), H, H),
}


@pytest.mark.parametrize("name", sorted(TRANSPOSED))
def test_transposed_view_gives_the_result_of_its_contiguous_copy(name):
    op = TRANSPOSED[name]
    view = op(lambda a: a)
    copy = op(np.ascontiguousarray)
    if isinstance(view, tuple):
        assert all(np.array_equal(v, c) for v, c in zip(view, copy))
    else:
        assert view == copy


L2, M2, K2 = (random_plane(2, RNG) for _ in range(3))
L3 = random_plane(3, RNG)
PATH2 = minimal_path(L2, M2)

MISMATCHED = {
    "pairing_matrix": lambda: pairing_matrix(L2, L3),
    "intersection_dim": lambda: intersection_dim(L2, L3),
    "planes_equal": lambda: planes_equal(L2, L3),
    "duistermaat-omega": lambda: duistermaat(L2, M2, L3, method="omega"),
    "duistermaat-robin": lambda: duistermaat(L2, M2, L3, method="robin"),
    "duistermaat-reduce": lambda: duistermaat(L2, M2, L3, method="reduce"),
    "duistermaat-closed_form": lambda: duistermaat(L2, M2, L3, method="closed_form"),
    "kashiwara": lambda: kashiwara(L2, M2, L3),
    "omega_form": lambda: omega_form(L2, M2, L3),
    "minimal_path": lambda: minimal_path(L2, L3),
    "difference": lambda: difference(L2, L3),
    "transversal_normalization": lambda: transversal_normalization(L2, L3),
    "epsilon_select": lambda: epsilon_select([L2, L3]),
    "transversal_companion": lambda: transversal_companion([L2, M2, L3]),
    "index_via_resolvent_difference": lambda: index_via_resolvent_difference(L2, M2, L3),
    "find_crossings": lambda: find_crossings(PATH2, L3),
    "crossing_form": lambda: crossing_form(PATH2, 0.5, L3),
    "zwz_check": lambda: zwz_check(PATH2, K2, L3),
    "extremal_check": lambda: extremal_check(L2, M2, L3, [K2]),
    "extremal_check-waypoint": lambda: extremal_check(L2, M2, K2, [K2, L3]),
}

BAD_DIMENSIONS = {
    "standard_form-2.5": lambda: standard_form(2.5),
    "swap_map-2.5": lambda: swap_map(2.5),
    "swap_map-0": lambda: swap_map(0),
    "horizontal_plane-2.5": lambda: horizontal_plane(2.5),
    "vertical_plane-2.5": lambda: vertical_plane(2.5),
    "random_symplectic-2.5": lambda: random_symplectic(2.5, 0),
    "random_plane-2.5": lambda: random_plane(2.5, 0),
    "random_plane_with_mul-mul_dim-1.5": lambda: random_plane_with_mul(3, 1.5, 0),
    "random_plane_with_mul-mul_dim-4": lambda: random_plane_with_mul(3, 4, 0),
    "random_hermitian-2.5": lambda: random_hermitian(2.5, np.random.default_rng(0)),
    "random_hermitian--1": lambda: random_hermitian(-1, np.random.default_rng(0)),
    "random_hermitian-0": lambda: random_hermitian(0, np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", list(MISMATCHED) + list(BAD_DIMENSIONS))
def test_mismatched_planes_and_bad_dimensions_raise_validation_error(name):
    with pytest.raises(ValidationError):
        {**MISMATCHED, **BAD_DIMENSIONS}[name]()


UNEQUAL_SHAPES = {
    "graph_segment": lambda: graph_segment(np.eye(2), np.eye(3)),
    "duistermaat_graphs": lambda: duistermaat_graphs(H, H, np.eye(2)),
    "duistermaat_relation_vertical": lambda: duistermaat_relation_vertical(np.eye(2), PLANE, "graph_first"),
    "custom_path": lambda: custom_path([0.0, 1.0], [np.eye(2), np.eye(3)], [np.zeros((2, 2)), np.eye(3)]),
}


@pytest.mark.parametrize("name", sorted(UNEQUAL_SHAPES))
def test_unequal_matrix_shapes_raise_one_validation_error(name):
    with pytest.raises(ValidationError, match=r"matrix shapes \(.*\) differ"):
        UNEQUAL_SHAPES[name]()


def test_integer_dimensions_are_accepted_as_numpy_integers():
    n = np.int64(2)
    assert standard_form(n).shape == swap_map(n).shape == (4, 4)
    assert planes_equal(horizontal_plane(n), graph_plane(np.zeros((2, 2))))
    assert intersection_dim(random_plane_with_mul(3, np.int64(1), 0), vertical_plane(3)) == 1
    assert intersection_dim(random_plane_with_mul(2, True, 0), vertical_plane(2)) == 1


# Every public entry point that takes a matrix, fed the matrix ``m`` in
# one argument and valid data in the others.
EYE2 = np.eye(2)
MATRIX_ENTRY_POINTS = {
    "inertia": inertia,
    "n_minus": n_minus,
    "rank": rank,
    "kernel_basis": kernel_basis,
    "pseudoinverse": pseudoinverse,
    "range_projector": range_projector,
    "graph_plane": graph_plane,
    "plane_from_frame": lambda m: plane_from_frame(m, EYE2),
    "plane_from_stacked": plane_from_stacked,
    "apply_symplectic": lambda m: apply_symplectic(m, L2),
    "is_symplectic": is_symplectic,
    "is_antisymplectic": is_antisymplectic,
    "direct_sum_maps": lambda m: direct_sum_maps(m, swap_map(1)),
    "compress": lambda m: compress(m, EYE2),
    "graph_segment": lambda m: graph_segment(m, EYE2),
    "scaled_projector_path": scaled_projector_path,
    "duistermaat_graphs": lambda m: duistermaat_graphs(m, EYE2, EYE2),
    "duistermaat_relation_vertical": lambda m: duistermaat_relation_vertical(m, L2, "graph_first"),
    "morse_difference_invertible": lambda m: morse_difference_invertible(m, EYE2),
    "morse_difference_kernel": lambda m: morse_difference_kernel(m, EYE2, "kerA_in_kerB"),
    "morse_sum_invertible": lambda m: morse_sum_invertible(m, EYE2),
    "haynsworth_check": lambda m: haynsworth_check(m, EYE2),
    "custom_path": lambda m: custom_path([0.0, 1.0], [m, EYE2], [EYE2, EYE2]),
    "reconstruct": lambda m: reconstruct(RelationParts(EYE2, m, 0)),
}
NOT_MATRICES = {"non-numeric": [["a", "b"], ["c", "d"]], "ragged": [[1, 2], [3]]}


@pytest.mark.parametrize("kind", sorted(NOT_MATRICES))
@pytest.mark.parametrize("name", sorted(MATRIX_ENTRY_POINTS))
def test_matrix_arguments_that_are_not_matrices_of_numbers_raise_validation_error(name, kind):
    with pytest.raises(ValidationError, match="expects a matrix of numbers"):
        MATRIX_ENTRY_POINTS[name](NOT_MATRICES[kind])


@pytest.mark.parametrize("name", ["apply_symplectic", "direct_sum_maps", "is_antisymplectic", "is_symplectic"])
def test_maps_with_nan_entries_raise_validation_error(name):
    with pytest.raises(ValidationError, match=f"^{name} expects finite entries$"):
        MATRIX_ENTRY_POINTS[name](np.full((4, 4), np.nan))


# The segment (I; t I) extrapolated to t0 = 2 or -1 meets the reference
# graph(t0) there, so only the range check refuses those t0.  A Robin
# epsilon that is not finite is refused before its SVD, where X + nan Y
# would end in numpy's LinAlgError.
SEGMENT = graph_segment(np.zeros((1, 1)), np.eye(1))
SOLVABLE_PATHS = {"segment": SEGMENT, "reparametrized": reparametrize(SEGMENT, lambda t: t, lambda t: 1.0)}
OUT_OF_DOMAIN = {
    **{f"crossing_form-{kind}-t0={t0}": (lambda p=p, t0=t0, a=a: crossing_form(p, t0, graph_plane([[a]])))
       for kind, p in SOLVABLE_PATHS.items() for t0, a in ((2.0, 2.0), (-1.0, -1.0), (np.nan, 0.0))},
    **{f"robin_map-eps={eps}": (lambda eps=eps: robin_map(horizontal_plane(1), eps))
       for eps in (np.nan, np.inf, -np.inf)},
}


@pytest.mark.parametrize("name", sorted(OUT_OF_DOMAIN))
def test_scalar_arguments_outside_their_domain_raise_validation_error(name):
    with pytest.raises(ValidationError, match=r"t0 in \[0, 1\]|must be a finite real number"):
        OUT_OF_DOMAIN[name]()


# Scalar arguments that are not real numbers, each with the argument its
# error names.
NOT_REAL = {
    "robin_map-str": ("Robin epsilon", lambda: robin_map(horizontal_plane(1), "a")),
    "robin_map-None": ("Robin epsilon", lambda: robin_map(horizontal_plane(1), None)),
    "robin_map-array": ("Robin epsilon", lambda: robin_map(horizontal_plane(1), np.array([0.5, 0.6]))),
    "TolerancePolicy-str": ("rank_rel_tol", lambda: TolerancePolicy("a")),
    "TolerancePolicy-None": ("rank_rel_tol", lambda: TolerancePolicy(None)),
    "TolerancePolicy-residual_tol-str": ("residual_tol", lambda: TolerancePolicy(residual_tol="a")),
    "crossing_form-str": ("t0", lambda: crossing_form(SEGMENT, "a", graph_plane([[0.5]]))),
    "reparametrize-phi-str": ("phi", lambda: reparametrize(SEGMENT, lambda t: "a", lambda t: 1.0)),
    "reparametrize-dphi-str": ("dphi", lambda: reparametrize(SEGMENT, lambda t: t, lambda t: "a")),
}


@pytest.mark.parametrize("name", sorted(NOT_REAL))
def test_scalar_arguments_that_are_not_real_numbers_raise_validation_error(name):
    argument, op = NOT_REAL[name]
    with pytest.raises(ValidationError, match=argument):
        op()


class FramePath:
    """A path given by a frame function, which no entry point solves."""

    n = 2

    def frame_at(self, t):
        return np.eye(2), t * np.eye(2)


FOREIGN_PATH_OPS = {
    "find_crossings": lambda p: find_crossings(p, L2),
    "crossing_form": lambda p: crossing_form(p, 0.5, L2),
    "is_nondecreasing": is_nondecreasing,
    "reparametrize": lambda p: reparametrize(p, lambda t: t, lambda t: 1.0),
}


@pytest.mark.parametrize("path", [FramePath(), object()], ids=["frame-function", "object"])
@pytest.mark.parametrize("name", sorted(FOREIGN_PATH_OPS))
def test_foreign_paths_raise_validation_error(name, path):
    with pytest.raises(ValidationError, match="needs a path"):
        FOREIGN_PATH_OPS[name](path)


EYES, ZERO_ONE = [np.eye(1)] * 3, [np.zeros((1, 1)), 0.5 * np.eye(1), np.eye(1)]
BAD_KNOTS = {
    "not-increasing": [0.0, 0.6, 0.6],
    "decreasing": [0.0, 0.7, 0.4],
    "nan": [0.0, np.nan, 1.0],
    "inf": [0.0, 0.5, np.inf],
    "starts-after-0": [0.1, 0.5, 1.0],
    "ends-before-1": [0.0, 0.5, 0.9],
    "not-numbers": [0.0, "half", 1.0],
    "nested": [[0.0, 0.5, 1.0]],
}


@pytest.mark.parametrize("name", sorted(BAD_KNOTS))
def test_custom_path_knots_rise_from_0_to_1(name):
    with pytest.raises(ValidationError, match="knots"):
        custom_path(BAD_KNOTS[name], EYES, ZERO_ONE)


def test_custom_path_needs_one_frame_per_knot():
    with pytest.raises(ValidationError, match="one frame per knot"):
        custom_path([0.0, 1.0], EYES, ZERO_ONE)


# Every public function of the ``lagidx`` namespace, read through its
# signature, so that a new entry point is probed without editing this
# list: each LagrangianPlane parameter, each sequence of planes, each
# count and each seed gets values it must refuse, every other parameter a
# valid value chosen by its name.  The ValidationError must name the
# entry point and the parameter, as "<entry point>: <parameter> ...".
BAD_VALUES = {
    "plane": {"array": np.eye(2), "None": None, "str": "a"},
    "planes": {"empty": [], "None": None, "plane": K2},
    "count": {"float": 2.5, "str": "a", "negative": -1},
    "seed": {"str": "a", "negative": -1},
}
COUNTS, SEEDS, SEQUENCES = {"n", "mul_dim"}, {"seed", "rng"}, {"waypoints"}
# Parameters the probe leaves out, each with its reason.
LEFT_OUT = {
    ("duistermaat", "seed"): "accepted and unused: every index algorithm draws nothing",
    ("duistermaat_reduce", "seed"): "accepted and unused: the companion is chosen in closed form",
    ("duistermaat_robin", "seed"): "accepted and unused: the epsilons are chosen in closed form",
}
# A valid value for each parameter without a default that is not a plane.
VALID = {"n": 2, "mul_dim": 1, "rng": 0, "a": np.diag([1.0, -1.0]), "s": np.eye(4),
         "epsilon": 0.5, "order": "graph_first", "path": PATH2, "t0": 0.5, "waypoints": [K2]}


def _kind(fn_name, parameter):
    if (fn_name, parameter.name) in LEFT_OUT:
        return None
    if parameter.annotation in (LagrangianPlane, "LagrangianPlane"):
        return "plane"
    if parameter.name in SEQUENCES:
        return "planes"
    return "count" if parameter.name in COUNTS else "seed" if parameter.name in SEEDS else None


PUBLIC_FUNCTIONS = {name: fn for name, fn in vars(lagidx).items()
                    if inspect.isfunction(fn) and not name.startswith("_")}
PROBES = [(name, p.name, label) for name, fn in sorted(PUBLIC_FUNCTIONS.items())
          for p in inspect.signature(fn).parameters.values() if _kind(name, p)
          for label in BAD_VALUES[_kind(name, p)]]
PROBED = sorted({name for name, _, _ in PROBES})


def _valid_arguments(fn):
    planes = iter((L2, M2, K2))
    arguments = {}
    for p in inspect.signature(fn).parameters.values():
        if p.annotation in (LagrangianPlane, "LagrangianPlane"):
            arguments[p.name] = next(planes)
        elif p.default is inspect.Parameter.empty:
            arguments[p.name] = VALID[p.name]
    return arguments


def test_probe_covers_the_documented_entry_points_and_its_left_out_parameters_exist():
    assert {"decompose", "inverse", "apply_symplectic", "robin_map", "direct_sum_planes",
            "duistermaat_relation_vertical", "intersection_dim", "maslov_index", "zwz_check",
            "extremal_check", "random_plane", "random_hermitian", "standard_form"} <= set(PROBED)
    for name, param in LEFT_OUT:
        assert param in inspect.signature(PUBLIC_FUNCTIONS[name]).parameters


@pytest.mark.parametrize("name", PROBED)
def test_probed_entry_points_accept_their_valid_arguments(name):
    fn = PUBLIC_FUNCTIONS[name]
    try:
        fn(**_valid_arguments(fn))
    except ValidationError:
        raise
    except lagidx.LagidxError:
        pass  # e.g. NoCrossing: the arguments are valid, the answer is an error


@pytest.mark.parametrize("name,param,label", PROBES)
def test_plane_count_and_seed_arguments_raise_validation_error_naming_them(name, param, label):
    fn = PUBLIC_FUNCTIONS[name]
    kind = _kind(name, inspect.signature(fn).parameters[param])
    arguments = _valid_arguments(fn) | {param: BAD_VALUES[kind][label]}
    with pytest.raises(ValidationError) as info:
        fn(**arguments)
    assert str(info.value).startswith(f"{name}: {param} ")


# The selections and the Robin stack take a list or tuple of planes; they
# live in ``lagidx.planes``, outside the namespace the probe reads.
PLANE_SEQUENCES = {
    "epsilon_select": epsilon_select,
    "transversal_companion": transversal_companion,
    "robin_matrices": lambda planes: robin_matrices(planes, (0.5,)),
}


@pytest.mark.parametrize("planes", [None, [], L2, [L2, np.eye(2)]], ids=["None", "empty", "plane", "array-entry"])
@pytest.mark.parametrize("name", sorted(PLANE_SEQUENCES))
def test_plane_sequences_raise_validation_error_naming_them(name, planes):
    with pytest.raises(ValidationError, match=f"^{name}: planes"):
        PLANE_SEQUENCES[name](planes)


def test_a_generator_seed_passes_through_unaltered():
    # The seed helper hands a Generator on as it is, so a stream shared
    # by several draws stays one stream.
    one, two = np.random.default_rng(3), np.random.default_rng(3)
    first = random_plane(2, one)
    assert np.array_equal(first.x, random_plane(2, two).x)
    assert one.random() == two.random()
    assert np.array_equal(random_hermitian(2, 4), random_hermitian(2, np.random.default_rng(4)))
