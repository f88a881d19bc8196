"""Indices of triples of Lagrangian planes in C^n + C^n.

The library computes the Duistermaat index by three independent
algorithms, the Kashiwara signature index, and the Maslov index of
regular paths, together with the self-adjoint relation calculus and the
Morse-index difference formulas connecting them.  Everything is exact
integer arithmetic on top of a single floating-point tolerance policy.
"""

from .errors import (
    DegenerateCrossing,
    DualBasisFailure,
    EigendecompositionError,
    EpsilonDisagreement,
    InclusionViolated,
    LagidxError,
    NoCrossing,
    NotHermitian,
    NotInjective,
    NotInvertible,
    NotLagrangian,
    RankDeficient,
    SelectionFailed,
    SingularEpsilon,
    ToleranceBreakdown,
    TransversalityViolated,
    UnresolvedCluster,
    ValidationError,
)
from .hermitian import (
    DEFAULT_TOL,
    Inertia,
    TolerancePolicy,
    hermitian_part,
    inertia,
    kernel_basis,
    n_minus,
    pseudoinverse,
    random_hermitian,
    range_projector,
    rank,
)
from .indices import (
    IndexReport,
    VerificationRecord,
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
from .maslov import (
    Crossing,
    crossing_form,
    custom_path,
    extremal_check,
    find_crossings,
    graph_segment,
    index_from_crossings,
    is_nondecreasing,
    maslov_index,
    minimal_path,
    reparametrize,
    scaled_projector_path,
    zwz_check,
)
from .planes import (
    LagrangianPlane,
    apply_symplectic,
    direct_sum_planes,
    graph_plane,
    horizontal_plane,
    intersection_dim,
    pairing_matrix,
    plane_from_frame,
    plane_from_stacked,
    planes_equal,
    random_plane,
    random_plane_with_mul,
    robin_map,
    vertical_plane,
)
from .relations import RelationParts, compress, decompose, difference, inverse, reconstruct
from .symplectic import (
    direct_sum_maps,
    is_antisymplectic,
    is_symplectic,
    omega,
    random_symplectic,
    standard_form,
    swap_map,
)

__version__ = "0.1.0"
