"""Exception types raised across the package."""


class LagidxError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(LagidxError):
    """Malformed or inconsistent input data."""


class NotHermitian(ValidationError):
    """Matrix asymmetry exceeds the tolerance policy."""


class NotInjective(ValidationError):
    """Frame columns are numerically rank deficient."""


class NotLagrangian(ValidationError):
    """Frame fails the X*Y = Y*X test."""


class NotInvertible(ValidationError):
    """Matrix required to be invertible has a numerical kernel."""


class InclusionViolated(ValidationError):
    """Required kernel inclusion between two matrices does not hold."""


class TransversalityViolated(ValidationError):
    """Planes required to be transversal have a nontrivial intersection."""


class EigendecompositionError(LagidxError):
    """Eigensolver failed; message carries a hash of the offending matrix."""


class SelectionFailed(LagidxError):
    """A closed-form selection (Robin epsilons, transversal companion) did
    not clear the count-rule cutoff."""


class SingularEpsilon(LagidxError):
    """X + eps*Y has count-rule rank below n, or gives an asymmetric
    Robin map, at this epsilon."""


class EpsilonDisagreement(LagidxError):
    """Two independent epsilon choices gave different index values,
    signalling tolerance breakdown."""


class RankDeficient(LagidxError):
    """A constructed span has unexpected numerical rank."""


class DualBasisFailure(LagidxError):
    """Pairing matrix between supposedly transversal planes is numerically
    singular."""


class ToleranceBreakdown(LagidxError):
    """A computed quantity violates an exact structural constraint."""


class NoCrossing(LagidxError):
    """Requested crossing data at a parameter with trivial intersection."""


class DegenerateCrossing(LagidxError):
    """Restricted crossing form is singular; the path is not regular."""


class UnresolvedCluster(LagidxError):
    """Two crossings landed within the refinement width of each other."""
