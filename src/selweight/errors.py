"""Exception hierarchy shared by the fitting and weighting routines."""


class SelweightError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SelweightError):
    """Invalid inputs: bad shapes, out-of-range values, malformed files."""


class SingularJacobianError(SelweightError):
    """A Newton step hit a numerically singular Jacobian."""


class NonConvergenceError(SelweightError):
    """An iterative fit stopped before meeting its tolerances."""


class SeparationError(NonConvergenceError):
    """Logistic coefficients diverged, indicating (quasi-)separated data."""


class DegenerateOutcomeError(ValidationError):
    """A binary outcome vector is constant, so no slope is identified."""


class EmptyCategoryError(ValidationError):
    """A multinomial response level has no observations."""


class ResponseOnBoundaryError(ValidationError):
    """A proportion response sits on 0 or 1 where (0, 1) is required."""


class RankDeficientDesignError(ValidationError):
    """Design matrix columns are linearly dependent."""


class DegenerateDenominatorError(SelweightError):
    """A per-unit probability denominator collapsed to zero."""

    def __init__(self, message, unit_indices=None):
        super().__init__(message)
        self.unit_indices = unit_indices


class UnmatchedCellError(ValidationError):
    """A sample unit falls in a cell with no positive population probability."""


class InfeasibleTotalsError(NonConvergenceError):
    """No logistic weighting can match the requested population totals."""


class DegenerateCutoffsError(ValidationError):
    """Requested quantile cutoffs are not strictly increasing."""


class SingularBreadError(SelweightError):
    """The bread matrix of a sandwich variance is singular."""


class SingularHError(SelweightError):
    """The nuisance-score Hessian of a two-step sandwich is singular."""


class SparseBinError(SelweightError):
    """A diagnostic bin has too few units in one outcome class."""


class MissingColumnError(ValidationError):
    """A role maps to a column absent from the file header."""


class NonNumericCellError(ValidationError):
    """A mapped cell is missing or not parseable as a number."""


class NonIntegerCellError(ValidationError):
    """A value that must be an integer is non-finite, fractional or too large."""


class NonBinaryIndicatorError(ValidationError):
    """An indicator or outcome column contains values other than 0/1."""


class ProbabilitySumOutOfRangeError(ValidationError):
    """Joint cell probabilities sum too far from one to renormalize."""


class DuplicateCellError(ValidationError):
    """The same cell appears twice in a joint summary file."""


class MissingNError(ValidationError):
    """A marginal-means summary lacks the population size row."""


class StudyError(SelweightError):
    """A simulation study could not produce usable summaries."""


class AllReplicationsFailedError(StudyError):
    """Every replication failed for one of the requested methods."""
