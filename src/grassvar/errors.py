"""Exception and warning types shared across the package."""


class GrassvarError(Exception):
    """Base class for all library errors."""


class InvalidDegreeError(GrassvarError):
    """Degree k outside the admissible range for the given dimensions."""


class DimensionMismatchError(GrassvarError):
    """Operands disagree on dimension or degree."""


class MapEvaluationError(GrassvarError):
    """A map or Jacobian evaluation failed or returned non-finite values."""


class ZeroKVectorError(GrassvarError):
    """A nonzero k-vector was required."""


class PivotDegenerateError(GrassvarError):
    """The requested pivot component vanishes (relative to the largest one)."""


class NotInChartError(PivotDegenerateError):
    """A ray representative does not lie in the target pivot chart."""


class ImmersionError(GrassvarError):
    """A parametrization is degenerate (zero canonical lift) where it must not be."""


class OrientationError(GrassvarError):
    """An orientation-preserving map was required but the Jacobian determinant
    is not positive."""


class SlitDomainError(GrassvarError):
    """A fiber-wise function was evaluated at (numerically) zero fiber velocity."""


class InvalidPartitionError(GrassvarError):
    """A partition of unity fails to sum to 1 on the integration domain."""


class InvalidMetricError(GrassvarError):
    """Metric parameters violate a positivity/validity constraint."""


class EvaluationError(GrassvarError):
    """A coefficient or integrand evaluated to a non-finite value."""


class CrossCheckError(GrassvarError):
    """Two independent evaluation routes of the same quantity disagree."""


class ScenarioError(GrassvarError):
    """A scenario file is malformed or violates the schema.

    ``location`` carries a line/column (JSON syntax) or a JSON-pointer-style
    field path (schema violation).
    """

    def __init__(self, message: str, location: str = ""):
        super().__init__(message)
        self.location = location


class DegeneratePieceWarning(UserWarning):
    """The canonical lift vanished at one or more quadrature nodes."""


class NonHomogeneousWarning(UserWarning):
    """A functional was evaluated with a fiber function that fails the
    positive-homogeneity probe; the value is parametrization-dependent."""


class VariationConsistencyWarning(UserWarning):
    """The two-step-size Richardson check of a variation derivative disagreed."""


class QuadratureTargetWarning(UserWarning):
    """Adaptive refinement stopped before reaching the requested target."""
