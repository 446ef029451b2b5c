"""grassvar: exterior algebra of k-vectors, Grassmann ray charts,
differential-form quadrature, and Finsler/areal variational functionals,
all in explicit chart coordinates over boxes."""

from . import errors
from .finsler import (
    FinslerFunction,
    areal_gram,
    check_homogeneity,
    check_projectability,
    energy_metric,
    euclidean_metric,
    hilbert_form,
    pullback_identity_residual,
    quartic_root_metric,
    randers_metric,
    riemannian_metric,
)
from .forms import (
    KForm,
    ParametricFormFamily,
    PartitionOfUnity,
    Piece,
    QuadratureSpec,
    boundary_faces,
    exterior_derivative,
    integrate,
    integrate_with_partition,
    pullback,
    verify_domain_transform,
    verify_leibniz,
    verify_stokes,
)
from .functional import (
    VariationField,
    areal_value,
    curve_length,
    extremal_residual,
    first_variation,
    reparam_invariance_residual,
)
from .grassmann import (
    GrassmannPoint,
    equivalent,
    grassmann_canonical_lift,
    grassmann_transition,
    to_grassmann,
)
from .kvector import (
    AdaptedChart,
    KVector,
    canonical_field,
    canonical_lift,
    canonical_section_along_s,
    lift_kvector,
    plucker_residual,
    wedge,
)
from .maps import CanonicalInclusion, DifferentiableMap, compose, from_catalog
from .multiindex import MultiIndex, enumerate_multiindices, normalize_tuple, rank

__version__ = "0.1.0"
