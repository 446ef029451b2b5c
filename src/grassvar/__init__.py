"""grassvar: exterior algebra of k-vectors, Grassmann ray charts,
differential-form quadrature, and Finsler/areal variational functionals,
all in explicit chart coordinates over boxes.

The shipped scenarios run every name exported here, and every metric kind,
except the library entry points :func:`wedge`, :func:`equivalent`,
:func:`grassmann_canonical_lift`, :func:`hilbert_form` and
:func:`first_variation`.  ``VariationField.radial_sine_bump``,
``KForm.partial`` and the map catalog of :mod:`grassvar.maps` are library
entry points as well.
"""

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
from .kvector import KVector, canonical_lift, enumerate_multiindices, lift_kvector, wedge
from .maps import DifferentiableMap, compose, from_catalog

__version__ = "0.1.0"
