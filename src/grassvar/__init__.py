"""grassvar: exterior algebra of k-vectors, Grassmann ray charts,
differential-form quadrature, and Finsler/areal variational functionals,
all in explicit chart coordinates over boxes.

The shipped scenarios run every name exported here and every metric kind.
The Grassmann chart names are loaded on first use (PEP 562), so importing
the package, or running a subcommand that reads no ray chart, does not load
:mod:`grassvar.grassmann`.
"""

from . import errors
from .finsler import (
    FinslerFunction,
    areal_gram,
    check_homogeneity,
    check_projectability,
    energy_metric,
    euclidean_metric,
    pullback_identity_residual,
    quartic_root_metric,
    randers_metric,
    riemannian_metric,
)
from .forms import (
    KForm,
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
)
from .kvector import KVector, canonical_lift, enumerate_multiindices, lift_kvector
from .maps import DifferentiableMap, compose, from_catalog

__version__ = "0.1.0"

_GRASSMANN = ("GrassmannPoint", "grassmann_transition", "to_grassmann")

__all__ = [
    "errors",
    # finsler
    "FinslerFunction", "areal_gram", "check_homogeneity", "check_projectability",
    "energy_metric", "euclidean_metric", "pullback_identity_residual", "quartic_root_metric",
    "randers_metric", "riemannian_metric",
    # forms
    "KForm", "PartitionOfUnity", "Piece", "QuadratureSpec", "boundary_faces",
    "exterior_derivative", "integrate", "integrate_with_partition", "pullback",
    "verify_domain_transform", "verify_leibniz", "verify_stokes",
    # functional
    "VariationField", "areal_value", "curve_length", "extremal_residual",
    # grassmann, kvector, maps
    *_GRASSMANN,
    "KVector", "canonical_lift", "enumerate_multiindices", "lift_kvector",
    "DifferentiableMap", "compose", "from_catalog",
]


def __getattr__(name: str):
    """The Grassmann chart names, imported on first use."""
    if name in _GRASSMANN:
        from . import grassmann

        return getattr(grassmann, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
