"""grassvar: exterior algebra of k-vectors, Grassmann ray charts,
differential-form quadrature, and Finsler/areal variational functionals,
all in explicit chart coordinates over boxes.

The shipped scenarios run every name exported here and every metric kind.
Every public name is served on first use from its module in ``_EXPORTS``
(PEP 562), so importing the package loads none of them, and a subcommand
loads only the modules its rows run.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# module -> the public names it serves; "errors" is the module itself
_EXPORTS = {
    "errors": ("errors",),
    "finsler": (
        "FinslerFunction", "areal_gram", "check_homogeneity", "check_projectability",
        "energy_metric", "euclidean_metric", "pullback_identity_residual", "quartic_root_metric",
        "randers_metric", "riemannian_metric",
    ),
    "forms": (
        "KForm", "PartitionOfUnity", "boundary_faces", "exterior_derivative", "integrate",
        "integrate_with_partition", "pullback", "verify_domain_transform", "verify_leibniz",
        "verify_stokes",
    ),
    "quadrature": ("Piece", "QuadratureSpec"),
    "functional": ("areal_value", "curve_length"),
    "variation": ("VariationField", "extremal_residual"),
    "grassmann": ("GrassmannPoint", "grassmann_transition", "to_grassmann"),
    "kvector": ("KVector", "canonical_lift", "enumerate_multiindices"),
    "maps": ("DifferentiableMap", "compose", "from_catalog"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOMES)


def __getattr__(name: str):
    """A public name, imported from its module on first use."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    return module if name == home else getattr(module, name)
