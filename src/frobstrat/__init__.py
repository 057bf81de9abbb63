"""Exact arithmetic for Frobenius destabilization on curves.

The package has four layers:

* :mod:`frobstrat.algebra` -- primality and dense F_p matrices with exact
  rank computation;
* :mod:`frobstrat.local_frobenius` -- the formal-local model of Frobenius
  push/pull at a point, its canonical filtration via tau powers, and the
  colength linear algebra classifying colength-one submodules;
* :mod:`frobstrat.polygons` -- integral convex polygons in the
  rank-degree plane: canonical form, domination order, enumeration of
  admissible pull-back shapes, duals, the extremal shape and the
  dimension of its stratum;
* :mod:`frobstrat.strata` -- degree and dimension bookkeeping: direct
  image types, graded filtration degrees, slope bounds, the fiber census
  over F_p and the assembled stratum tables.

A small CLI (:mod:`frobstrat.cli`, installed as ``frobstrat``) emits the
tables as deterministic JSON or TSV.

The public names of the layers are importable from the package itself
and resolve lazily (PEP 562): ``from frobstrat import fiber_polygon``
imports :mod:`frobstrat.local_frobenius` when it runs, and ``import
frobstrat`` alone loads no layer.
"""

import importlib

_EXPORTS = {
    "algebra": ("FpMatrix", "is_prime", "matrix_rank"),
    "errors": (
        "BadStart",
        "EndpointMismatch",
        "ExtrapolationWarning",
        "FrobstratError",
        "InvalidLevel",
        "InvalidParameters",
        "InvariantViolation",
        "ModulusMismatch",
        "NotConvex",
        "PrecisionExhausted",
        "UnsupportedCharacteristic",
    ),
    "local_frobenius": (
        "ColengthProfile",
        "FiberPoint",
        "LocalContext",
        "PullbackElement",
        "colength",
        "colength_profile",
        "element_from_monomials",
        "fiber_points",
        "fiber_polygon",
        "level_degree",
        "phi_image",
        "right_multiply",
        "submodule_contains",
        "submodule_contains_monomial",
        "tau_power",
        "verify_claims",
    ),
    "polygons": (
        "REFERENCE_POLYGONS",
        "LatticePolygon",
        "canonical_polygon",
        "canonical_stratum_dim",
        "dominates",
        "dual_polygon",
        "enumerate_frobenius_polygons",
        "height",
        "integer_heights",
        "is_canonical",
        "make_polygon",
        "reference_label",
        "satisfies_gap_bound",
        "satisfies_spread_bound",
        "slope_gaps",
        "slopes",
    ),
    "strata": (
        "CurveContext",
        "FiberCensus",
        "StratumReport",
        "b1_splits",
        "fiber_census",
        "filtration_degrees",
        "pushforward_type",
        "stratum_table",
        "sun_slope_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
