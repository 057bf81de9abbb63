"""Degree and dimension bookkeeping for the destabilization strata.

Rank/degree arithmetic of Frobenius direct images, graded degrees of the
canonical filtration, the slope bound certifying semistability of
subsheaves of a direct image, the exhaustive census of the colength-one
fiber over F_p, and the assembled stratum tables (fiber, subsheaf-parameter
and moduli dimensions) for the reference configuration
(p, g, r, d) = (3, 2, 3, 0) with source line degree -1.

Dimensions that rest on geometric arguments out of reach of exact
arithmetic are encoded as data and then machine-checked against every
arithmetic consequence available: duality between extreme strata, the
fiber/parameter-space offset, the extremal-stratum formula, and the
agreement of enumerated point counts with closed forms.
"""

from __future__ import annotations

from . import algebra
from .algebra import _checked_int, _over_budget, require_prime
from .errors import (
    InvalidParameters,
    InvariantViolation,
    UnsupportedCharacteristic,
)
from .local_frobenius import (
    REFERENCE_PARAMETERS,
    LocalContext,
    fiber_points,
    fiber_polygon,
)
from .polygons import (
    REFERENCE_CONFIGURATION,
    REFERENCE_POLYGONS,
    LatticePolygon,
    canonical_polygon,
    canonical_stratum_dim,
    dominates,
    dual_polygon,
    reference_label,
    satisfies_gap_bound,
    satisfies_spread_bound,
)
from .record import Record

# Closed fiber strata in the reference configuration are nested projective
# spaces P^2 ⊃ P^1 ⊃ {point}; we record their dimensions.  The open strata
# are successive differences, so an open stratum counts q^dim points over
# F_q and its closure counts q^dim + ... + q + 1.
_FIBER_STRATUM_DIM = {"P2": 2, "P3": 1, "P4": 0}

# Established dimensions of the strata of the subsheaf parameter space in
# the reference configuration (base: curve x degree -1 line bundles).
_QUOT_STRATUM_DIM = {"P2": 5, "P3": 4, "P4": 3}

# Established dimensions of the moduli strata in the reference
# configuration.  P1 never occurs among subsheaves of a direct image; its
# stratum is carried onto the P2 stratum by the dual-bundle involution.
_MODULI_STRATUM_DIM = {"P1": 5, "P2": 5, "P3": 4, "P4": 2}

_CLOSURE_NOTES = {
    "P1": "closed stratum is the closure of the open stratum; carried onto "
    "the P2 stratum by the dual-bundle involution",
    "P2": "closed stratum is the closure of the open stratum",
    "P3": "closed stratum is the closure of the open stratum and equals the "
    "intersection of the P1 and P2 closed strata",
    "P4": "already closed: the image of the line-bundle direct-image locus, "
    "isomorphic to the Jacobian",
}


class CurveContext(Record):
    """Ambient quadruple (p, g, r, d) plus the source line-bundle degree;
    each defaults to its value in the reference configuration."""

    p: int
    g: int
    r: int
    d: int
    line_degree: int
    p, g, r, d, line_degree = REFERENCE_CONFIGURATION

    def __post_init__(self) -> None:
        require_prime(self.p)
        object.__setattr__(self, "p", _checked_int(self.p))
        object.__setattr__(self, "g", _checked_int(self.g, "genus", 2))
        object.__setattr__(self, "r", _checked_int(self.r, "rank", 1))
        object.__setattr__(self, "d", _checked_int(self.d))
        object.__setattr__(self, "line_degree", _checked_int(self.line_degree))


class StratumReport(Record):
    """One assembled stratum row: polygon, dimensions, closure, counts.

    ``fiber_dim``/``quot_dim`` are None for strata that never occur among
    subsheaves of a direct image; the absence is semantic, not a sentinel
    zero.  ``counts`` holds the enumerated fiber count at q = p together
    with the closed form in q, or None when there is no fiber stratum.
    """

    polygon_id: str
    polygon: LatticePolygon
    fiber_dim: int | None
    quot_dim: int | None
    moduli_dim: int
    closure: str
    counts: dict | None


def pushforward_type(r: int, d: int, p: int, g: int) -> tuple[int, int]:
    """Rank and degree of the Frobenius direct image of a type (r, d) bundle."""
    require_prime(p)
    r = _checked_int(r, "rank", 1)
    d = _checked_int(d)
    g = _checked_int(g, "genus", 2)
    return (r * p, d + r * (p - 1) * (g - 1))


def filtration_degrees(p: int, g: int, line_degree: int) -> tuple[tuple[int, int], ...]:
    """Ranks and degrees of the graded pieces of the canonical filtration.

    Level l contributes a line piece of degree line_degree + l(2g - 2);
    the degrees sum to the degree of the pulled-back direct image.
    Refused when the p pieces exceed :data:`~frobstrat.algebra.WORK_BUDGET`.
    """
    require_prime(p)
    g = _checked_int(g, "genus", 2)
    line_degree = _checked_int(line_degree)
    if p > algebra.WORK_BUDGET:
        raise _over_budget(f"the filtration at p = {p} has", p, "graded pieces")
    return tuple((1, line_degree + level * (2 * g - 2)) for level in range(p))


def sun_slope_bound(p: int, g: int, line_degree: int, sub_rank: int) -> Fraction:
    """Exact upper bound on the slope of a rank ``sub_rank`` subsheaf of the
    direct image of a degree ``line_degree`` line bundle.

    The bound is the direct image's slope minus ((p - sub_rank)/p)(g - 1);
    at full rank the offset vanishes and the bound is the slope itself.
    Nonpositive values for every proper rank certify semistability of any
    degree-0 subsheaf of the same rank as the direct image.
    """
    from fractions import Fraction
    require_prime(p)
    g = _checked_int(g, "genus", 2)
    line_degree, sub_rank = _checked_int(line_degree), _checked_int(sub_rank)
    if not 1 <= sub_rank <= p:
        raise InvalidParameters(
            f"subsheaf rank must lie in [1, {p}], got {sub_rank}"
        )
    image_slope = Fraction(line_degree + (p - 1) * (g - 1), p)
    return image_slope - Fraction((p - sub_rank) * (g - 1), p)


def _monomial_form(power: int) -> str:
    if power == 0:
        return "1"
    if power == 1:
        return "q"
    return f"q^{power}"


def _projective_form(dim: int) -> str:
    return "+".join(_monomial_form(k) for k in range(dim, -1, -1))


class FiberCensus(Record):
    """Exhaustive classification of the colength-one fiber over F_p.

    ``strict_counts`` counts points whose polygon equals each shape;
    ``closed_counts`` counts points whose polygon dominates it.  The
    ``*_forms`` strings are the matching closed forms in the field size q.
    """

    field_size: int
    total: int
    strict_counts: dict[str, int]
    closed_counts: dict[str, int]
    strict_forms: dict[str, str]
    closed_forms: dict[str, str]


def fiber_census(p: int, g: int, line_degree: int) -> FiberCensus:
    """Classify every point of P^{p-1}(F_p) and tally the strata.

    Only the (p, g, line degree) of the reference configuration is
    accepted: away from it the stratum catalogue (and hence the labels and
    closed forms) is not established.  Per-point classification at other parameters remains
    available through :func:`frobstrat.local_frobenius.fiber_polygon`.
    """
    if (p, g, line_degree) != REFERENCE_PARAMETERS:
        raise InvalidParameters(
            f"census is defined for (p, g, line degree) = "
            f"{REFERENCE_PARAMETERS}, got ({p}, {g}, {line_degree})"
        )
    ctx = LocalContext.default(p)
    labels = list(_FIBER_STRATUM_DIM)
    strict = {label: 0 for label in labels}
    closed = {f"{label}+": 0 for label in labels}
    points = fiber_points(p)
    for point in points:
        pg = fiber_polygon(ctx, point, g, line_degree)
        label = reference_label(pg)
        if label not in strict:
            raise InvariantViolation(f"unclassified fiber polygon {pg}")
        strict[label] += 1
        for other in labels:
            if dominates(pg, REFERENCE_POLYGONS[other]):
                closed[f"{other}+"] += 1
    return FiberCensus(
        field_size=p,
        total=len(points),
        strict_counts=strict,
        closed_counts=closed,
        strict_forms={
            label: _monomial_form(dim) for label, dim in _FIBER_STRATUM_DIM.items()
        },
        closed_forms={
            f"{label}+": _projective_form(dim)
            for label, dim in _FIBER_STRATUM_DIM.items()
        },
    )


def b1_splits(p: int, g: int) -> bool:
    """Whether the pullback of the locally-exact-differentials sheaf splits
    into the direct sum of the powers of the canonical bundle.

    Defined for odd primes only; the criterion is p | (g - 1).
    """
    require_prime(p)
    if p <= 2:
        raise UnsupportedCharacteristic(
            f"splitting criterion requires characteristic p > 2, got {p}"
        )
    g = _checked_int(g, "genus", 2)
    return (g - 1) % p == 0


def stratum_table(ctx: CurveContext) -> tuple[StratumReport, ...]:
    """Assembled stratum rows for the reference configuration.

    Every encoded dimension is cross-checked by name before the table is
    returned: ``quot=fiber+g+1`` (the base of the parameter space is the
    curve times the line-bundle family), ``P1~dual`` (P1 has the moduli
    dimension of its dual polygon's stratum), ``P4 dim`` (the
    extremal-stratum formula at r = 1), ``P4=extremal`` (P4 is the
    extremal polygon), ``counts=forms`` (enumerated fiber counts match
    their closed forms at q = p), ``partition`` (the strict counts sum to
    the fiber) and ``gap/spread bounds`` (every polygon is admissible).
    One :class:`InvariantViolation` names every check that fails, since a
    failure can only indicate a bug.
    """
    key = (ctx.p, ctx.g, ctx.r, ctx.d, ctx.line_degree)
    if key != REFERENCE_CONFIGURATION:
        raise InvalidParameters(
            f"stratum table is defined for (p, g, r, d, line degree) = "
            f"{REFERENCE_CONFIGURATION}, got {key}"
        )
    census = fiber_census(ctx.p, ctx.g, ctx.line_degree)
    _check_table_consistency(ctx, census)
    reports = []
    for label, polygon in REFERENCE_POLYGONS.items():
        fiber_dim = _FIBER_STRATUM_DIM.get(label)
        counts = None
        if fiber_dim is not None:
            counts = {
                f"q={census.field_size}": census.strict_counts[label],
                "closed_form": census.strict_forms[label],
            }
        reports.append(
            StratumReport(
                polygon_id=label,
                polygon=polygon,
                fiber_dim=fiber_dim,
                quot_dim=_QUOT_STRATUM_DIM.get(label),
                moduli_dim=_MODULI_STRATUM_DIM[label],
                closure=_CLOSURE_NOTES[label],
                counts=counts,
            )
        )
    return tuple(reports)


def _check_table_consistency(ctx: CurveContext, census: FiberCensus) -> None:
    """Run every named check of the table; one :class:`InvariantViolation`
    names each check that fails."""
    q, base_dim = census.field_size, ctx.g + 1
    dual_label = reference_label(dual_polygon(REFERENCE_POLYGONS["P1"]))
    checks = {
        "quot=fiber+g+1": all(
            quot == _FIBER_STRATUM_DIM[label] + base_dim
            for label, quot in _QUOT_STRATUM_DIM.items()
        ),
        "P1~dual": _MODULI_STRATUM_DIM["P1"] == _MODULI_STRATUM_DIM.get(dual_label),
        "P4 dim": _MODULI_STRATUM_DIM["P4"] == canonical_stratum_dim(1, ctx.g),
        "P4=extremal": REFERENCE_POLYGONS["P4"] == canonical_polygon(ctx.p, ctx.g, 1, 0),
        "counts=forms": all(
            census.strict_counts[label] == q**dim
            and census.closed_counts[f"{label}+"] == sum(q**k for k in range(dim + 1))
            for label, dim in _FIBER_STRATUM_DIM.items()
        ),
        "partition": sum(census.strict_counts.values()) == census.total,
        "gap/spread bounds": all(
            satisfies_gap_bound(pg, ctx.g) and satisfies_spread_bound(pg, ctx.p, ctx.g)
            for pg in REFERENCE_POLYGONS.values()
        ),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise InvariantViolation(f"failed table checks: {', '.join(failed)}")
