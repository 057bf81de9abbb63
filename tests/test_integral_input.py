"""Public constructors and entry points refuse non-integral entries instead
of truncating them or computing with them in floating point."""

from __future__ import annotations

from enum import IntEnum
from fractions import Fraction

import pytest

from frobstrat import algebra
from frobstrat.algebra import FpMatrix, is_prime, require_prime
from frobstrat.errors import InvalidParameters
from frobstrat.local_frobenius import (
    FiberPoint,
    LocalContext,
    PullbackElement,
    colength,
    colength_profile,
    element_from_monomials,
    fiber_polygon,
    level_degree,
    right_multiply,
    submodule_contains_monomial,
    tau_power,
)
from frobstrat.polygons import (
    REFERENCE_POLYGONS,
    LatticePolygon,
    canonical_polygon,
    canonical_stratum_dim,
    enumerate_frobenius_polygons,
    is_canonical,
    make_polygon,
    satisfies_gap_bound,
    satisfies_spread_bound,
)
from frobstrat.strata import (
    CurveContext,
    b1_splits,
    filtration_degrees,
    pushforward_type,
    stratum_table,
    sun_slope_bound,
)

CTX3 = LocalContext.default(3)
PT3 = FiberPoint((1, 0, 0), 3)
P4 = REFERENCE_POLYGONS["P4"]

#: Each builder puts ``v`` in one integer slot of a valid input; with v = 1
#: it builds a value, so only the type of ``v`` decides the outcome.
BUILDERS = {
    "is_prime": lambda v: is_prime(v + 2),
    "LatticePolygon": lambda v: LatticePolygon(((0, 0), (v, 1), (3, 0))),
    "make_polygon": lambda v: make_polygon([(0, 0), (v, 1), (3, 0)]),
    "FiberPoint": lambda v: FiberPoint((v, 1, 0), 3),
    "FpMatrix": lambda v: FpMatrix(((v,),), 3),
    "PullbackElement": lambda v: PullbackElement(((0, 0, v),), 3, 3),
    "PullbackElement.precision": lambda v: PullbackElement((), 3 * v, 3),
    "element_from_monomials.left": lambda v: element_from_monomials(CTX3, [(v, 0, 1)]),
    "element_from_monomials.right": lambda v: element_from_monomials(CTX3, [(0, v, 1)]),
    "element_from_monomials.coef": lambda v: element_from_monomials(CTX3, [(0, 0, v)]),
    "right_multiply": lambda v: right_multiply(tau_power(CTX3, 1), v),
    "tau_power": lambda v: tau_power(CTX3, v),
    "colength": lambda v: colength(CTX3, PT3, v),
    "colength_profile.genus": lambda v: colength_profile(CTX3, PT3, v + 1, -1),
    "colength_profile.line_degree": lambda v: colength_profile(CTX3, PT3, 2, -v),
    "submodule_contains_monomial": lambda v: submodule_contains_monomial(PT3, v),
    "level_degree.p": lambda v: level_degree(v + 2, 2, -1, 1),
    "level_degree.genus": lambda v: level_degree(3, v + 1, -1, 1),
    "level_degree.line_degree": lambda v: level_degree(3, 2, -v, 1),
    "level_degree.level": lambda v: level_degree(3, 2, -1, v),
    "LocalContext": lambda v: LocalContext(3, 9 * v),
    "enumerate_frobenius_polygons.g": lambda v: enumerate_frobenius_polygons(
        3, v + 1, 3, 0
    ),
    "enumerate_frobenius_polygons.r": lambda v: enumerate_frobenius_polygons(
        3, 2, v + 2, 0
    ),
    "enumerate_frobenius_polygons.d": lambda v: enumerate_frobenius_polygons(
        3, 2, 3, v
    ),
    "canonical_polygon.g": lambda v: canonical_polygon(3, v + 1, 1, 0),
    "canonical_polygon.r": lambda v: canonical_polygon(3, 2, v, 0),
    "canonical_polygon.d": lambda v: canonical_polygon(3, 2, 1, v),
    "satisfies_gap_bound.g": lambda v: satisfies_gap_bound(P4, v + 1),
    "satisfies_spread_bound.p": lambda v: satisfies_spread_bound(P4, v + 2, 2),
    "satisfies_spread_bound.g": lambda v: satisfies_spread_bound(P4, 3, v + 1),
    "is_canonical.p": lambda v: is_canonical(P4, v + 2, 2),
    "is_canonical.g": lambda v: is_canonical(P4, 3, v + 1),
    "canonical_stratum_dim.r": lambda v: canonical_stratum_dim(v, 2),
    "canonical_stratum_dim.g": lambda v: canonical_stratum_dim(3, v + 1),
    "CurveContext.g": lambda v: CurveContext(g=v + 1),
    "CurveContext.r": lambda v: CurveContext(r=v),
    "CurveContext.d": lambda v: CurveContext(d=v),
    "CurveContext.line_degree": lambda v: CurveContext(line_degree=-v),
    "pushforward_type.r": lambda v: pushforward_type(v, 0, 3, 2),
    "pushforward_type.d": lambda v: pushforward_type(3, v, 3, 2),
    "pushforward_type.g": lambda v: pushforward_type(3, 0, 3, v + 1),
    "filtration_degrees.g": lambda v: filtration_degrees(3, v + 1, -1),
    "filtration_degrees.line_degree": lambda v: filtration_degrees(3, 2, -v),
    "sun_slope_bound.g": lambda v: sun_slope_bound(3, v + 1, -1, 1),
    "sun_slope_bound.line_degree": lambda v: sun_slope_bound(3, 2, -v, 1),
    "sun_slope_bound.sub_rank": lambda v: sun_slope_bound(3, 2, -1, v),
    "b1_splits": lambda v: b1_splits(3, v + 1),
}


@pytest.mark.parametrize("value", [1.5, Fraction(3, 2)], ids=["float", "Fraction"])
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_non_integral_entry_is_refused(build, value):
    build(1)
    with pytest.raises(InvalidParameters, match="must be integers"):
        build(value)


#: Slots whose builder gets 1 from ``v``: v + 1 in each genus slot, and
#: v + 2 in the p slots of the polygon predicates and ``level_degree``.
BELOW_BOUND = [
    *[(slot, 0) for slot in BUILDERS if slot.endswith((".g", ".genus"))],
    ("b1_splits", 0),
    ("level_degree.p", -1),
    ("satisfies_spread_bound.p", -1),
    ("is_canonical.p", -1),
]


@pytest.mark.parametrize("slot,value", BELOW_BOUND, ids=[s for s, _ in BELOW_BOUND])
def test_genus_one_and_p_one_are_refused(slot, value):
    """Genus 1, and p = 1 in the polygon predicates and ``level_degree``,
    are refused by their lower bound before any primality test, rather
    than answered."""
    with pytest.raises(InvalidParameters, match="must be at least 2, got 1"):
        BUILDERS[slot](value)


class _Index:
    """An integer type that is not an int: it has only ``__index__``."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


def test_calls_compute_with_the_values_they_checked():
    """An argument that passes the integer check through ``__index__`` is
    used as the int it indexes to, not as given."""
    assert sun_slope_bound(3, 2, -1, _Index(1)) == sun_slope_bound(3, 2, -1, 1)
    assert level_degree(*map(_Index, (3, 2, -1, 1))) == level_degree(3, 2, -1, 1)
    assert fiber_polygon(CTX3, PT3, _Index(2), _Index(-1)) == fiber_polygon(CTX3, PT3, 2, -1)
    assert colength(LocalContext(3, _Index(9)), PT3, 1) == colength(CTX3, PT3, 1)
    assert stratum_table(CurveContext(g=_Index(2))) == stratum_table(CurveContext())


class _Prime(IntEnum):
    """An int subclass: it passes the prime check as the int it equals."""

    THREE = 3
    FIVE = 5


def test_contexts_and_points_store_p_as_an_exact_int(monkeypatch):
    """``LocalContext``, ``FiberPoint`` and ``CurveContext`` store a prime
    given as an int subclass as the exact int it indexes to, so the
    one-entry ``require_prime`` memo answers every check of a colength
    profile without a primality test; a bool is still refused."""
    ctx, point = LocalContext(_Prime.FIVE, 15), FiberPoint((1, 2, 3, 4, 1), _Prime.FIVE)
    curve = CurveContext(p=_Prime.THREE)
    assert type(ctx.p) is type(point.modulus) is type(curve.p) is int
    assert (ctx, point, curve) == (LocalContext(5, 15), FiberPoint((1, 2, 3, 4, 1), 5), CurveContext())
    tested = []
    monkeypatch.setattr(algebra, "is_prime", lambda n, real=is_prime: tested.append(n) or real(n))
    require_prime(5)
    tested.clear()
    colength_profile(ctx, point, 2, -1)
    assert tested == []
    for build in (
        lambda: LocalContext(True, 15),
        lambda: FiberPoint((1, 0), True),
        lambda: CurveContext(p=True),
    ):
        with pytest.raises(InvalidParameters, match="prime integer"):
            build()


def test_constructors_take_any_iterable():
    """A one-shot iterator builds the same value as a tuple: the entries
    are reduced before any length is taken or any index read."""
    assert FpMatrix(iter([(1,)]), 3) == FpMatrix(((1,),), 3)
    assert FpMatrix(iter([iter([1, 4])]), 3).rows == ((1, 1),)
    assert FiberPoint(iter([2, 0, 0]), 3) == FiberPoint((1, 0, 0), 3)
    assert FiberPoint((v for v in (0, 2, 1)), 3).lambdas == (0, 1, 2)
    assert PullbackElement(iter([(0, 0, 1)]), 3, 3) == PullbackElement(((0, 0, 1),), 3, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FpMatrix(5, 3),
        lambda: FpMatrix([1, 2], 3),
        lambda: FiberPoint(5, 3),
        lambda: FiberPoint(iter([1, 0]), 3),
    ],
    ids=["FpMatrix", "FpMatrix.row", "FiberPoint", "FiberPoint.short"],
)
def test_non_iterable_or_short_input_is_refused(build):
    with pytest.raises(InvalidParameters):
        build()
