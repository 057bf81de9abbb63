"""Public constructors refuse non-integral entries instead of truncating them."""

from __future__ import annotations

from fractions import Fraction

import pytest

from frobstrat.algebra import FpMatrix, TruncSeries
from frobstrat.errors import InvalidParameters
from frobstrat.local_frobenius import (
    FiberPoint,
    LocalContext,
    PullbackElement,
    colength,
    element_from_monomials,
    right_multiply,
    tau_power,
)
from frobstrat.polygons import LatticePolygon, make_polygon

CTX3 = LocalContext.default(3)

#: Each builder puts ``v`` in one integer slot of a valid input; with v = 1
#: it builds a value, so only the type of ``v`` decides the outcome.
BUILDERS = {
    "LatticePolygon": lambda v: LatticePolygon(((0, 0), (v, 1), (3, 0))),
    "make_polygon": lambda v: make_polygon([(0, 0), (v, 1), (3, 0)]),
    "FiberPoint": lambda v: FiberPoint((v, 1, 0), 3),
    "TruncSeries": lambda v: TruncSeries((v, 2), 3),
    "FpMatrix": lambda v: FpMatrix(((v,),), 3),
    "PullbackElement": lambda v: PullbackElement(((v,), (0,), (0,)), 3),
    "element_from_monomials.left": lambda v: element_from_monomials(CTX3, [(v, 0, 1)]),
    "element_from_monomials.right": lambda v: element_from_monomials(CTX3, [(0, v, 1)]),
    "element_from_monomials.coef": lambda v: element_from_monomials(CTX3, [(0, 0, v)]),
    "right_multiply": lambda v: right_multiply(tau_power(CTX3, 1), v),
    "tau_power": lambda v: tau_power(CTX3, v),
    "colength": lambda v: colength(CTX3, FiberPoint((1, 0, 0), 3), v),
}


@pytest.mark.parametrize("value", [1.5, Fraction(3, 2)], ids=["float", "Fraction"])
@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
def test_non_integral_entry_is_refused(build, value):
    build(1)
    with pytest.raises(InvalidParameters, match="must be integers"):
        build(value)
