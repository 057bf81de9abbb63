"""Brute-force reference implementations and arithmetic used only by the tests.

Each oracle recomputes a quantity along a path independent of the library
code it checks: integer-polynomial convolution for series products,
row-space enumeration for matrix ranks, one-step-at-a-time monomial
rewriting for the pullback normal form, dense coefficient grids for the
shifts and images of pullback elements, a box search over vertex chains
for the polygon enumeration, and :class:`~fractions.Fraction` slopes and
heights for the polygon order and slope bounds the library decides by
integer cross-multiplication.  Prime-field scalars, the truncated
series product with the two errors only it and the scalars raise, and the
vertexwise polygon comparison live here too, since only the tests use them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from frobstrat.algebra import TruncSeries, require_prime
from frobstrat.errors import (
    EndpointMismatch,
    FrobstratError,
    ModulusMismatch,
    PrecisionExhausted,
)
from frobstrat.polygons import height, slope_gaps, slopes
from frobstrat.record import Record


class PrecisionMismatch(FrobstratError):
    """Two truncated series carry different precisions."""


class DivisionByZero(FrobstratError, ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


class FieldElem(Record):
    """An element of F_p, stored reduced into the window [0, p).

    Arithmetic never mixes moduli: combining elements over different primes
    raises :class:`ModulusMismatch` rather than silently coercing.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        require_prime(self.modulus)
        object.__setattr__(self, "value", int(self.value) % self.modulus)

    def _check(self, other: FieldElem) -> None:
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected FieldElem, got {type(other).__name__}")
        if other.modulus != self.modulus:
            raise ModulusMismatch(
                f"cannot combine F_{self.modulus} with F_{other.modulus}"
            )

    def __add__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        return FieldElem(self.value + other.value, self.modulus)

    def __sub__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        return FieldElem(self.value - other.value, self.modulus)

    def __mul__(self, other: FieldElem) -> FieldElem:
        self._check(other)
        return FieldElem(self.value * other.value, self.modulus)

    def __neg__(self) -> FieldElem:
        return FieldElem(-self.value, self.modulus)

    def inverse(self) -> FieldElem:
        if self.value == 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.modulus}")
        return FieldElem(pow(self.value, self.modulus - 2, self.modulus), self.modulus)

    def __bool__(self) -> bool:
        return self.value != 0


def series_mul(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """Cauchy product truncated at the shared precision."""
    if a.modulus != b.modulus:
        raise ModulusMismatch(
            f"series moduli differ: {a.modulus} vs {b.modulus}"
        )
    if a.precision != b.precision:
        raise PrecisionMismatch(
            f"series precisions differ: {a.precision} vs {b.precision}"
        )
    n = a.precision
    out = [0] * n
    for i, ai in enumerate(a.coeffs):
        if not ai:
            continue
        for j in range(n - i):
            out[i + j] += ai * b.coeffs[j]
    return TruncSeries(tuple(out), a.modulus)


def convolve_mod(a, b, p, precision):
    """Series product via full integer convolution, then reduce and cut."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    out = out[:precision] + [0] * max(0, precision - len(out))
    return tuple(c % p for c in out)


def rowspace_rank(rows, p):
    """Rank as log_p of the number of distinct row-space vectors."""
    ncols = len(rows[0])
    vectors = set()
    for coefs in itertools.product(range(p), repeat=len(rows)):
        vec = tuple(
            sum(c * row[k] for c, row in zip(coefs, rows)) % p
            for k in range(ncols)
        )
        vectors.add(vec)
    rank = 0
    while p**rank < len(vectors):
        rank += 1
    assert p**rank == len(vectors), "row space size is not a power of p"
    return rank


def normalize_monomials(terms, p, precision):
    """Pullback normal form by rewriting one factor of t^p at a time."""
    grid = [[0] * precision for _ in range(p)]
    for left, right, coef in terms:
        while left >= p:
            left -= p
            right += p
        if right < precision:
            grid[left][right] = (grid[left][right] + coef) % p
    return tuple(tuple(row) for row in grid)


def grid_terms(grid, p):
    """The nonzero entries of a p-row coefficient grid as monomials
    (right_exp, left_exp, coefficient) reduced mod p, row by row: the
    constructor's argument order, but not its sorted normal form."""
    assert len(grid) == p, "a coefficient grid has p rows"
    return [
        (j, i, c % p)
        for i, row in enumerate(grid)
        for j, c in enumerate(row)
        if c % p
    ]


def tau_monomials(m):
    """Expand (u - v)^m by repeated naive multiplication over the integers.

    Returns monomials (left_exp, right_exp, coefficient) where u is the
    left tensor factor and v the right one.
    """
    poly = {(0, 0): 1}
    for _ in range(m):
        nxt: dict[tuple[int, int], int] = {}
        for (a, b), c in poly.items():
            nxt[(a + 1, b)] = nxt.get((a + 1, b), 0) + c
            nxt[(a, b + 1)] = nxt.get((a, b + 1), 0) - c
        poly = nxt
    return [(a, b, c) for (a, b), c in poly.items() if c]


def shift_right(terms, j):
    """Multiply a monomial list by v^j."""
    return [(a, b + j, c) for a, b, c in terms]


def dense_right_multiply(grid, j):
    """Shift every row of a p × N coefficient grid right by j places: the
    product with 1⊗t^j, refused when a nonzero entry would pass column N."""
    n = len(grid[0])
    cut = max(n - j, 0)
    if any(any(row[cut:]) for row in grid):
        raise PrecisionExhausted(f"shift by {j} overflows precision {n}")
    pad = (0,) * min(j, n)
    return tuple(pad + row[:cut] for row in grid)


def dense_phi_image(grid, point):
    """Coefficients of Σ_i λ_i (row i of the grid) in k[t]/(t^p)."""
    p, lams = point.modulus, point.lambdas
    return tuple(
        sum(lam * row[k] for lam, row in zip(lams, grid)) % p for k in range(p)
    )


def closed_form_colength(p: int, b: int, level: int) -> int:
    """Colength at ``level`` of a point whose last nonzero coordinate is λ_b.

    The image of tau^m t^j spans the ideal of f_m(t) = Σ_k (-1)^k C(m, k)
    λ_{m-k} t^k in k[t]/(t^p), whose t-adic valuation is m minus the last
    nonzero index at most m (C(m, k) is a unit mod p for m < p).  Over
    m >= level the smallest valuation is 0 when b >= level and level - b
    otherwise, and the colength is p minus it.
    """
    return p if b >= level else p - level + b


def vertexwise_above(a, b) -> bool:
    """Weaker comparison: every vertex of ``a`` lies on or above ``b``.

    Unlike :func:`frobstrat.polygons.dominates` this relation is NOT
    antisymmetric (two distinct polygons can satisfy it in both
    directions), so it does not define a partial order.
    """
    if a.endpoint != b.endpoint:
        raise EndpointMismatch(
            f"cannot compare endpoints {a.endpoint} and {b.endpoint}"
        )
    return all(y >= height(b, x) for x, y in a.vertices)


def fraction_dominates(a, b) -> bool:
    """:func:`frobstrat.polygons.dominates` with Fraction heights."""
    if a.endpoint != b.endpoint:
        raise EndpointMismatch(
            f"cannot compare endpoints {a.endpoint} and {b.endpoint}"
        )
    return all(height(a, x) >= height(b, x) for x in range(a.rank + 1))


def fraction_gap_bound(pg, g) -> bool:
    """:func:`frobstrat.polygons.satisfies_gap_bound` with Fraction slopes."""
    return all(gap <= 2 * g - 2 for gap in slope_gaps(pg))


def fraction_spread(pg) -> Fraction:
    """Largest minus smallest slope."""
    segs = slopes(pg)
    return segs[0] - segs[-1]


def fraction_spread_bound(pg, p, g) -> bool:
    """:func:`frobstrat.polygons.satisfies_spread_bound` with Fraction slopes."""
    return fraction_spread(pg) <= min(pg.rank - 1, p - 1) * (2 * g - 2)


def fraction_is_canonical(pg, p, g) -> bool:
    """:func:`frobstrat.polygons.is_canonical` with Fraction slopes."""
    return fraction_spread(pg) == (p - 1) * (2 * g - 2)


def brute_enumerate_polygons(p, g, r, d):
    """Destabilized pull-back shapes by box search over vertex chains.

    Iterates over every subset of interior integer abscissae and every
    integer height assignment in a generous box, keeps the chains that are
    strictly convex and satisfy the slope-drop and spread bounds, and
    returns the distinct vertex tuples.
    """
    total = p * d
    gap_cap = 2 * g - 2
    spread_cap = min(r - 1, p - 1) * gap_cap
    box = spread_cap * r + abs(total) + 1
    shapes = set()
    interior = range(1, r)
    for size in range(1, r):
        for xs in itertools.combinations(interior, size):
            for ys in itertools.product(range(-box, box + 1), repeat=size):
                chain = [(0, 0), *zip(xs, ys), (r, total)]
                slopes = [
                    Fraction(y1 - y0, x1 - x0)
                    for (x0, y0), (x1, y1) in zip(chain, chain[1:])
                ]
                if any(s1 >= s0 for s0, s1 in zip(slopes, slopes[1:])):
                    continue
                if any(s0 - s1 > gap_cap for s0, s1 in zip(slopes, slopes[1:])):
                    continue
                if slopes[0] - slopes[-1] > spread_cap:
                    continue
                shapes.add(tuple(chain))
    return shapes
