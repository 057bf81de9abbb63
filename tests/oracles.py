"""Brute-force reference implementations used only by the tests.

Each oracle recomputes a quantity along a path independent of the library
code it checks: row-space enumeration for matrix ranks,
one-step-at-a-time monomial rewriting for the pullback normal form, dense
coefficient grids for the shifts and images of pullback elements, a box
search over vertex chains for the polygon enumeration,
:class:`~fractions.Fraction` slopes and heights for the polygon walk, order
and slope bounds the library decides by integer cross-multiplication, and
polygon construction as separate passes (convert, check, drop collinear
points, check again) for the library's one validating pass.  The
vertexwise polygon comparison lives here too, since only the tests use it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import index

from frobstrat.errors import (
    BadStart,
    EndpointMismatch,
    InvalidParameters,
    NotConvex,
    PrecisionExhausted,
)
from frobstrat.polygons import height, make_polygon, slope_gaps, slopes


def rowspace_rank(rows, p):
    """Rank as log_p of the number of distinct row-space vectors.

    Refused with :class:`ValueError` before it enumerates more than 10^5
    combinations of the rows (p^rows), so a test that hands it a matrix
    too large fails at once instead of running for hours."""
    count = p ** len(rows)
    if count > 10**5:
        raise ValueError(
            f"rowspace_rank would enumerate {p}^{len(rows)} = {count} "
            "combinations, more than 10^5"
        )
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


def fraction_walk_polygons(p, g, r, d):
    """The walk of :func:`frobstrat.polygons.enumerate_frobenius_polygons`
    with Fraction slopes and windows, and its order from :func:`height`.

    Extends a vertex chain one segment at a time: every integer degree in
    (rk*chord, rk*(chord + spread)] for the first segment of rank rk and in
    [rk*(prev - gap), rk*prev) after a segment of slope prev; the segment
    reaching x = r is kept when its slope meets the same bounds.  Returns
    the vertex tuples sorted by their heights at integer abscissae.
    """
    total, gap = p * d, 2 * g - 2
    spread = min(r - 1, p - 1) * gap
    chord = Fraction(total, r)
    found = []

    def walk(chain, first, prev):
        x, y = chain[-1]
        if first is not None:
            least = prev - gap
            s = Fraction(total - y, r - x)
            if least <= s < prev and first - s <= spread:
                found.append(make_polygon(chain + [(r, total)]))
        for rk in range(1, r - x):
            if first is None:
                lo = math.floor(rk * chord) + 1
                hi = math.floor(rk * (chord + spread))
            else:
                lo = math.ceil(rk * least)
                hi = math.ceil(rk * prev) - 1
            for dy in range(lo, hi + 1):
                s = Fraction(dy, rk)
                walk(chain + [(x + rk, y + dy)], s if first is None else first, s)

    walk([(0, 0)], None, None)
    found.sort(key=lambda pg: tuple(height(pg, x) for x in range(r + 1)))
    return [pg.vertices for pg in found]


def _exact_pairs(points) -> tuple[tuple[int, int], ...]:
    """``points`` as exact-int pairs; a float or a fraction is refused."""
    try:
        return tuple((index(a), index(b)) for a, b in points)
    except TypeError:
        raise InvalidParameters(f"entries must be integers, got {points!r}") from None


def _check_head_and_ranks(verts) -> None:
    """At least two vertices, the first at (0, 0), ranks strictly increasing."""
    if len(verts) < 2:
        raise InvalidParameters("a polygon needs at least two vertices")
    if verts[0] != (0, 0):
        raise BadStart(f"polygon must start at (0, 0), got {verts[0]}")
    ranks = [a for a, _ in verts]
    if any(x >= y for x, y in zip(ranks, ranks[1:])):
        raise InvalidParameters("vertex ranks must strictly increase")


def _turn(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def two_pass_lattice_polygon(vertices) -> tuple[tuple[int, int], ...]:
    """The vertices :class:`~frobstrat.polygons.LatticePolygon` keeps, each
    check a separate pass over the whole chain: conversion, length, start,
    ranks, then every turn strictly clockwise."""
    verts = _exact_pairs(vertices)
    _check_head_and_ranks(verts)
    if any(_turn(*verts[i : i + 3]) >= 0 for i in range(len(verts) - 2)):
        raise NotConvex(f"segment slopes must strictly decrease, got {verts}")
    return verts


def two_pass_make_polygon(points) -> tuple[tuple[int, int], ...]:
    """The vertices :func:`~frobstrat.polygons.make_polygon` returns: the
    raw chain converted and its head and ranks checked, collinear interior
    points dropped by a stack that pops while the last two kept points and
    the next are collinear, then the kept chain checked again in full."""
    pts = _exact_pairs(points)
    if not pts:
        raise BadStart("empty vertex chain")
    _check_head_and_ranks(pts)
    kept: list[tuple[int, int]] = []
    for pt in pts:
        while len(kept) >= 2 and _turn(kept[-2], kept[-1], pt) == 0:
            kept.pop()
        kept.append(pt)
    return two_pass_lattice_polygon(kept)
