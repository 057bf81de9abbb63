"""Integral convex polygons in the rank-degree plane.

A polygon here is the graph of a piecewise-linear concave function from
(0, 0) to (r, D) with integral vertices and strictly decreasing segment
slopes: the shape of a Harder-Narasimhan polygon.  This module provides
construction and canonical form, exact-rational slopes and heights at the
integer abscissae, the pointwise domination order, duals, the shapes
admissible for Frobenius pull-backs of semistable bundles (found by one
exhaustive walk over vertex chains inside the slope-drop and spread
windows), and the extremal shape realised by direct images under Frobenius
with the dimension of its stratum.

Heights and slopes are :class:`fractions.Fraction` values at the API; the
order, convexity and slope bounds are decided by integer cross-products,
so only the functions that return a Fraction import :mod:`fractions`, when
they are called: at module level it would add the import of
:mod:`fractions` and :mod:`decimal`, a few milliseconds, to every CLI
call.  They bind it as ``import fractions`` and ``Fraction =
fractions.Fraction``.  On CPython 3.11 ``from fractions import Fraction``
also looks up ``fractions.__path__``, which a plain module lacks, and
builds and discards an AttributeError on every call: about 0.9 us
against 0.12 us for the import and the attribute read (``timeit``,
Python 3.11.7).  One
validating pass converts a vertex chain, drops its collinear interior
points and checks its start, its strictly increasing ranks (those of the
raw chain, collinear points included) and its strict convexity; the
public constructor and :func:`make_polygon` share it, and the polygon is
then built by a trusted constructor that checks nothing again.  The walk
keeps each slope as an integer pair (num, den > 0) and each degree window
as floor divisions, pruned to the chains that can still close within both
the spread and the slope drops still to come.  It sorts its polygons by
one exact int per polygon read off their heights: one pass over the
vertices gives the heights at the integer abscissae, an int at each
vertex and a running numerator over the run inside a segment, and the
key reads each height once as a numerator and a denominator.  A vertex
pair that is already a tuple of two exact ints is kept, not copied, so
the walk's polygons share their pairs with its chain.
"""

from __future__ import annotations

from math import lcm
from operator import index

from . import algebra
from .algebra import _checked_int, _not_integral, _over_budget, _word_charge
from .algebra import is_prime, require_prime
from .errors import BadStart, EndpointMismatch, InvalidParameters, NotConvex
from .record import Record


def _lattice_points(points, drop_collinear: bool) -> tuple[tuple[int, int], ...]:
    """The canonical vertex chain of ``points``, validated in one pass.

    Each pair becomes an exact-int pair: a tuple of two exact ints is kept,
    not copied, so polygons built from one chain share its pairs, and a
    float or a fraction is refused, not truncated.  The same pass checks
    that the ranks of the raw chain strictly increase and compares each
    segment's slope with the last kept segment's by cross-multiplication.
    An equal slope extends that segment when ``drop_collinear`` is set (as
    ranks increase, a point drops at most the one kept vertex before it)
    and is a turn that is not strictly clockwise otherwise.  A failed check
    is raised once every pair is read, in the order: non-integral entry,
    empty chain (:class:`BadStart` when dropping collinear points), fewer
    than two vertices, start, ranks, convexity.
    """
    kept: list[tuple[int, int]] = []
    rising = convex = True
    sx, sy = 0, 1  # run and rise of the last kept segment; vertical before the first
    try:
        for pt in points:
            x, y = pt
            if type(pt) is not tuple or type(x) is not int or type(y) is not int:
                pt = x, y = index(x), index(y)
            if not kept:
                kept.append(pt)
            elif rising:
                dx, dy = x - x1, y - y1
                turn = sx * dy - sy * dx  # > 0 when the slope rises, 0 when it stays
                if dx <= 0:
                    rising = False  # only the entries are left to check
                elif turn == 0 and drop_collinear:
                    kept[-1] = pt  # the last segment grows, its slope stays
                else:
                    if turn >= 0:
                        convex = False
                    kept.append(pt)
                    sx, sy = dx, dy
            x1, y1 = x, y  # while ranks rise, also the last kept vertex
    except TypeError:
        raise _not_integral(points) from None
    if not kept and drop_collinear:
        raise BadStart("empty vertex chain")
    if len(kept) < 2 and rising:  # a falling rank needs two points
        raise InvalidParameters("a polygon needs at least two vertices")
    if kept[0] != (0, 0):
        raise BadStart(f"polygon must start at (0, 0), got {kept[0]}")
    if not rising:
        raise InvalidParameters("vertex ranks must strictly increase")
    verts = tuple(kept)
    if not convex:
        raise NotConvex(f"segment slopes must strictly decrease, got {verts}")
    return verts


class LatticePolygon(Record):
    """Canonical vertex chain: starts at (0, 0), slopes strictly decreasing.

    Construction runs the one validating pass of :func:`_lattice_points`,
    which refuses a collinear interior vertex as not convex; use
    :func:`make_polygon` to build one from a raw chain that may still
    contain collinear interior vertices.  A vertex given as a tuple of two
    exact ints is kept, not copied; any other pair is converted.
    """

    vertices: tuple[tuple[int, int], ...]

    def __init__(self, vertices) -> None:
        object.__setattr__(self, "vertices", _lattice_points(vertices, False))

    @property
    def endpoint(self) -> tuple[int, int]:
        return self.vertices[-1]

    @property
    def rank(self) -> int:
        return self.vertices[-1][0]

    def __str__(self) -> str:
        return "->".join(f"({a},{b})" for a, b in self.vertices)


def make_polygon(points) -> LatticePolygon:
    """Build a polygon from a vertex chain, dropping collinear interior points.

    The chain must start at (0, 0) and the ranks of the raw chain, collinear
    points included, must strictly increase; slopes must strictly decrease
    once collinear points are removed, otherwise :class:`NotConvex` is
    raised.  One pass converts, validates and drops (:func:`_lattice_points`),
    and the polygon is built in place on its result, so no check runs
    twice.  Pairs that are tuples of two exact ints are kept, not copied; a
    bool, an int subclass or a list pair becomes an exact-int tuple, and a
    float or a fraction is refused.
    """
    polygon = object.__new__(LatticePolygon)
    # set, not written into __dict__: reading __dict__ would give each
    # polygon a dict of its own, 64 bytes more than its inline attributes
    object.__setattr__(polygon, "vertices", _lattice_points(points, True))
    return polygon


def _upper_hull(points):
    """Upper convex envelope of points with strictly increasing abscissae."""
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) >= 0:
            hull.pop()
        hull.append(pt)
    return hull


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments(pg: LatticePolygon) -> list[tuple[int, int]]:
    """(run, rise) of each segment, left to right."""
    v = pg.vertices
    return [(x1 - x0, y1 - y0) for (x0, y0), (x1, y1) in zip(v, v[1:])]


def _drop(s, t) -> tuple[int, int]:
    """Slope of segment ``s`` minus that of ``t``: (numerator, denominator > 0)."""
    return s[1] * t[0] - t[1] * s[0], s[0] * t[0]


def slopes(pg: LatticePolygon) -> tuple[Fraction, ...]:
    """Strictly decreasing segment slopes, one per segment."""
    import fractions
    Fraction = fractions.Fraction
    return tuple(Fraction(dy, dx) for dx, dy in _segments(pg))


def slope_gaps(pg: LatticePolygon) -> tuple[Fraction, ...]:
    """Drops between successive segment slopes (all positive)."""
    segs = slopes(pg)
    return tuple(cur - nxt for cur, nxt in zip(segs, segs[1:]))


def integer_heights(pg: LatticePolygon) -> tuple[Fraction, ...]:
    """Heights at the integer abscissae 0, 1, ..., rank, in one pass over
    the vertices by index: y0 at the start x0 of the segment from (x0, y0)
    with run dx and rise dy, then (y0*dx + k*dy)/dx at x0 + k for
    0 < k < dx, its numerator kept as a running sum that gains dy per
    step, then the endpoint's degree.  Every vertex height, so every
    height of a run-1 segment, is an int and becomes ``Fraction(y)``
    without a gcd; only the interior abscissae of longer runs pass a
    numerator and a denominator.  Each height is a
    :class:`~fractions.Fraction`, a class bound per call as the module
    docstring says, since the walk makes one call per polygon.  Refused,
    before any height is built, when the rank + 1 abscissae exceed
    :data:`~frobstrat.algebra.WORK_BUDGET`."""
    import fractions
    Fraction = fractions.Fraction
    verts = pg.vertices
    n = verts[-1][0] + 1
    if n > algebra.WORK_BUDGET:
        raise _over_budget(f"a polygon of rank {n - 1} has", n, "integer abscissae")
    heights: list[Fraction] = []
    append = heights.append
    x0, y0 = verts[0]
    for i in range(1, len(verts)):
        x1, y1 = verts[i]
        append(Fraction(y0))
        dx = x1 - x0
        if dx > 1:
            num, dy = y0 * dx, y1 - y0
            for _ in range(1, dx):
                num += dy
                append(Fraction(num, dx))
        x0, y0 = x1, y1
    append(Fraction(y0))
    return tuple(heights)


def dominates(a: LatticePolygon, b: LatticePolygon) -> bool:
    """Pointwise domination: ``a`` lies on or above ``b`` everywhere.

    Checked at the vertices of ``b``, which suffices because ``b`` is
    linear between them and ``a`` is concave: each vertex of ``b`` makes a
    cross product <= 0 with each segment of ``a`` spanning its abscissa.
    This is a genuine partial order: reflexive, transitive, antisymmetric.
    """
    if a.endpoint != b.endpoint:
        raise EndpointMismatch(
            f"cannot compare endpoints {a.endpoint} and {b.endpoint}"
        )
    va = a.vertices
    return all(
        _cross(u, v, w) <= 0
        for w in b.vertices
        for u, v in zip(va, va[1:])
        if u[0] <= w[0] <= v[0]
    )


def dual_polygon(pg: LatticePolygon) -> LatticePolygon:
    """Polygon of the dual family: reflect (a, b) to (r - a, b - D).

    An involution; for endpoint degree D = 0 the endpoint is preserved,
    in general the dual ends at (r, -D).
    """
    r, dd = pg.endpoint
    pts = [(r - a, b - dd) for a, b in reversed(pg.vertices)]
    return make_polygon(pts)


def satisfies_gap_bound(pg: LatticePolygon, g: int) -> bool:
    """Every drop between successive slopes is at most 2g - 2."""
    g, segs = _checked_int(g, "genus", 2), _segments(pg)
    return all(n <= (2 * g - 2) * d for n, d in map(_drop, segs, segs[1:]))


def _spread(pg: LatticePolygon, p, g) -> tuple[int, int, int, int]:
    """Checked p (prime) and g, and the first slope minus the last as (n, d > 0)."""
    p, g = _checked_int(p, "p", 2), _checked_int(g, "genus", 2)
    if not is_prime(p):  # require_prime's refusal, without a call the tracer counts
        raise InvalidParameters(f"modulus must be a prime integer, got {p}")
    segs = _segments(pg)
    return p, g, *_drop(segs[0], segs[-1])


def satisfies_spread_bound(pg: LatticePolygon, p: int, g: int) -> bool:
    """Largest minus smallest slope is at most min(r-1, p-1)(2g-2), p prime."""
    p, g, n, d = _spread(pg, p, g)
    return n <= min(pg.rank - 1, p - 1) * (2 * g - 2) * d


def enumerate_frobenius_polygons(
    p: int, g: int, r: int, d: int
) -> tuple[LatticePolygon, ...]:
    """All destabilized pull-back shapes from (0, 0) to (r, p*d).

    Enumerates canonical polygons with at least two segments, integral
    vertices, strictly decreasing slopes, successive slope drops at most
    2g - 2 and total slope spread at most min(r-1, p-1)(2g-2).  One walk
    extends a vertex chain a segment at a time, trying every rank rk that
    stays inside r and every integer degree in the window the bounds
    leave.  A slope is an integer pair (num, den > 0), so each window is
    floor divisions: rk*p*d // r + 1 to rk*(p*d + r*spread) // r for the
    first segment, which must rise above the chord of slope p*d/r, and
    ceil(rk*(pn - gap*pd)/pd) to ceil(rk*pn/pd) - 1 after a segment of
    slope pn/pd.  Each window is cut to the chains that can still close:
    the new segment rises above the chord from its start to (r, p*d), and
    the chord from its end to (r, p*d) is at least the first slope minus
    the spread and at least dy/rk - gap*(rest + 1)/2, where the new segment
    has run rk and rise dy and leaves rest = r - x - rk ranks to fill.  The
    last bound caps the rise at rk*(sn + gap*rest*(rest + 1)/2) // sd, for
    a chord of rise sn and run sd from the segment's start to (r, p*d).
    Proof: the i-th of the at most rest segments after the new vertex has
    slope at least dy/rk - i*gap, and their runs n_i >= 1 sum to rest, so
    sum(i*n_i) <= rest*(rest + 1)/2.  At rest = 1 it is the drop bound of
    the closing segment, so every chain visited at x = r - 1 closes.  The
    segment reaching x = r has its degree fixed by the endpoint and is kept
    when its slope meets the same bounds, compared by cross-multiplication.
    Every cut is a necessary condition, so the walk is exhaustive, and
    strictly decreasing slopes make each chain canonical and reached once.
    Each polygon holds the walk's vertex pairs, not copies, and the one
    endpoint pair of the call.  Returns a tuple of pairwise distinct
    polygons ending at (r, p*d), sorted by their height vectors at integer
    abscissae, a total order refining domination, each vector read as the
    digits of one int.  Refused once the walk takes more steps than
    :data:`~frobstrat.algebra.WORK_BUDGET`, counting r - x for each chain
    visited at (x, y) (its closing segment and each rank it tries) and
    r + 1 for each polygon kept: (11, 3, 7, 0) takes 57,408.
    """
    p = require_prime(p)
    g = _checked_int(g, "genus", 2)
    r = _checked_int(r, "rank", 2)
    d = _checked_int(d)
    total = p * d
    gap = 2 * g - 2
    spread = min(r - 1, p - 1) * gap
    budget = algebra.WORK_BUDGET
    end = (r, total)
    found: list[LatticePolygon] = []
    steps = 0
    verts = [(0, 0)]  # the chain being visited, extended and truncated in place

    def extensions(first, pn, pd):
        """Visit the chain ``verts``, whose first segment has slope ``first``
        (a pair, or None before it) and last segment slope pn/pd, then yield
        the walk of each one-segment extension that can still close, with
        ``verts`` ending at its new vertex until resumed."""
        nonlocal steps
        x, y = verts[-1]
        sn, sd = total - y, r - x  # the segment that closes the chain
        closes = False
        if first is not None:
            fn, fd = first
            least = pn - gap * pd  # over pd: the smallest slope the next segment may take
            closes = least * sd <= sn * pd < pn * sd and fn * sd - sn * fd <= spread * fd * sd
        steps += sd + closes * (r + 1)  # the closing segment, each rank below it, the heights
        if steps > budget:
            what = f"the polygon walk at (p, g, r, d) = {(p, g, r, d)} takes at least"
            raise _over_budget(what, steps, "steps")
        if closes:
            found.append(make_polygon(verts + [end]))
        for rk in range(1, sd):
            # Rise above the chord to the end, and leave a chord to the end
            # no lower than the first slope minus the spread.
            rest = sd - rk
            lo = rk * sn // sd + 1
            if first is None:
                hi = (rk * total + spread * rk * rest) // r
            else:  # and ceil(rk*least/pd) to ceil(rk*pn/pd) - 1
                lo = max(lo, -(-rk * least // pd))
                hi = min((rk * pn - 1) // pd, sn + (spread * fd - fn) * rest // fd)
            # Leave a chord to the end no lower than dy/rk - gap*(rest + 1)/2:
            # the i-th of the at most ``rest`` segments after the new vertex
            # has slope >= dy/rk - i*gap, and their runs n_i >= 1 sum to rest,
            # so sum(i*n_i) <= rest*(rest + 1)/2 and the rise sn - dy is at
            # least rest*dy/rk - gap*rest*(rest + 1)/2.  At rest = 1 this is
            # the closing test's drop bound, so every chain visited at
            # x = r - 1 closes.
            hi = min(hi, rk * (sn + gap * rest * (rest + 1) // 2) // sd)
            for dy in range(lo, hi + 1):
                verts.append((x + rk, y + dy))
                # A pair is never falsy, so a first slope of 0 stays first.
                yield extensions(first or (dy, rk), dy, rk)
                verts.pop()

    # Depth-first over a stack of per-level generators, so a chain's length
    # is bounded by the work budget and not by the recursion limit.
    stack = [extensions(None, None, None)]
    try:
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(child)
    finally:  # extensions refers to itself: free its cells without the collector
        del extensions
    # The sort holds every key at once, so each is one int, not r + 1.
    # Each height times scale is an int v, and v - low lies in
    # [0, base - 1], so a height vector reads as the base-``base`` digits
    # of one int, ordered as the vectors are.  Proof: a concave polygon
    # lies on or above its chord, which is >= min(0, total) on [0, r].  Its
    # first slope s1 is at most the chord slope total/r plus the spread, as
    # the last slope is at most total/r; so its height at x is at most
    # x*s1 <= x*total/r + x*spread <= max(0, total) + r*spread.  The key
    # sums the digits v, not v - low: that shifts every key by the same
    # low*(base**(r + 1) - 1)/(base - 1), so it keeps their order.
    scale = lcm(*range(1, r + 1))  # a multiple of every segment run
    base = scale * (abs(total) + r * spread) + 1

    def key(pg):
        k = 0
        for h in integer_heights(pg):
            num, den = h.as_integer_ratio()
            k = k * base + num * (scale // den)
        return k

    found.sort(key=key)
    return tuple(found)


def canonical_polygon(p: int, g: int, r: int, d: int) -> LatticePolygon:
    """The extremal shape attained by Frobenius direct images.

    Vertices (i*r, d*i + r*i*(p-i)*(g-1)) for 0 <= i <= p, ending at
    (r*p, p*d) where d is the degree of the rank r*p bundle.  Segment i
    has slope d/r + (p - 2i - 1)(g - 1), so every drop between successive
    slopes is 2g - 2.  Refused with :class:`InvalidParameters` before any
    vertex is built when the p + 1 vertices, each counted once per signed
    64-bit word of |d|p + rp^2(g - 1), a bound on every coordinate, exceed
    :data:`~frobstrat.algebra.WORK_BUDGET`.
    """
    p = require_prime(p)
    g = _checked_int(g, "genus", 2)
    r = _checked_int(r, "rank", 1)
    d = _checked_int(d)
    cost = _word_charge(p + 1, abs(d) * p + r * p * p * (g - 1))
    if cost > algebra.WORK_BUDGET:
        what = f"the canonical polygon at p = {p}, counting each vertex once per 64-bit word, has"
        raise _over_budget(what, cost, "vertices")
    return make_polygon(
        [(i * r, d * i + r * i * (p - i) * (g - 1)) for i in range(p + 1)]
    )


def canonical_stratum_dim(r: int, g: int) -> int:
    """Dimension r^2 (g - 1) + 1 of the extremal-polygon stratum."""
    r = _checked_int(r, "rank", 1)
    g = _checked_int(g, "genus", 2)
    return r * r * (g - 1) + 1


def is_canonical(pg: LatticePolygon, p: int, g: int) -> bool:
    """True when the slope spread equals exactly (p - 1)(2g - 2), p prime."""
    p, g, n, d = _spread(pg, p, g)
    return n == (p - 1) * (2 * g - 2) * d


#: The reference configuration (p, g, r, d, line degree): the one case the
#: stratification theorem covers, the CLI's defaults, and the only point
#: where the stratum catalogue and the degree bookkeeping are established.
REFERENCE_CONFIGURATION = (3, 2, 3, 0, -1)

#: The four destabilized pull-back shapes in the reference configuration,
#: keyed by their conventional stratum ids.
REFERENCE_POLYGONS: dict[str, LatticePolygon] = {
    "P1": make_polygon([(0, 0), (1, 1), (3, 0)]),
    "P2": make_polygon([(0, 0), (2, 1), (3, 0)]),
    "P3": make_polygon([(0, 0), (1, 1), (2, 1), (3, 0)]),
    "P4": make_polygon([(0, 0), (1, 2), (2, 2), (3, 0)]),
}


def reference_label(pg: LatticePolygon) -> str | None:
    """Stratum id of ``pg`` in the reference configuration, if any."""
    for label, ref in REFERENCE_POLYGONS.items():
        if pg == ref:
            return label
    return None
