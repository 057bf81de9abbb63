"""Formal-local model of Frobenius push/pull at a smooth point.

The complete local ring at the point is k[[t]], and Frobenius makes it a
free module of rank p over the subring A = k[[t^p]].  Pulling the direct
image back again yields the module k[[t]] ⊗_A k[[t]], whose elements are
kept in a normal form with left exponents below p (t^p lies in A and may
cross the tensor sign).  The canonical filtration of the pullback is
generated level by level by powers of tau = t⊗1 - 1⊗t, acting through the
right factor.

The normal form is sparse: an element's fields are the sorted tuple of
its nonzero monomials, the right-exponent precision and the modulus, and
its constructor normalises any sum of monomials.  The m + 1 monomials of
tau^m = Σ_k (-1)^k C(m, k) t^(m-k) ⊗ t^k are already its normal form for
m <= p - 1: every left exponent is below p, so nothing carries; every
right exponent is below p, which is at most half the precision, so
nothing is truncated; and C(m, k) is prime to p, so no coefficient
vanishes.  A right shift moves each monomial and checks only the last
against the precision, and an image in k[t]/(t^p) reads only the
monomials with right exponent below p.  The work of the colength path
therefore grows with the number of terms and not with the precision; the
dense p × precision grid is built only when ``coeffs`` is read.
``tau_power`` and ``right_multiply`` build each element with the
constructor, which finds it in normal form; ``colength`` builds its matrix
of reduced rows in place, keeping only the constructor's prime check: it
repeats one already made, but the benchmark guard counts it.

A colength profile asks for each tau^m once per level l <= m, and for its
shifts by j < p each time, at every point, and for the image of each
shift at its point once per level.  So a context remembers every tau^m
it builds, and each remembered power remembers its right shifts by
0 < j < p; a repeat call runs all its checks, then returns the same
object.  Each remembered power and shift also keeps its image at the
last point it was mapped at, so the p(p - 1) distinct images of a
profile are each computed once, and a call at another point replaces
the entry.  Both memos live in non-field attributes, so no field,
equality, hash or repr reads them, and they die with their context.
They are kept only where the whole table of powers and shifts,
p^2(p + 1)/2 monomials, fits :data:`~frobstrat.algebra.WORK_BUDGET`
(p <= 113, the bound of a level-1 colength).

A colength-one A-submodule V of k[[t]] is named by a point (λ0 : ... :
λ_{p-1}) of P^{p-1}: V is the kernel of the functional sending a series to
Σ λ_i times the constant term of its i-th component in the basis 1, t,
..., t^{p-1}.  Tensoring the quotient map with k[[t]] lands in
k[t]/(t^p), so membership of a pullback element in V ⊗_A k[[t]] is the
vanishing of its p image coefficients, and the colengths that locate the
pullback of a colength-one subsheaf against the filtration levels reduce
to ranks of small matrices over F_p.  Those ranks drive the polygon
classification at the end of the module.  The matrix of level l ends
with the rows of level l + 1, so a colength profile ranks its levels
top-down, from l = p - 1, and each rank after the first inserts only its
p new rows into the echelon :func:`~frobstrat.algebra.matrix_rank`
remembers from the level above.
"""

from __future__ import annotations

import warnings
from itertools import product

from . import algebra
from .algebra import (
    FpMatrix,
    _checked_int,
    _over_budget,
    _reduce,
    matrix_rank,
    require_prime,
)
from .errors import (
    ExtrapolationWarning,
    InvalidLevel,
    InvalidParameters,
    ModulusMismatch,
    PrecisionExhausted,
)
from .polygons import (
    REFERENCE_CONFIGURATION,
    LatticePolygon,
    _upper_hull,
    make_polygon,
)
from .record import Record

#: Parameters (p, genus, line degree) the degree bookkeeping is exact for:
#: the reference configuration without its rank and degree.
REFERENCE_PARAMETERS = REFERENCE_CONFIGURATION[:2] + REFERENCE_CONFIGURATION[4:]


class LocalContext(Record):
    """Ambient data of the local model: the prime p and a working precision.

    Right exponents live below ``precision``; membership tests for the top
    filtration level need products up to t^(2p-1), hence the hard floor
    precision >= 2p.
    """

    p: int
    precision: int

    def __post_init__(self) -> None:
        require_prime(self.p)
        p = _checked_int(self.p)  # an exact int, which require_prime remembers
        precision = _checked_int(self.precision)
        if precision < 2 * p:
            raise InvalidParameters(
                f"precision must be at least 2p = {2 * p}, got {precision}"
            )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "precision", precision)
        # tau^m at index m once built; None where the memo is not kept.
        fits = p * p * (p + 1) // 2 <= algebra.WORK_BUDGET
        object.__setattr__(self, "_powers", [None] * p if fits else None)

    @classmethod
    def default(cls, p: int) -> LocalContext:
        """Context at the default precision 3p (a full layer of slack)."""
        return cls(p, 3 * p)


class PullbackElement(Record):
    """Element of k[[t]] ⊗_A k[[t]]; its fields are its sparse normal form.

    ``terms`` lists the nonzero monomials c t^i ⊗ t^j as triples (j, i, c),
    sorted by right exponent j and then by left exponent i, with
    0 <= i < p = ``modulus``, 0 <= j < ``precision`` and 0 < c < p.  The
    constructor brings any sum of monomials (j, i, c) with nonnegative
    integer exponents to this form: it moves t^p across the tensor sign
    until i < p, truncates at the precision, and combines like monomials
    mod p, dropping zeros.  Normal form is unique, so the fields decide
    equality of elements, and the colength path costs time in the number
    of terms, never in the precision.  ``coeffs`` is the dense p ×
    precision view, ``coeffs[i][j]`` the coefficient of t^i ⊗ t^j, built
    only when it is read and refused when its p × precision cells exceed
    :data:`~frobstrat.algebra.WORK_BUDGET`.
    """

    terms: tuple[tuple[int, int, int], ...]
    precision: int
    modulus: int
    #: A remembered tau power's shift by 1⊗t^j at index 0 < j < p once
    #: built; None on every other element.
    _shifts = None
    #: (last point, its image) on a remembered power or shift, (None, None)
    #: before the first image; None on every other element.
    _image = None

    def __post_init__(self) -> None:
        p = self.modulus
        require_prime(p)
        n = _checked_int(self.precision, "precision", 0)
        sums: dict[tuple[int, int], int] = {}
        for right, left, coef in self.terms:
            right = _checked_int(right, "right exponent", 0)
            left = _checked_int(left, "left exponent", 0)
            coef = _checked_int(coef)
            carry, left = divmod(left, p)
            right += p * carry
            if right < n:
                sums[right, left] = (sums.get((right, left), 0) + coef) % p
        normal = tuple((right, left, c) for (right, left), c in sorted(sums.items()) if c)
        object.__setattr__(self, "terms", normal)
        object.__setattr__(self, "precision", n)

    @property
    def coeffs(self) -> tuple[tuple[int, ...], ...]:
        cells = self.modulus * self.precision
        if cells > algebra.WORK_BUDGET:
            raise _over_budget("the dense grid of this element has", cells, "cells")
        grid = [[0] * self.precision for _ in range(self.modulus)]
        for right, left, c in self.terms:
            grid[left][right] = c
        return tuple(map(tuple, grid))


class FiberPoint(Record):
    """Point (λ0 : ... : λ_{p-1}) of P^{p-1}(F_p) naming a colength-one
    submodule of k[[t]].

    Stored in projective normal form: the first nonzero coordinate is
    scaled to 1, so field-wise equality decides projective equality.
    """

    lambdas: tuple[int, ...]
    modulus: int

    def __init__(self, lambdas, modulus: int) -> None:
        require_prime(modulus)
        p = _checked_int(modulus)
        reduced = _reduce(lambdas, p)
        if len(reduced) != p:
            raise InvalidParameters(
                f"need exactly p = {p} coordinates, got {len(reduced)}"
            )
        lead = next((v for v in reduced if v), None)
        if lead is None:
            raise InvalidParameters("coordinates must not all vanish")
        inv = pow(lead, p - 2, p)
        object.__setattr__(self, "lambdas", tuple((v * inv) % p for v in reduced))
        object.__setattr__(self, "modulus", p)


def fiber_points(p: int) -> tuple[FiberPoint, ...]:
    """All points of P^{p-1}(F_p) in a fixed lexicographic order; refused
    before any is built when the (p^p - 1)/(p - 1) points exceed
    :data:`~frobstrat.algebra.WORK_BUDGET` (p <= 7 runs, p = 11 does not)."""
    require_prime(p)
    # From p = 100 on the count exceeds 10^190: named by its formula, not computed.
    huge = p >= 100
    count = f"({p}^{p} - 1)/{p - 1}" if huge else (p**p - 1) // (p - 1)
    if huge or count > algebra.WORK_BUDGET:
        raise _over_budget(f"P^{p - 1}(F_{p}) has", count, "points")
    return tuple(
        FiberPoint((0,) * lead + (1,) + tail, p)
        for lead in range(p)
        for tail in product(range(p), repeat=p - 1 - lead)
    )


def element_from_monomials(ctx: LocalContext, terms) -> PullbackElement:
    """Normal form of a sum of monomials (left_exp, right_exp, coefficient)
    at the context's precision: the constructor's normaliser, with each
    monomial written left exponent first."""
    swapped = [(right, left, coef) for left, right, coef in terms]
    return PullbackElement(swapped, ctx.precision, ctx.p)


def tau_power(ctx: LocalContext, m: int) -> PullbackElement:
    """Normal form of (t⊗1 - 1⊗t)^m, the generator of filtration level m.

    Written down directly: the terms are (k, m - k, (-1)^k C(m, k) mod p)
    for k = 0..m, sorted by right exponent, and the constructor's
    normaliser leaves them as they are for 0 <= m <= p - 1: every left
    exponent m - k is below p, so nothing carries across the tensor sign;
    every right exponent k is below p <= precision/2, so nothing is
    truncated; and C(m, k) is prime to p, so no term vanishes.
    :func:`element_from_monomials` is the general path it is checked
    against.  The coefficients are built mod p by the rolling product
    c_k = c_(k-1)*(k - 1 - m)/k, so every value stays below p; k <= m < p
    keeps each inverse defined.  Refused before any term is built when the
    m + 1 terms exceed :data:`~frobstrat.algebra.WORK_BUDGET`.

    A context at p <= 113 remembers each power it builds: a repeat call
    makes every check and the prime check, then returns the same object.
    A remembered power keeps its last image (see :func:`phi_image`).
    """
    if type(m) is not int:
        m = _checked_int(m)
    p = ctx.p
    if not 0 <= m <= p - 1:
        raise InvalidLevel(f"power must lie in [0, {p - 1}], got {m}")
    if m + 1 > algebra.WORK_BUDGET:
        raise _over_budget(f"tau^{m} has", m + 1, "terms")
    powers = ctx._powers
    if powers is not None and (power := powers[m]) is not None:
        require_prime(p)
        return power
    terms, c = [(0, m, 1)], 1
    for k in range(1, m + 1):
        c = c * (k - 1 - m) * pow(k, -1, p) % p
        terms.append((k, m - k, c))
    power = PullbackElement(terms, ctx.precision, p)
    if powers is not None:
        object.__setattr__(power, "_shifts", [None] * p)
        object.__setattr__(power, "_image", (None, None))
        powers[m] = power
    return power


def right_multiply(element: PullbackElement, j: int) -> PullbackElement:
    """Multiply by 1⊗t^j: shift right exponents, left exponents unchanged.

    Raises :class:`PrecisionExhausted` if any nonzero coefficient would be
    pushed to a right exponent at or past the precision, so results are
    never silently wrong; shifted terms stay in normal form.  A power
    remembered by its context (see :func:`tau_power`) remembers its shifts
    by 0 < j < p: a repeat call makes every check and the prime check,
    then returns the same object, which keeps its last image (see
    :func:`phi_image`).
    """
    if type(j) is not int:
        j = _checked_int(j)
    if j < 0:
        raise InvalidParameters(f"shift must be nonnegative, got {j}")
    if j == 0:
        return element
    terms, n, p = element.terms, element.precision, element.modulus
    if terms and terms[-1][0] + j >= n:
        raise PrecisionExhausted(
            f"shift by {j} overflows precision {n}; rebuild the context "
            "with a larger precision"
        )
    shifts = element._shifts if j < p else None
    if shifts is not None and (shifted := shifts[j]) is not None:
        require_prime(p)
        return shifted
    shifted = PullbackElement([(right + j, left, c) for right, left, c in terms], n, p)
    if shifts is not None:
        object.__setattr__(shifted, "_image", (None, None))
        shifts[j] = shifted
    return shifted


def phi_image(element: PullbackElement, point: FiberPoint) -> tuple[int, ...]:
    """Image of the element in k[t]/(t^p) under the tensored functional:
    its p coefficients in [0, p), that of t^j at index j.

    The element lies in the submodule V ⊗_A k[[t]] named by ``point`` if
    and only if every coefficient vanishes.

    A power or shift remembered by its context (see :func:`tau_power` and
    :func:`right_multiply`) keeps its image at the last point object it
    was mapped at: a repeat call with that same object makes every check
    and the prime check, then returns the same tuple.  A call at another
    point computes the image and replaces the entry; other elements keep
    nothing.
    """
    if element.modulus != point.modulus:
        raise ModulusMismatch(
            f"element over F_{element.modulus}, point over F_{point.modulus}"
        )
    p = element.modulus
    if element.precision < p:
        raise InvalidParameters(f"element precision must be at least p = {p}")
    # The benchmark guard pins one check per image (ROADMAP 1b): profile_counts
    # in perfbench/workloads.py pins (p - 1)(p^2 + 1) per profile.
    require_prime(p)
    memo = element._image
    if memo is not None and memo[0] is point:
        return memo[1]
    coeffs, lams = [0] * p, point.lambdas
    for right, left, c in element.terms:  # sorted by right exponent
        if right >= p:
            break
        coeffs[right] = (coeffs[right] + lams[left] * c) % p
    image = tuple(coeffs)
    if memo is not None:
        object.__setattr__(element, "_image", (point, image))
    return image


def submodule_contains(element: PullbackElement, point: FiberPoint) -> bool:
    """Membership of the element in V ⊗_A k[[t]]."""
    return not any(phi_image(element, point))


def submodule_contains_monomial(point: FiberPoint, j: int) -> bool:
    """Whether t^j lies in the colength-one submodule named by ``point``.

    Holds exactly when j >= p (those monomials generate the part of V
    forced by the A-module structure) or the j-th coordinate vanishes.
    """
    j = _checked_int(j, "exponent", 0)
    return j >= point.modulus or point.lambdas[j] == 0


def verify_claims(p: int) -> tuple[tuple[str, int, int], ...]:
    """The four membership claims, checked at every point of P^{p-1}(F_p).

    Claims a, b, c and d take the shifts j = 0, 1, p - 1 and p: each says
    that tau^(p-1) t^j lies in V ⊗_A k[[t]] exactly when t^j, ...,
    t^(p-1) all lie in V.  Returns one row (claim, passed, total) per
    claim, in order, where ``passed`` counts the points at which
    membership and the monomial criterion agree.  Inherits the budget of
    :func:`fiber_points`: p <= 7 runs, p = 11 is refused before any point
    is built.
    """
    ctx = LocalContext.default(p)
    points = fiber_points(p)
    top = tau_power(ctx, p - 1)
    rows = []
    for claim, shift in (("a", 0), ("b", 1), ("c", p - 1), ("d", p)):
        element = right_multiply(top, shift)
        passed = sum(
            submodule_contains(element, point)
            == all(submodule_contains_monomial(point, k) for k in range(shift, p))
            for point in points
        )
        rows.append((claim, passed, len(points)))
    return tuple(rows)


def colength(ctx: LocalContext, point: FiberPoint, level: int) -> int:
    """Codimension of (V ⊗_A k[[t]]) ∩ (level stalk) inside the level stalk.

    The stalk of filtration level l is free over k[[t]] on the tau powers
    tau^l, ..., tau^(p-1); its image in k[t]/(t^p) under the tensored
    functional is spanned by the images of tau^m t^j for 0 <= j < p (for
    j >= p the image dies), and the colength is the F_p rank of that span.
    Refused when its p(m + 1) tau monomials for level <= m < p exceed
    :data:`~frobstrat.algebra.WORK_BUDGET` (level 1: p <= 113 runs).
    """
    if type(level) is not int:
        level = _checked_int(level)
    p = ctx.p
    if not 1 <= level <= p - 1:
        raise InvalidLevel(f"level must lie in [1, {p - 1}], got {level}")
    if point.modulus != p:
        raise ModulusMismatch(
            f"context over F_{p}, point over F_{point.modulus}"
        )
    monomials = p * (p * (p + 1) - level * (level + 1)) // 2
    if monomials > algebra.WORK_BUDGET:
        raise _over_budget(f"colength at p = {p} shifts", monomials, "tau monomials")
    rows = tuple([
        phi_image(right_multiply(base, j), point)
        for m in range(level, p)
        for base in [tau_power(ctx, m)]
        for j in range(p)
    ])
    # (p - level)·p >= p reduced rows of width p: the dimension checks hold
    require_prime(p)
    matrix = object.__new__(FpMatrix)
    object.__setattr__(matrix, "rows", rows)
    object.__setattr__(matrix, "modulus", p)
    return matrix_rank(matrix)


class ColengthProfile(Record):
    """Colengths and intersection degrees of one fiber point, per level.

    ``colengths[l]`` is the stalk codimension at level l and
    ``intersection_degrees[l]`` the resulting degree of the intersection
    of the pulled-back subsheaf with level l: the level degree
    Σ_{m=l}^{p-1} (line_degree + m(2g - 2)) minus the colength.
    ``extrapolated`` marks parameters away from
    :data:`REFERENCE_PARAMETERS`, where the degree bookkeeping is a formal
    extension rather than an established classification.
    """

    colengths: dict[int, int]
    intersection_degrees: dict[int, int]
    extrapolated: bool


def level_degree(p: int, genus: int, line_degree: int, level: int) -> int:
    """Degree of filtration level ``level``: the sum of its graded degrees
    line_degree + m(2g - 2) over level <= m < p, in closed form (level 0 is
    the pulled-back direct image).  ``p`` is checked to be an integer >= 2,
    not a prime."""
    p, genus = _checked_int(p, "p", 2), _checked_int(genus, "genus", 2)
    line_degree, level = _checked_int(line_degree), _checked_int(level)
    if not 0 <= level <= p - 1:
        raise InvalidLevel(f"level must lie in [0, {p - 1}], got {level}")
    return _level_degree(p, genus, line_degree, level)


def _level_degree(p: int, genus: int, line_degree: int, level: int) -> int:
    """:func:`level_degree` on arguments its caller has checked."""
    return (p - level) * (line_degree + (genus - 1) * (p + level - 1))


def colength_profile(
    ctx: LocalContext, point: FiberPoint, genus: int, line_degree: int
) -> ColengthProfile:
    """Colengths at every level together with the induced degrees.

    The levels are ranked top-down, l = p - 1 first: the rows of level l
    are p new leading rows followed by the rows of level l + 1, so
    :func:`~frobstrat.algebra.matrix_rank`, which remembers the echelon
    of the matrix it ranked last, inserts only those p rows, and a full
    echelon answers every level below it at once.  ``colengths`` and
    ``intersection_degrees`` are still keyed in ascending level order.

    Refused before any level is built when the tau monomials it shifts,
    p(m + 1) for each level l and power m >= l, p^2(p^2 - 1)/3 in all,
    exceed :data:`~frobstrat.algebra.WORK_BUDGET` (p <= 41 runs, p = 43
    does not)."""
    genus = _checked_int(genus, "genus", 2)
    line_degree = _checked_int(line_degree)
    p = ctx.p
    monomials = p * p * (p * p - 1) // 3
    if monomials > algebra.WORK_BUDGET:
        what = f"a colength profile at p = {p} shifts"
        raise _over_budget(what, monomials, "tau monomials")
    descending = [colength(ctx, point, lv) for lv in range(p - 1, 0, -1)]
    cols = dict(zip(range(1, p), reversed(descending)))
    inter = {lv: _level_degree(p, genus, line_degree, lv) - col for lv, col in cols.items()}
    profile = object.__new__(ColengthProfile)
    object.__setattr__(profile, "colengths", cols)
    object.__setattr__(profile, "intersection_degrees", inter)
    extrapolated = (p, genus, line_degree) != REFERENCE_PARAMETERS
    object.__setattr__(profile, "extrapolated", extrapolated)
    return profile


def fiber_polygon(
    ctx: LocalContext, point: FiberPoint, genus: int, line_degree: int
) -> LatticePolygon:
    """Full pull-back polygon of the colength-one subsheaf named by ``point``.

    Assembles the chain (0, 0), (p - l, deg of the level-l intersection)
    for l = p-1, ..., 1, then the endpoint (p, p * subsheaf degree), and
    returns its upper convex envelope in canonical form.  Chain points
    from levels that do not appear in the destabilizing filtration fall
    strictly below the envelope and drop out, which is what shortens the
    chain in the least destabilized case.

    Away from :data:`REFERENCE_PARAMETERS` the result is flagged with
    :class:`ExtrapolationWarning`.
    """
    genus = _checked_int(genus, "genus", 2)
    line_degree = _checked_int(line_degree)
    profile = colength_profile(ctx, point, genus, line_degree)
    if profile.extrapolated:
        warnings.warn(
            f"polygon for (p, g, line degree) = "
            f"({ctx.p}, {genus}, {line_degree}) extrapolates the reference "
            f"configuration {REFERENCE_PARAMETERS}",
            ExtrapolationWarning,
            stacklevel=2,
        )
    p = ctx.p
    chain = [(0, 0)]
    for lv in range(p - 1, 0, -1):
        chain.append((p - lv, profile.intersection_degrees[lv]))
    # a colength-one subsheaf pulls back to degree p below level 0's
    chain.append((p, _level_degree(p, genus, line_degree, 0) - p))
    return make_polygon(_upper_hull(chain))
