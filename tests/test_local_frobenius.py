"""The formal-local pullback model: normal form, membership, colengths."""

from __future__ import annotations

import itertools
import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, strategies as st

import frobstrat.local_frobenius as lf
from frobstrat import algebra
from conftest import _run_capped
from frobstrat.algebra import FpMatrix, matrix_rank
from frobstrat.errors import (
    ExtrapolationWarning,
    InvalidLevel,
    InvalidParameters,
    ModulusMismatch,
    PrecisionExhausted,
)
from frobstrat.local_frobenius import (
    FiberPoint,
    LocalContext,
    PullbackElement,
    colength,
    colength_profile,
    element_from_monomials,
    fiber_points,
    fiber_polygon,
    level_degree,
    phi_image,
    right_multiply,
    submodule_contains,
    submodule_contains_monomial,
    tau_power,
    verify_claims,
)
from frobstrat.polygons import REFERENCE_POLYGONS, reference_label
from frobstrat.strata import filtration_degrees
from oracles import (
    closed_form_colength,
    dense_phi_image,
    dense_right_multiply,
    grid_terms,
    normalize_monomials,
    rowspace_rank,
    shift_right,
    tau_monomials,
)

CTX3 = LocalContext.default(3)


def grid(element):
    return element.coeffs


def test_context_precision_floor():
    with pytest.raises(InvalidParameters):
        LocalContext(3, 5)
    assert LocalContext.default(3).precision == 9


def test_fiber_point_normal_form():
    assert FiberPoint((2, 0, 0), 3) == FiberPoint((1, 0, 0), 3)
    assert FiberPoint((0, 2, 1), 3).lambdas == (0, 1, 2)


def test_fiber_point_rejects_zero_tuple():
    with pytest.raises(InvalidParameters):
        FiberPoint((0, 0, 0), 3)
    with pytest.raises(InvalidParameters):
        FiberPoint((3, 3, 3), 3)  # reduces to zero mod 3
    with pytest.raises(InvalidParameters):
        FiberPoint((1, 0), 3)  # wrong length


def test_fiber_points_census_size():
    pts = fiber_points(3)
    assert len(pts) == 13
    assert len(set(pts)) == 13
    assert len(fiber_points(2)) == 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_fiber_points_order(p):
    """Normalised representatives (first nonzero coordinate 1), ordered by the
    position of that 1 and then lexicographically."""
    normalised = [
        lam
        for lam in itertools.product(range(p), repeat=p)
        if any(lam) and next(x for x in lam if x) == 1
    ]
    expected = sorted(normalised, key=lambda lam: (lam.index(1), lam))
    points = fiber_points(p)
    assert isinstance(points, tuple)
    assert [point.lambdas for point in points] == expected


def test_tau_power_zero_is_unit():
    e = tau_power(CTX3, 0)
    assert e.coeffs[0][0] == 1
    assert sum(sum(row) for row in e.coeffs) == 1


def test_tau_power_one():
    e = tau_power(CTX3, 1)
    assert e.coeffs[1][0] == 1
    assert e.coeffs[0][1] == 2  # -1 mod 3


def test_tau_power_two():
    e = tau_power(CTX3, 2)
    assert e.coeffs[2][0] == 1
    assert e.coeffs[1][1] == 1  # -2 mod 3
    assert e.coeffs[0][2] == 1


def test_tau_power_range():
    with pytest.raises(InvalidLevel):
        tau_power(CTX3, 3)
    with pytest.raises(InvalidLevel):
        tau_power(CTX3, -1)


def test_right_multiply_shift_one():
    e = right_multiply(tau_power(CTX3, 2), 1)
    assert e.coeffs[2][1] == 1
    assert e.coeffs[1][2] == 1
    assert e.coeffs[0][3] == 1


def test_right_multiply_identity_shift():
    e = tau_power(CTX3, 2)
    assert right_multiply(e, 0) == e


def test_right_multiply_shift_three():
    # (u - v)^2 v^3 = u^2 v^3 - 2 u v^4 + v^5, already in normal form.
    e = right_multiply(tau_power(CTX3, 2), 3)
    assert e.coeffs[2][3] == 1
    assert e.coeffs[1][4] == 1
    assert e.coeffs[0][5] == 1
    expected = normalize_monomials(shift_right(tau_monomials(2), 3), 3, 9)
    assert e.coeffs == expected


def test_right_multiply_overflow():
    with pytest.raises(PrecisionExhausted):
        right_multiply(tau_power(CTX3, 2), 7)
    with pytest.raises(InvalidParameters):
        right_multiply(tau_power(CTX3, 2), -1)


def test_normal_form_matches_rewriting_oracle_exhaustive():
    for a, b in itertools.product(range(9), repeat=2):
        got = element_from_monomials(CTX3, [(a, b, 1)])
        assert got.coeffs == normalize_monomials([(a, b, 1)], 3, 9)


def test_normal_form_idempotent():
    e = element_from_monomials(CTX3, [(4, 1, 2), (2, 2, 1)])
    again = element_from_monomials(
        CTX3,
        [
            (i, j, c)
            for i, row in enumerate(e.coeffs)
            for j, c in enumerate(row)
            if c
        ],
    )
    assert again == e


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_constructor_matches_rewriting_oracle_on_random_sums(p):
    """Seeded random sums with repeated monomials, left exponents >= p,
    right exponents past the precision and coefficients outside [0, p)."""
    rng = random.Random(1000 + p)
    seen = dict.fromkeys(("carry", "cut", "coef"), False)
    for _ in range(300):
        n = rng.choice((2 * p, 3 * p, 3 * p + 1))
        monomials = []
        for _ in range(rng.randrange(1, 12)):
            left, right = rng.randrange(3 * p), rng.randrange(n + 2 * p)
            monomials.append((left, right, rng.randrange(-2 * p, 2 * p)))
        left, right, _ = rng.choice(monomials)  # one monomial repeated
        monomials.append((left, right, rng.randrange(-2 * p, 2 * p)))
        seen["carry"] |= any(a >= p for a, _, _ in monomials)
        seen["cut"] |= any(b + p * (a // p) >= n for a, b, _ in monomials)
        seen["coef"] |= any(not 0 <= c < p for _, _, c in monomials)
        e = PullbackElement([(b, a, c) for a, b, c in monomials], n, p)
        assert e.coeffs == normalize_monomials(monomials, p, n)
        assert list(e.terms) == sorted(set(e.terms))
        assert all(0 <= i < p and 0 <= j < n and 0 < c < p for j, i, c in e.terms)
        assert e == element_from_monomials(LocalContext(p, n), monomials)
    assert all(seen.values()), seen


def test_repr_is_the_field_repr():
    assert repr(tau_power(CTX3, 1)) == (
        "PullbackElement(terms=((0, 1, 1), (1, 0, 2)), precision=9, modulus=3)"
    )


@given(
    j1=st.integers(min_value=0, max_value=3),
    j2=st.integers(min_value=0, max_value=3),
    m=st.integers(min_value=0, max_value=2),
)
def test_right_multiply_composes(j1, j2, m):
    e = tau_power(CTX3, m)
    assert right_multiply(e, j1 + j2) == right_multiply(
        right_multiply(e, j1), j2
    )


def test_phi_image_of_tau_squared():
    # image is c - 2bt + at^2 for the point (a : b : c); never zero.
    for point in fiber_points(3):
        a, b, c = point.lambdas
        assert phi_image(tau_power(CTX3, 2), point) == (c % 3, (-2 * b) % 3, a % 3)
        assert not submodule_contains(tau_power(CTX3, 2), point)


def test_phi_image_shift_one_examples():
    e = right_multiply(tau_power(CTX3, 2), 1)
    assert phi_image(e, FiberPoint((1, 0, 0), 3)) == (0, 0, 0)
    assert phi_image(e, FiberPoint((0, 1, 0), 3)) == (0, 0, 1)  # -2 t^2 = t^2 mod 3


def test_phi_image_shift_three_always_zero():
    e = right_multiply(tau_power(CTX3, 2), 3)
    for point in fiber_points(3):
        assert phi_image(e, point) == (0, 0, 0)


def test_phi_image_modulus_check():
    with pytest.raises(ModulusMismatch):
        phi_image(tau_power(CTX3, 1), FiberPoint((1, 0, 0, 0, 0), 5))


def test_phi_image_needs_precision_p():
    short = PullbackElement(((0, 0, 1),), 2, 3)
    with pytest.raises(InvalidParameters):
        phi_image(short, FiberPoint((1, 0, 0), 3))


def test_membership_claims_exhaustive():
    """The four membership claims, checked against the monomial criterion
    at every point of the projective plane over F_3."""
    top = tau_power(CTX3, 2)
    for point in fiber_points(3):
        lam = point.lambdas
        # (a) tau^2 itself is never in the induced submodule
        assert not submodule_contains(top, point)
        # (b) tau^2 t is in iff t and t^2 both lie in V
        assert submodule_contains(right_multiply(top, 1), point) == (
            lam[1] == 0 and lam[2] == 0
        )
        # (c) tau^2 t^2 is in iff t^2 lies in V
        assert submodule_contains(right_multiply(top, 2), point) == (
            lam[2] == 0
        )
        # (d) tau^2 t^3 is always in
        assert submodule_contains(right_multiply(top, 3), point)


def test_verify_claims_at_p2():
    """One (claim, passed, total) row per claim; at p = 2 the shifts 1 and
    p - 1 coincide, so claims b and c check the same element."""
    assert verify_claims(2) == tuple((c, 3, 3) for c in "abcd")


def test_verify_claims_is_refused_before_any_point_is_built(monkeypatch):
    built = []
    monkeypatch.setattr(lf, "FiberPoint", lambda *args: built.append(args))
    with pytest.raises(InvalidParameters, match="28531167061 points"):
        verify_claims(11)
    assert built == []


def test_monomial_membership():
    assert submodule_contains_monomial(FiberPoint((1, 1, 1), 3), 3)
    assert submodule_contains_monomial(FiberPoint((1, 0, 0), 3), 1)
    assert not submodule_contains_monomial(FiberPoint((1, 0, 0), 3), 0)
    assert not submodule_contains_monomial(FiberPoint((0, 0, 1), 3), 2)
    with pytest.raises(InvalidParameters):
        submodule_contains_monomial(FiberPoint((1, 0, 0), 3), -1)


def test_colength_level_two_cases():
    assert colength(CTX3, FiberPoint((0, 0, 1), 3), 2) == 3
    assert colength(CTX3, FiberPoint((1, 0, 0), 3), 2) == 1
    assert colength(CTX3, FiberPoint((0, 1, 0), 3), 2) == 2


def test_colength_level_one_frozen_case():
    # images of tau t^j and tau^2 t^j at (1:0:0) span {t, t^2}: rank 2,
    # hence intersection degree 4 - 2 = 2 at level 1.
    assert colength(CTX3, FiberPoint((1, 0, 0), 3), 1) == 2
    assert rowspace_rank(((0, 2, 0), (0, 0, 2), (0, 0, 1)), 3) == 2


def test_colength_level_range():
    with pytest.raises(InvalidLevel):
        colength(CTX3, FiberPoint((1, 0, 0), 3), 0)
    with pytest.raises(InvalidLevel):
        colength(CTX3, FiberPoint((1, 0, 0), 3), 3)


@pytest.mark.parametrize("q", (2, 5))
def test_colength_modulus_check(q):
    with pytest.raises(ModulusMismatch, match=f"context over F_3, point over F_{q}"):
        colength(CTX3, FiberPoint((1,) + (0,) * (q - 1), q), 1)


def test_colength_matches_monomial_dichotomy():
    for point in fiber_points(3):
        has_t = submodule_contains_monomial(point, 1)
        has_t2 = submodule_contains_monomial(point, 2)
        expected = 3 if not has_t2 else (1 if has_t else 2)
        assert colength(CTX3, point, 2) == expected


def test_colength_matches_rowspace_oracle():
    for point in fiber_points(3):
        for level in (1, 2):
            rows = []
            for m in range(level, 3):
                base = tau_power(CTX3, m)
                for j in range(3):
                    rows.append(phi_image(right_multiply(base, j), point))
            assert colength(CTX3, point, level) == rowspace_rank(rows, 3)


def _last_nonzero(point):
    return max(i for i, v in enumerate(point.lambdas) if v)


def _stratified_points(p, per_b, seed):
    """``per_b`` seeded points of P^{p-1}(F_p) for each last nonzero index b."""
    rng = random.Random(seed)
    points = []
    for b in range(p):
        for _ in range(per_b):
            head = [rng.randrange(p) for _ in range(b)]
            points.append(FiberPoint((*head, 1, *[0] * (p - 1 - b)), p))
    return points


@pytest.mark.parametrize(
    "p,points",
    [
        (3, fiber_points(3)),
        (5, fiber_points(5)),
        (7, _stratified_points(7, 6, 7)),
        (11, _stratified_points(11, 3, 11)),
        (13, _stratified_points(13, 3, 13)),
    ],
    ids=["p3-all", "p5-all", "p7-stratified", "p11-stratified", "p13-stratified"],
)
def test_colength_matches_closed_form(p, points):
    ctx = LocalContext.default(p)
    assert {_last_nonzero(pt) for pt in points} == set(range(p))
    for point in points:
        b = _last_nonzero(point)
        for level in range(1, p):
            assert colength(ctx, point, level) == closed_form_colength(p, b, level)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_tau_power_matches_general_normal_form(p):
    """The closed-form tau^m equals the normaliser's result on the monomials
    of (u - v)^m expanded by the oracle, at every m and three precisions."""
    for precision in (2 * p, 3 * p, 10 * p):
        ctx = LocalContext(p, precision)
        for m in range(p):
            got = tau_power(ctx, m)
            want = element_from_monomials(ctx, tau_monomials(m))
            assert got.terms == want.terms
            assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_tau_powers_and_shifts_are_in_normal_form(p):
    """Values built without the normaliser are left unchanged by it: the
    public constructor, which normalises its terms, rebuilds each with
    identical terms."""
    ctx = LocalContext.default(p)
    for m in range(p):
        base = tau_power(ctx, m)
        for j in range(ctx.precision - m):
            e = right_multiply(base, j)
            rebuilt = PullbackElement(e.terms, e.precision, e.modulus)
            assert rebuilt == e and rebuilt.terms == e.terms
            assert type(e.coeffs) is tuple
            assert all(type(row) is tuple for row in e.coeffs)
            assert all(type(c) is int and 0 <= c < p for row in e.coeffs for c in row)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_sparse_elements_match_dense_oracle(p):
    """Every tau power shifted by every j in [0, precision], against grids
    built and shifted independently; images checked at every point for
    p <= 5."""
    ctx = LocalContext.default(p)
    n = ctx.precision
    points = fiber_points(p) if p <= 5 else ()
    for m in range(p):
        base = tau_power(ctx, m)
        dense = normalize_monomials(tau_monomials(m), p, n)
        for j in range(n + 1):
            try:
                want = dense_right_multiply(dense, j)
            except PrecisionExhausted:
                with pytest.raises(PrecisionExhausted):
                    right_multiply(base, j)
                continue
            got = right_multiply(base, j)
            assert got.coeffs == want
            rebuilt = PullbackElement(grid_terms(want, p), n, p)
            assert got == rebuilt and hash(got) == hash(rebuilt)
            assert (not got.terms) == (not rebuilt.terms) == (not any(map(any, want)))
            for point in points:
                assert phi_image(got, point) == dense_phi_image(want, point)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_trusted_constructors_match_the_normalising_ones(p, monkeypatch):
    """Every tau power, every shift of it that does not overflow and every
    colength matrix equals the value ``__init__`` builds from the same
    fields, with equal hash and repr; every image at every point (a
    b-stratified sample from p = 7 on) is a tuple of p ints in [0, p)."""
    ctx = LocalContext.default(p)
    points = fiber_points(p) if p <= 5 else _stratified_points(p, 3, p)

    def same(got, want):
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)

    for m in range(p):
        base = tau_power(ctx, m)
        for j in range(ctx.precision - m):
            e = right_multiply(base, j)
            same(e, PullbackElement(e.terms, e.precision, p))
            for point in points:
                image = phi_image(e, point)
                assert type(image) is tuple and len(image) == p
                assert all(type(c) is int and 0 <= c < p for c in image)
    matrices = []

    def keep(matrix):
        matrices.append(matrix)
        return matrix_rank(matrix)

    monkeypatch.setattr(lf, "matrix_rank", keep)
    for point in points:
        for level in range(1, p):
            colength(ctx, point, level)
    assert len(matrices) == len(points) * (p - 1)
    for matrix in matrices:
        same(matrix, FpMatrix(matrix.rows, p))


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_remembered_powers_and_shifts_match_the_constructor_path(p):
    """On a fresh context, the first and the repeated call of every tau^m
    and of its shifts by j < p equal the normaliser's element and a fresh
    shift of it; the repeated call returns the first call's object."""
    ctx = LocalContext.default(p)
    for _ in range(2):
        for m in range(p):
            want = element_from_monomials(ctx, tau_monomials(m))
            got = tau_power(ctx, m)
            assert got == want and got is tau_power(ctx, m)
            for j in range(1, p):
                fresh = right_multiply(want, j)
                assert fresh == element_from_monomials(ctx, shift_right(tau_monomials(m), j))
                shifted = right_multiply(got, j)
                assert shifted == fresh and shifted is right_multiply(got, j)


def test_a_filled_memo_is_invisible_to_equality_hash_and_repr():
    """A context, and a power and a shift whose memos and images are
    filled, compare, hash and repr as values built fresh from the same
    fields."""
    ctx, point = LocalContext.default(5), FiberPoint((1, 2, 3, 4, 1), 5)
    colength_profile(ctx, point, 2, -1)
    fresh = LocalContext.default(5)
    assert ctx == fresh and hash(ctx) == hash(fresh) and repr(ctx) == repr(fresh)
    power = tau_power(ctx, 3)
    assert all(shift is not None for shift in power._shifts[1:])
    for element in (power, power._shifts[2]):
        assert element._image[0] is point
        rebuilt = PullbackElement(element.terms, element.precision, 5)
        assert element == rebuilt and hash(element) == hash(rebuilt)
        assert repr(element) == repr(rebuilt)


def _remembered_monomials(ctx):
    powers = [power for power in ctx._powers if power is not None]
    shifts = [shift for power in powers for shift in power._shifts if shift is not None]
    return sum(len(element.terms) for element in powers + shifts)


def test_the_memo_is_kept_only_where_its_table_fits_the_work_budget(monkeypatch):
    """The whole table, p^2(p + 1)/2 monomials, is what a full memo holds;
    it is kept up to p = 113, not at p = 127, and never for a shift j >= p."""
    p = 13
    ctx = LocalContext.default(p)
    for m in range(p):
        for j in range(2 * p - m):
            right_multiply(tau_power(ctx, m), j)
    assert _remembered_monomials(ctx) == p * p * (p + 1) // 2

    ctx = LocalContext.default(113)
    top = tau_power(ctx, 112)
    assert top is tau_power(ctx, 112)
    assert right_multiply(top, 112) is right_multiply(top, 112)
    assert right_multiply(top, 113) is not right_multiply(top, 113)
    assert right_multiply(top, 113) == right_multiply(top, 113)

    ctx = LocalContext.default(127)
    assert ctx._powers is None
    assert tau_power(ctx, 126) is not tau_power(ctx, 126)
    assert right_multiply(tau_power(ctx, 126), 1)._shifts is None

    monkeypatch.setattr(algebra, "WORK_BUDGET", p * p * (p + 1) // 2)
    ctx = LocalContext.default(p)
    assert tau_power(ctx, 1) is tau_power(ctx, 1)
    monkeypatch.setattr(algebra, "WORK_BUDGET", p * p * (p + 1) // 2 - 1)
    ctx = LocalContext.default(p)
    assert ctx._powers is None and tau_power(ctx, 1) is not tau_power(ctx, 1)


def test_calls_outside_the_memo_keep_no_memory():
    """Every power at p = 127, and every shift j >= p of a remembered power
    at p = 113, is built and dropped: tracemalloc's current size stays flat
    over a pass whose powers, or whose shifts, would hold about 1-2 MB if
    they were kept."""
    def sweep(big, top):
        for m in range(127):
            right_multiply(tau_power(big, m), 1)
        for j in range(113, top.precision - 112):
            right_multiply(top, j)

    sweep(LocalContext.default(127), tau_power(LocalContext.default(113), 112))
    big, top = LocalContext.default(127), tau_power(LocalContext.default(113), 112)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sweep(big, top)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 16 * 1024


def _interleaved(points):
    """Each point twice, in an order where no point follows itself: every
    remembered element meets a new point at each step and every point
    again after others."""
    return points + points[1:] + points[:1]


@pytest.mark.parametrize(
    "p,points",
    [
        (3, list(fiber_points(3))),
        (5, list(fiber_points(5))),
        (7, _stratified_points(7, 3, 27)),
    ],
    ids=["P2(F3)", "P4(F5)", "P6(F7)-sample"],
)
def test_remembered_images_match_the_constructor_path(p, points):
    """At every point, visited interleaved, the image of each remembered
    tau^m·t^j (m, j < p) equals that of the element rebuilt by the
    normaliser, which keeps no image; a repeat call at the same point
    returns the same tuple, so a stale or misplaced entry would show."""
    ctx = LocalContext.default(p)
    pairs = [
        (right_multiply(tau_power(ctx, m), j),
         element_from_monomials(ctx, shift_right(tau_monomials(m), j)))
        for m in range(p)
        for j in range(p)
    ]
    for point in _interleaved(points):
        for remembered, rebuilt in pairs:
            image = phi_image(remembered, point)
            assert image == phi_image(rebuilt, point)
            assert phi_image(remembered, point) is image
            assert remembered._image[0] is point and rebuilt._image is None


def test_elements_outside_the_memo_keep_no_image():
    """Powers at p = 127 and their shifts, shifts j >= p of a remembered
    power at p = 113, and elements built by the constructor keep no
    image: mapping each of them, all held alive, at two points leaves
    tracemalloc's current size flat, where kept images would hold about
    0.5 MB."""
    big = LocalContext.default(127)
    ctx = LocalContext.default(113)
    top = tau_power(ctx, 112)
    elements = [tau_power(big, m) for m in range(127)]
    elements += [right_multiply(e, 1) for e in elements]
    elements += [right_multiply(top, j) for j in range(113, 2 * 113)]
    elements += [element_from_monomials(ctx, tau_monomials(m)) for m in range(113)]
    points = {q: [FiberPoint(range(1, q + 1), q), FiberPoint([1] * q, q)] for q in (113, 127)}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for point in points[113] + points[127]:
            for element in elements:
                if element.modulus == point.modulus:
                    phi_image(element, point)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after - before < 16 * 1024
    assert all(element._image is None for element in elements)


def test_large_precision_keeps_elements_sparse():
    n = 10**6
    ctx = LocalContext(3, n)
    top = tau_power(ctx, 2)
    e = right_multiply(top, 1)
    assert e.terms == ((1, 2, 1), (2, 1, 1), (3, 0, 1))
    assert e == element_from_monomials(ctx, [(2, 1, 1), (1, 2, -2), (0, 3, 1)])
    assert e != right_multiply(tau_power(LocalContext(3, n + 1), 2), 1)  # same terms
    assert len(repr(e)) < 100
    assert phi_image(e, FiberPoint((0, 1, 0), 3)) == (0, 0, 1)
    assert right_multiply(top, n - 3).terms[-1] == (n - 1, 0, 1)
    with pytest.raises(PrecisionExhausted):
        right_multiply(top, n - 2)


def test_work_budget_gates_fall_where_documented(child_env):
    """tau^m runs up to m = 999,999 and is refused from m = 1,000,000, its
    m + 1 terms counted before any is built; a level-1 colength runs at
    p = 113 and is refused at p = 127; the dense grid runs at p = 577 and
    default precision, 998,787 cells, and not at p = 587.  The largest
    tau^m builds a million terms, so it runs in a child capped at 1 GiB."""
    code = (
        "from frobstrat.local_frobenius import LocalContext, tau_power\n"
        "print(len(tau_power(LocalContext.default(1000003), 999999).terms))\n"
    )
    proc = _run_capped(child_env, "-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1000000\n"
    with pytest.raises(InvalidParameters, match="1000001 terms"):
        tau_power(LocalContext.default(1000003), 1000000)
    assert colength(LocalContext.default(113), FiberPoint([1] * 113, 113), 1) == 113
    with pytest.raises(InvalidParameters, match="1032129 tau monomials"):
        colength(LocalContext.default(127), FiberPoint([1] * 127, 127), 1)
    assert len(tau_power(LocalContext.default(577), 1).coeffs) == 577
    with pytest.raises(InvalidParameters, match="1033707 cells"):
        tau_power(LocalContext.default(587), 1).coeffs


def test_unreduced_constructors_keep_their_checks():
    with pytest.raises(InvalidParameters):
        PullbackElement(((0, 0, 1),), 4, 4)  # prime modulus
    with pytest.raises(InvalidParameters):
        PullbackElement(((0, -1, 1),), 9, 3)  # nonnegative exponents
    with pytest.raises(InvalidParameters):
        FpMatrix((), 3)  # non-empty
    with pytest.raises(InvalidParameters):
        FpMatrix(((1, 2), (1,)), 3)  # equal widths
    with pytest.raises(InvalidParameters):
        FpMatrix(((1,),), 9)  # prime modulus


def test_fiber_polygon_reference_points():
    cases = {
        (0, 0, 1): "P2",
        (0, 1, 0): "P3",
        (1, 0, 0): "P4",
    }
    for lambdas, label in cases.items():
        pg = fiber_polygon(CTX3, FiberPoint(lambdas, 3), 2, -1)
        assert pg == REFERENCE_POLYGONS[label]


def test_fiber_polygon_agrees_with_level_two_classification():
    # independent route: the level-2 intersection degree alone decides the
    # shape (2 -> P4, 1 -> P3, 0 -> P2).
    by_degree = {2: "P4", 1: "P3", 0: "P2"}
    for point in fiber_points(3):
        d2 = 3 - colength(CTX3, point, 2)
        pg = fiber_polygon(CTX3, point, 2, -1)
        assert reference_label(pg) == by_degree[d2]
        assert pg.endpoint == (3, 0)
        assert sum(b - a for (_, a), (_, b) in zip(pg.vertices, pg.vertices[1:])) == 0


def test_colength_profile_reference_values():
    profile = colength_profile(CTX3, FiberPoint((1, 0, 0), 3), 2, -1)
    assert profile.colengths == {1: 2, 2: 1}
    assert profile.intersection_degrees == {1: 2, 2: 2}
    assert not profile.extrapolated


def test_colength_profile_degree_identity():
    # intersection degree = level degree - colength, per level
    for point in fiber_points(3):
        profile = colength_profile(CTX3, point, 2, -1)
        level_degrees = {1: 4, 2: 3}
        for level in (1, 2):
            assert (
                profile.intersection_degrees[level]
                == level_degrees[level] - profile.colengths[level]
            )


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("g", (2, 3, 4))
def test_level_degree_matches_filtration_degrees(p, g):
    for line_degree in range(-3, 4):
        graded = [deg for _, deg in filtration_degrees(p, g, line_degree)]
        for level in range(p):
            assert level_degree(p, g, line_degree, level) == sum(graded[level:])


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_profile_and_polygon_degrees_match_level_degree(p):
    """The level degrees that ``colength_profile`` and ``fiber_polygon``
    write inline are ``level_degree``'s, for g in 2..4 and line degree in
    -3..3, at one point of each stratum b."""
    ctx = LocalContext.default(p)
    points = _stratified_points(p, 1, p)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        for g, line_degree, point in itertools.product(range(2, 5), range(-3, 4), points):
            profile = colength_profile(ctx, point, g, line_degree)
            for level, col in profile.colengths.items():
                want = level_degree(p, g, line_degree, level) - col
                assert profile.intersection_degrees[level] == want
            polygon = fiber_polygon(ctx, point, g, line_degree)
            assert polygon.endpoint == (p, level_degree(p, g, line_degree, 0) - p)


def test_level_degree_refuses_a_level_outside_the_filtration():
    assert level_degree(3, 2, -1, 0) == 3
    for level in (-1, 3, 7):
        with pytest.raises(InvalidLevel, match=r"\[0, 2\]"):
            level_degree(3, 2, -1, level)


def test_fiber_polygon_extrapolation_warns():
    ctx = LocalContext.default(2)
    with pytest.warns(ExtrapolationWarning):
        pg = fiber_polygon(ctx, FiberPoint((1, 0), 2), 2, -1)
    assert pg.vertices == ((0, 0), (1, 0), (2, -2))
    with pytest.warns(ExtrapolationWarning):
        fiber_polygon(CTX3, FiberPoint((1, 0, 0), 3), 3, -1)
