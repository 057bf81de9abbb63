"""Prime-field scalars, truncated series and matrix rank."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import frobstrat.algebra as algebra
from frobstrat.algebra import (
    PRIME_BOUND,
    PRIME_MEMO_SIZE,
    FpMatrix,
    TruncSeries,
    is_prime,
    matrix_rank,
    require_prime,
)
from frobstrat.errors import InvalidParameters, ModulusMismatch
from oracles import (
    DivisionByZero,
    FieldElem,
    PrecisionMismatch,
    convolve_mod,
    rowspace_rank,
    series_mul,
)

SMALL_PRIMES = (2, 3, 5, 7)


def test_is_prime_small_window():
    expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(31) if is_prime(n)} == expected


def test_is_prime_refuses_above_its_bound():
    assert not is_prime(PRIME_BOUND)
    with pytest.raises(InvalidParameters, match=str(PRIME_BOUND)):
        is_prime(PRIME_BOUND + 1)  # 73 · 137 · 99990001: quick without the bound


class _Int(int):
    """An int subclass: never remembered, always tested in full."""


#: Inputs whose refusal by require_prime is checked cold and warm.
MEMO_INPUTS = [*range(-3, 500), True, False, 3.0, Fraction(3), _Int(3), PRIME_BOUND + 1]


def _refused(n) -> bool:
    if not isinstance(n, int) or isinstance(n, bool):
        return True
    try:
        return not is_prime(n)
    except InvalidParameters:  # above PRIME_BOUND
        return True


@pytest.mark.parametrize("warm", (False, True), ids=("cold", "warm"))
def test_require_prime_memo_refuses_what_is_prime_refuses(monkeypatch, warm):
    """Each input twice, so the second call meets whatever the first one
    remembered; only exact ints enter the memo."""
    monkeypatch.setattr(algebra, "_verified_primes", set())
    if warm:
        for q in (2, 3, 5, 7):
            require_prime(q)
        assert algebra._verified_primes == {2, 3, 5, 7}
    for n in MEMO_INPUTS:
        for _ in range(2):
            if _refused(n):
                with pytest.raises(InvalidParameters):
                    require_prime(n)
            else:
                require_prime(n)
    assert all(type(q) is int and is_prime(q) for q in algebra._verified_primes)


def test_require_prime_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(algebra, "_verified_primes", set())
    primes = [n for n in range(2, 1300) if is_prime(n)][:200]
    assert len(primes) == 200
    for q in primes:
        require_prime(q)
        assert len(algebra._verified_primes) <= PRIME_MEMO_SIZE == 64
    for q in primes:
        require_prime(q)
    with pytest.raises(InvalidParameters):
        require_prime(4)


def test_nonprime_modulus_rejected():
    with pytest.raises(InvalidParameters):
        FieldElem(1, 4)
    with pytest.raises(InvalidParameters):
        FieldElem(1, 1)


def test_inverse_of_two_mod_three():
    assert FieldElem(2, 3).inverse() == FieldElem(2, 3)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_inverse_of_one_is_one(p):
    assert FieldElem(1, p).inverse() == FieldElem(1, p)


def test_add_wraps_mod_three():
    assert FieldElem(2, 3) + FieldElem(2, 3) == FieldElem(1, 3)


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        FieldElem(0, 5).inverse()


def test_modulus_mixing_raises():
    with pytest.raises(ModulusMismatch):
        FieldElem(1, 3) + FieldElem(1, 5)
    with pytest.raises(ModulusMismatch):
        FieldElem(1, 3) * FieldElem(1, 7)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_field_axioms_exhaustive(p):
    elems = [FieldElem(v, p) for v in range(p)]
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
    for a in elems:
        assert a + (-a) == FieldElem(0, p)
        if a:
            assert a * a.inverse() == FieldElem(1, p)


def test_series_identity():
    one = TruncSeries((1, 0, 0), 3)
    s = TruncSeries((1, 1, 0), 3)
    assert series_mul(s, one) == s


def test_series_product_frozen_example():
    # (1 + t)(1 + 2t) over F_3 at precision 3; the cross terms cancel.
    a = TruncSeries((1, 1, 0), 3)
    b = TruncSeries((1, 2, 0), 3)
    expected = TruncSeries((1, 0, 2), 3)
    assert series_mul(a, b) == expected
    assert convolve_mod((1, 1, 0), (1, 2, 0), 3, 3) == expected.coeffs


def test_series_truncation():
    t2 = TruncSeries((0, 0, 1), 3)
    assert series_mul(t2, t2).is_zero()


def test_series_mismatches():
    with pytest.raises(ModulusMismatch):
        series_mul(TruncSeries((1,), 3), TruncSeries((1,), 5))
    with pytest.raises(PrecisionMismatch):
        series_mul(TruncSeries((1,), 3), TruncSeries((1, 0), 3))


def test_series_mul_matches_convolution_exhaustive():
    p = 3
    for n in (1, 2, 3):
        coeffs = list(itertools.product(range(p), repeat=n))
        for ca, cb in itertools.product(coeffs, repeat=2):
            got = series_mul(TruncSeries(ca, p), TruncSeries(cb, p))
            assert got.coeffs == convolve_mod(ca, cb, p, n)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_series_mul_associative_commutative_exhaustive(n):
    p = 3
    all_series = [
        TruncSeries(c, p) for c in itertools.product(range(p), repeat=n)
    ]
    for a, b in itertools.product(all_series, repeat=2):
        assert series_mul(a, b) == series_mul(b, a)
    for a, b, c in itertools.product(all_series, repeat=3):
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


@given(
    p=st.sampled_from(SMALL_PRIMES),
    data=st.data(),
)
def test_series_mul_matches_convolution_random(p, data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    coeff = st.integers(min_value=0, max_value=p - 1)
    ca = tuple(data.draw(coeff) for _ in range(n))
    cb = tuple(data.draw(coeff) for _ in range(n))
    got = series_mul(TruncSeries(ca, p), TruncSeries(cb, p))
    assert got.coeffs == convolve_mod(ca, cb, p, n)


def test_matrix_rank_identity():
    eye = FpMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    assert matrix_rank(eye) == 3


def test_matrix_rank_zero():
    assert matrix_rank(FpMatrix(((0, 0), (0, 0)), 3)) == 0


def test_matrix_rank_dependent_rows():
    # det = 1 - 4 = -3 vanishes mod 3, so the rows are dependent.
    m = FpMatrix(((1, 2), (2, 1)), 3)
    assert matrix_rank(m) == 1
    assert rowspace_rank(((1, 2), (2, 1)), 3) == 1


def test_matrix_shape_validation():
    with pytest.raises(InvalidParameters):
        FpMatrix(((1, 2), (1,)), 3)
    with pytest.raises(InvalidParameters):
        FpMatrix((), 3)


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_matrix_rank_matches_rowspace_oracle_exhaustive(shape):
    p = 3
    nrows, ncols = shape
    for flat in itertools.product(range(p), repeat=nrows * ncols):
        rows = tuple(
            flat[i * ncols : (i + 1) * ncols] for i in range(nrows)
        )
        assert matrix_rank(FpMatrix(rows, p)) == rowspace_rank(rows, p)


@given(
    data=st.data(),
    p=st.sampled_from((2, 3, 5)),
)
def test_matrix_rank_matches_rowspace_oracle_random(data, p):
    nrows = data.draw(st.integers(min_value=1, max_value=4))
    ncols = data.draw(st.integers(min_value=1, max_value=4))
    rows = tuple(
        tuple(
            data.draw(st.integers(min_value=0, max_value=p - 1))
            for _ in range(ncols)
        )
        for _ in range(nrows)
    )
    assert matrix_rank(FpMatrix(rows, p)) == rowspace_rank(rows, p)
