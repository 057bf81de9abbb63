"""Primality, the prime memo, the work budget and matrix rank over F_p,
with its memo of the last echelon."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import frobstrat.algebra as algebra
from conftest import _run_capped
from frobstrat.algebra import (
    PRIME_BOUND,
    WORK_BUDGET,
    FpMatrix,
    is_prime,
    matrix_rank,
    require_prime,
)
from frobstrat.errors import InvalidParameters
from oracles import rowspace_rank


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
    monkeypatch.setattr(algebra, "_last_prime", None)
    if warm:
        for q in (2, 3, 5, 7):
            require_prime(q)
        assert algebra._last_prime == 7
    for n in MEMO_INPUTS:
        for _ in range(2):
            if _refused(n):
                with pytest.raises(InvalidParameters):
                    require_prime(n)
            else:
                require_prime(n)
    assert algebra._last_prime == 499  # the sweep's last exact-int prime, not _Int(3)


def test_require_prime_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(algebra, "_last_prime", None)
    primes = [n for n in range(2, 1300) if is_prime(n)][:200]
    assert len(primes) == 200
    for q in primes:
        require_prime(q)
        assert algebra._last_prime == q
    for q in primes:
        require_prime(q)
    with pytest.raises(InvalidParameters):
        require_prime(4)


@pytest.mark.parametrize(
    "call,count",
    [
        ("fiber_points(11)", "28531167061 points"),
        ("fiber_points(101)", "(101^101 - 1)/100 points"),
        (
            "colength_profile(LocalContext.default(43), FiberPoint([1] * 43, 43), 2, -1)",
            "1138984 tau monomials",
        ),
        ("canonical_polygon(1000000007, 2, 1, 0)", "1000000008 vertices"),
        ("tau_power(LocalContext.default(1000003), 1000002)", "1000003 terms"),
        (
            "colength(LocalContext.default(1009), FiberPoint([1] * 1009, 1009), 1)",
            "514129896 tau monomials",
        ),
        ("filtration_degrees(999999999989, 2, -1)", "999999999989 graded pieces"),
        ("tau_power(LocalContext(3, 10**9), 2).coeffs", "3000000000 cells"),
        (
            "integer_heights(make_polygon([(0, 0), (1, 1), (10**12, 0)]))",
            "1000000000001 integer abscissae",
        ),
    ],
    ids=[
        "fiber_points-p11",
        "fiber_points-p101",
        "colength_profile-p43",
        "canonical-p1e9",
        "tau_power-m1000002",
        "colength-p1009",
        "filtration_degrees-p1e12",
        "coeffs-precision1e9",
        "integer_heights-rank1e12",
    ],
)
def test_calls_over_the_work_budget_are_refused(child_env, call, count):
    """Each call is refused before it builds anything large.  It runs in a
    child capped at 1 GiB: without its gate it would fail there, run out
    the timeout or print nothing, instead of taking the machine's memory."""
    code = (
        "from frobstrat import *\n"
        "try:\n"
        f"    {call}\n"
        "except InvalidParameters as exc:\n"
        "    print(exc)\n"
    )
    proc = _run_capped(child_env, "-c", code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert count in proc.stdout
    assert str(WORK_BUDGET) in proc.stdout


@pytest.mark.parametrize(
    "call",
    [
        "fiber_points(3)",
        "colength_profile(LocalContext.default(3), FiberPoint((1, 0, 0), 3), 2, -1)",
        "colength(LocalContext.default(3), FiberPoint((1, 0, 0), 3), 1)",
        "tau_power(LocalContext.default(11), 10)",
        "tau_power(LocalContext.default(3), 0).coeffs",
        "canonical_polygon(11, 2, 1, 0)",
        "integer_heights(make_polygon([(0, 0), (1, 1), (10, 0)]))",
        "enumerate_frobenius_polygons(3, 2, 3, 0)",
        "filtration_degrees(11, 2, -1)",
    ],
)
def test_every_gate_reads_the_one_work_budget(monkeypatch, call):
    """Lowering ``algebra.WORK_BUDGET`` lowers every gate, and the message
    names the lowered budget: no module keeps a copy of its own.  Every
    module is loaded before the patch, so none can copy the patched value."""
    import frobstrat

    api = {name: getattr(frobstrat, name) for name in frobstrat.__all__}
    monkeypatch.setattr(algebra, "WORK_BUDGET", 10)
    with pytest.raises(InvalidParameters, match="over the work budget of 10 "):
        eval(call, api)


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


def test_rowspace_oracle_refuses_before_enumerating_too_much():
    """7^17 combinations would take hours; the oracle refuses them at once."""
    rows = ((1,) * 7,) * 17
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"7\^17 = 232630513987207 combinations"):
        rowspace_rank(rows, 7)
    assert time.perf_counter() - start < 0.1


#: Most rows a memo test hands the exponential oracle at p: p^rows vectors.
ORACLE_ROWS = {2: 8, 3: 6, 5: 4, 7: 4}


def _rank_checked(rows, p):
    """Rank ``rows`` over F_p and compare with the oracle."""
    assert matrix_rank(FpMatrix(rows, p)) == rowspace_rank(rows, p), (rows, p)


def _random_rows(rng, p, count, width):
    return tuple(tuple(rng.randrange(p) for _ in range(width)) for _ in range(count))


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_matrix_rank_memo_matches_rowspace_oracle(p):
    """Seeded (prefix, suffix) row sets: ranking prefix + suffix right after
    the suffix starts from the suffix's remembered echelon.  Around that
    order: the same matrix twice, a full-rank suffix, an unrelated matrix
    ranked in between, and the suffix again after prefix + suffix."""
    rng, most = random.Random(2800 + p), ORACLE_ROWS[p]
    for _ in range(80):
        width = rng.randint(1, 4)
        suffix = _random_rows(rng, p, rng.randint(1, most - 1), width)
        prefix = _random_rows(rng, p, rng.randint(0, most - len(suffix)), width)
        unrelated = _random_rows(rng, p, rng.randint(1, most), width)
        full = tuple(tuple(int(i == k) for i in range(width)) for k in range(width))
        orders = (
            (suffix, prefix + suffix),
            (suffix, suffix),
            (full, prefix[: most - width] + full),
            (suffix, unrelated, prefix + suffix),
            (suffix, prefix + suffix, suffix),
        )
        for order in orders:
            for rows in order:
                _rank_checked(rows, p)


def test_matrix_rank_memo_leaves_the_stored_echelon_as_it_was():
    """Ranking P + A after A copies A's remembered echelon: the entry held
    for A is unchanged afterwards, and A ranks correctly again."""
    a, prefix = ((1, 0, 0), (0, 0, 0)), ((0, 1, 0), (0, 0, 1))
    _rank_checked(a, 5)
    rows, p, echelon = algebra._last_rank
    snapshot = (rows, p, [tuple(entry) for entry in echelon])
    _rank_checked(prefix + a, 5)
    assert (rows, p, [tuple(entry) for entry in echelon]) == snapshot
    _rank_checked(a, 5)


@pytest.mark.parametrize("first,second", [(5, 3), (3, 5), (2, 7), (7, 2)])
def test_matrix_rank_memo_reads_the_modulus(first, second):
    """Equal rows under another modulus never reuse the echelon: (1, 2),
    (2, 1) has determinant -3, rank 1 over F_3 and 2 over F_5 and F_7; the
    cyclic 0/1 rows below have determinant 2, rank 2 over F_2 and 3
    elsewhere.  Rows with entries below both moduli, equal under each, are
    then checked with a prefix."""
    cyclic = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    for rows in (((1, 2), (2, 1)), cyclic, ((1, 1), (0, 1))):
        _rank_checked(rows, first)
        _rank_checked(rows, second)
    rng, low = random.Random(first * second), min(first, second)
    for _ in range(80):
        width = rng.randint(1, 4)
        suffix = _random_rows(rng, low, rng.randint(1, 2), width)
        prefix = _random_rows(rng, low, rng.randint(0, 2), width)
        _rank_checked(suffix, first)
        _rank_checked(prefix + suffix, second)


def test_matrix_rank_memo_holds_one_rows_tuple_and_at_most_width_echelon_rows():
    for p, width in ((3, 2), (5, 5), (7, 7)):
        rows = _random_rows(random.Random(p), p, 3 * width, width)
        matrix_rank(FpMatrix(rows, p))
        kept_rows, kept_p, echelon = algebra._last_rank
        assert kept_rows == rows and kept_p == p
        assert type(echelon) is tuple and len(echelon) <= width
