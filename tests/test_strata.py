"""Degree bookkeeping, fiber census and the assembled stratum tables."""

from __future__ import annotations

from fractions import Fraction

import pytest

import frobstrat.strata as strata
from frobstrat.cli import main
from frobstrat.errors import (
    InvalidParameters,
    InvariantViolation,
    UnsupportedCharacteristic,
)
from frobstrat.polygons import (
    REFERENCE_POLYGONS,
    canonical_polygon,
    make_polygon,
    satisfies_gap_bound,
    satisfies_spread_bound,
)
from frobstrat.strata import (
    CurveContext,
    FiberCensus,
    b1_splits,
    canonical_stratum_dim,
    fiber_census,
    filtration_degrees,
    pushforward_type,
    stratum_table,
    sun_slope_bound,
)


def test_pushforward_type_examples():
    assert pushforward_type(1, -1, 3, 2) == (3, 1)
    assert pushforward_type(1, -2, 3, 2) == (3, 0)
    assert pushforward_type(1, 0, 2, 2) == (2, 1)


def test_pushforward_type_validation():
    with pytest.raises(InvalidParameters):
        pushforward_type(0, 0, 3, 2)
    with pytest.raises(InvalidParameters):
        pushforward_type(1, 0, 4, 2)


def test_filtration_degrees_reference():
    assert filtration_degrees(3, 2, -1) == ((1, -1), (1, 1), (1, 3))


def test_filtration_degrees_sum_matches_pullback_degree():
    pieces = filtration_degrees(3, 2, -1)
    assert sum(d for _, d in pieces) == 3  # p times deg of the direct image


def test_filtration_degrees_char_two():
    assert filtration_degrees(2, 2, 0) == ((1, 0), (1, 2))


def test_sun_slope_bound_values():
    assert sun_slope_bound(3, 2, -1, 1) == Fraction(-1, 3)
    assert sun_slope_bound(3, 2, -1, 2) == Fraction(0)
    # full rank: the offset vanishes and the bound is the slope itself
    assert sun_slope_bound(3, 2, -1, 3) == Fraction(1, 3)


def test_sun_slope_bound_certifies_semistability():
    assert all(sun_slope_bound(3, 2, -1, rk) <= 0 for rk in (1, 2))


def test_sun_slope_bound_validation():
    with pytest.raises(InvalidParameters):
        sun_slope_bound(3, 2, -1, 0)
    with pytest.raises(InvalidParameters):
        sun_slope_bound(3, 2, -1, 4)


def test_fiber_census_counts():
    census = fiber_census(3, 2, -1)
    assert census.total == 13
    assert census.strict_counts == {"P2": 9, "P3": 3, "P4": 1}
    assert census.closed_counts == {"P2+": 13, "P3+": 4, "P4+": 1}
    assert census.strict_forms == {"P2": "q^2", "P3": "q", "P4": "1"}
    assert census.closed_forms == {
        "P2+": "q^2+q+1",
        "P3+": "q+1",
        "P4+": "1",
    }


def test_fiber_census_counts_match_forms_at_q():
    census = fiber_census(3, 2, -1)
    q = census.field_size
    assert census.strict_counts["P2"] == q**2
    assert census.strict_counts["P3"] == q
    assert census.strict_counts["P4"] == 1
    assert census.closed_counts["P2+"] == q**2 + q + 1
    assert census.closed_counts["P3+"] == q + 1
    assert census.closed_counts["P4+"] == 1
    assert sum(census.strict_counts.values()) == census.total


def test_fiber_census_rejects_other_parameters():
    with pytest.raises(InvalidParameters):
        fiber_census(5, 2, -1)
    with pytest.raises(InvalidParameters):
        fiber_census(3, 3, -1)
    with pytest.raises(InvalidParameters):
        fiber_census(3, 2, 0)


def test_fiber_census_refuses_an_unclassified_polygon(monkeypatch, capsys):
    stray = make_polygon([(0, 0), (3, 0)])
    monkeypatch.setattr(strata, "fiber_polygon", lambda *args: stray)
    with pytest.raises(InvariantViolation) as info:
        fiber_census(3, 2, -1)
    assert str(info.value) == f"unclassified fiber polygon {stray}"
    assert main(["fiber-census"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"frobstrat: internal invariant violated: {info.value}\n"


def test_stratum_table_reference_values():
    rows = {r.polygon_id: r for r in stratum_table(CurveContext())}
    assert list(rows) == ["P1", "P2", "P3", "P4"]
    assert [rows[k].moduli_dim for k in ("P1", "P2", "P3", "P4")] == [5, 5, 4, 2]
    assert [rows[k].quot_dim for k in ("P2", "P3", "P4")] == [5, 4, 3]
    assert [rows[k].fiber_dim for k in ("P2", "P3", "P4")] == [2, 1, 0]
    assert rows["P1"].quot_dim is None
    assert rows["P1"].fiber_dim is None
    assert rows["P1"].counts is None
    assert rows["P2"].counts == {"q=3": 9, "closed_form": "q^2"}
    for key, row in rows.items():
        assert row.polygon == REFERENCE_POLYGONS[key]
        assert row.closure  # every row carries a closure note


def test_stratum_table_internal_consistency():
    rows = {r.polygon_id: r for r in stratum_table(CurveContext())}
    for key in ("P2", "P3", "P4"):
        assert rows[key].quot_dim == rows[key].fiber_dim + 2 + 1
    assert rows["P1"].moduli_dim == rows["P2"].moduli_dim
    assert rows["P4"].moduli_dim == canonical_stratum_dim(1, 2)
    for row in rows.values():
        assert satisfies_gap_bound(row.polygon, 2)
        assert satisfies_spread_bound(row.polygon, 3, 2)


def _census_one_more(*changes):
    """A corruption: the census reports one more in each (field, key) of
    ``changes`` (key None for the total); it wraps whatever census is in
    place, so corruptions compose."""

    def corrupt(mp):
        inner = strata.fiber_census

        def census(*args):
            got = inner(*args)
            fields = {f: getattr(got, f) for f in FiberCensus._fields}
            for field, key in changes:
                if key is None:
                    fields[field] += 1
                else:
                    fields[field] = {**fields[field], key: fields[field][key] + 1}
            return FiberCensus(**fields)

        mp.setattr(strata, "fiber_census", census)

    return corrupt


#: Each named table check, with corruptions of the data it checks alone.
CORRUPTIONS = [
    ("quot=fiber+g+1", lambda mp: mp.setitem(strata._QUOT_STRATUM_DIM, "P3", 5)),
    ("P1~dual", lambda mp: mp.setitem(strata._MODULI_STRATUM_DIM, "P1", 4)),
    ("P4 dim", lambda mp: mp.setitem(strata._MODULI_STRATUM_DIM, "P4", 3)),
    (
        "P4=extremal",
        lambda mp: mp.setattr(
            strata, "canonical_polygon", lambda p, g, r, d: canonical_polygon(p, g + 1, r, d)
        ),
    ),
    ("counts=forms", _census_one_more(("closed_counts", "P2+"))),
    # The total grows with the strict count, so the partition still holds.
    ("counts=forms", _census_one_more(("strict_counts", "P4"), ("total", None))),
    ("partition", _census_one_more(("total", None))),
    # Shapes outside the fiber strata, so the census never meets them: a
    # slope drop of 7/2 within the spread bound, then drops of 2 that
    # spread over 6.
    (
        "gap/spread bounds",
        lambda mp: mp.setitem(
            REFERENCE_POLYGONS, "P5", make_polygon([(0, 0), (1, 2), (3, -1)])
        ),
    ),
    (
        "gap/spread bounds",
        lambda mp: mp.setitem(
            REFERENCE_POLYGONS, "P6", make_polygon([(0, 0), (1, 3), (2, 4), (3, 3), (4, 0)])
        ),
    ),
]


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS, ids=[name for name, _ in CORRUPTIONS])
def test_each_table_check_fails_by_name(monkeypatch, capsys, name, corrupt):
    corrupt(monkeypatch)
    with pytest.raises(InvariantViolation) as info:
        stratum_table(CurveContext())
    assert str(info.value) == f"failed table checks: {name}"
    assert main(["strata-table"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"frobstrat: internal invariant violated: failed table checks: {name}\n"


def test_one_violation_names_every_failed_check(monkeypatch):
    for _, corrupt in CORRUPTIONS:
        corrupt(monkeypatch)
    names = ", ".join(dict.fromkeys(name for name, _ in CORRUPTIONS))
    with pytest.raises(InvariantViolation) as info:
        stratum_table(CurveContext())
    assert str(info.value) == f"failed table checks: {names}"


def test_stratum_table_rejects_other_parameters():
    with pytest.raises(InvalidParameters):
        stratum_table(CurveContext(p=5, g=2, r=3, d=0, line_degree=-1))
    with pytest.raises(InvalidParameters):
        stratum_table(CurveContext(d=3))


def test_curve_context_validation():
    with pytest.raises(InvalidParameters):
        CurveContext(p=6)
    with pytest.raises(InvalidParameters):
        CurveContext(g=1)
    with pytest.raises(InvalidParameters):
        CurveContext(r=0)


def test_canonical_stratum_dim_examples():
    assert canonical_stratum_dim(1, 2) == 2
    assert canonical_stratum_dim(2, 2) == 5
    assert canonical_stratum_dim(1, 3) == 3
    with pytest.raises(InvalidParameters):
        canonical_stratum_dim(0, 2)


def test_b1_splits_examples():
    assert b1_splits(3, 2) is False
    assert b1_splits(3, 4) is True
    with pytest.raises(UnsupportedCharacteristic):
        b1_splits(2, 3)
    with pytest.raises(InvalidParameters):
        b1_splits(9, 2)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("g", (2, 3, 4))
@pytest.mark.parametrize("line_degree", range(-3, 4))
def test_pushforward_polygon_is_extremal(p, g, line_degree):
    """Accumulating the graded filtration degrees (top level first) must
    reproduce the extremal polygon of the direct image's pullback."""
    rank, degree = pushforward_type(1, line_degree, p, g)
    assert rank == p
    pieces = filtration_degrees(p, g, line_degree)
    verts = [(0, 0)]
    y = 0
    for idx, (_, piece_degree) in enumerate(reversed(pieces), start=1):
        y += piece_degree
        verts.append((idx, y))
    assert make_polygon(verts) == canonical_polygon(p, g, 1, degree)
