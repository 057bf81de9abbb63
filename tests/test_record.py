"""The frozen-record base shared by every value type."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import frobstrat
from frobstrat.algebra import FpMatrix
from frobstrat.local_frobenius import (
    ColengthProfile,
    FiberPoint,
    LocalContext,
    PullbackElement,
)
from frobstrat.polygons import REFERENCE_POLYGONS, LatticePolygon, make_polygon
from frobstrat.strata import CurveContext, FiberCensus, StratumReport

P4 = REFERENCE_POLYGONS["P4"]

#: One valid value of every record type, as its field values in order.
VALUES = [
    (FpMatrix, (((1, 2), (0, 1)), 3)),
    (LocalContext, (3, 9)),
    (PullbackElement, (((0, 1, 2), (1, 0, 1)), 3, 3)),
    (FiberPoint, ((0, 1, 2), 3)),
    (ColengthProfile, ({1: 2, 2: 1}, {1: 1, 2: 0}, False)),
    (LatticePolygon, (((0, 0), (1, 2), (2, 2), (3, 0)),)),
    (CurveContext, (3, 2, 3, 0, -1)),
    (StratumReport, ("P4", P4, 0, 3, 2, "already closed", None)),
    (FiberCensus, (3, 1, {"P4": 1}, {"P4+": 1}, {"P4": "1"}, {"P4+": "1"})),
]
IDS = [cls.__name__ for cls, _ in VALUES]


@pytest.mark.parametrize("cls,args", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(cls, args):
    a, b = cls(*args), cls(**dict(zip(cls._fields, args)))
    assert a == b and a is not b
    assert repr(a) == repr(b)
    assert a != args
    try:
        hash(args)
    except TypeError:  # a dict-valued field makes the record unhashable too
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls,args", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(cls, args):
    value = cls(*args)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*args)


@pytest.mark.parametrize("cls,args", VALUES, ids=IDS)
def test_missing_or_unknown_field_raises_type_error(cls, args):
    kwargs = dict(zip(cls._fields, args))
    required = [f for f in cls._fields if f not in cls._defaults]
    if required:
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kwargs.items() if k != required[0]})
    with pytest.raises(TypeError):
        cls(**kwargs, unknown=0)
    with pytest.raises(TypeError):
        cls(*args, **{cls._fields[0]: args[0]})
    with pytest.raises(TypeError):
        cls(*args, None)


def test_defaults_fill_missing_fields():
    assert CurveContext() == CurveContext(3, 2, 3, 0, -1)


def test_repr_names_every_field():
    assert repr(FiberPoint((2, 0, 0), 3)) == "FiberPoint(lambdas=(1, 0, 0), modulus=3)"


def test_fiber_point_equality_is_projective():
    assert FiberPoint((0, 2, 1), 3) == FiberPoint((0, 1, 2), 3)
    assert hash(FiberPoint((2, 0, 0), 3)) == hash(FiberPoint((1, 0, 0), 3))
    assert len({FiberPoint((k, 2 * k, 0), 3) for k in (1, 2)}) == 1
    assert FiberPoint((1, 0, 0), 3) != FiberPoint((0, 1, 0), 3)


def test_a_polygon_from_the_trusted_path_is_a_full_record():
    """:func:`make_polygon` builds its polygon in place, skipping
    ``__init__``; the polygon still equals, hashes and prints like
    the constructor's, and stays frozen."""
    verts = ((0, 0), (1, 2), (2, 2), (3, 0))
    made, built = make_polygon([(0, 0), (1, 2), (2, 2), (3, 0)]), LatticePolygon(verts)
    assert type(made) is LatticePolygon
    assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
    assert made.vertices == verts
    with pytest.raises(AttributeError):
        made.vertices = verts
    with pytest.raises(AttributeError):
        del made.vertices
    with pytest.raises(AttributeError):
        made.extra = 1
    assert made == built


def _instance_dict_sites(tree):
    """Lines that reach an instance's ``__dict__``: every ``x.__dict__``
    but ``cls.__dict__``, the class dict that ``Record`` reads its field
    defaults from.  Writing through an alias (``d = x.__dict__; d[k] = v``)
    starts with such a read, so it is caught too."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "__dict__"
        and not (isinstance(node.value, ast.Name) and node.value.id == "cls")
    )


def test_the_dict_check_sees_every_form():
    source = (
        "a.__dict__['x'] = 1\n"
        "a.__dict__.update(x=1)\n"
        "a.__dict__ = {}\n"
        "attrs = a.b.__dict__\n"
        "del a.__dict__['x']\n"
        "names = cls.__dict__\n"
        "object.__setattr__(a, 'x', 1)\n"
        "d.update(x=1)\n"
    )
    assert _instance_dict_sites(ast.parse(source)) == [1, 2, 3, 4, 5]


def test_no_source_file_touches_an_instance_dict():
    """Fields of a trusted build and memo attributes are set with
    ``object.__setattr__``: reaching into an instance's ``__dict__`` gives
    it a dict of its own and slows every later attribute read on it."""
    src = Path(frobstrat.__file__).resolve().parent
    sites = {
        path.name: lines
        for path in sorted(src.glob("*.py"))
        if (lines := _instance_dict_sites(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert sites == {}
