"""Package-level names resolve lazily to the objects of their modules."""

from __future__ import annotations

import importlib

import pytest

import frobstrat


def test_every_exported_name_is_its_module_attribute():
    names = dir(frobstrat)
    for name in frobstrat.__all__:
        module = importlib.import_module(f"frobstrat.{frobstrat._MODULE_OF[name]}")
        assert getattr(frobstrat, name) is getattr(module, name), name
        assert name in names


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        frobstrat.FieldElem
    with pytest.raises(ImportError):
        from frobstrat import series_mul  # noqa: F401
