"""Span tracer for the benchmark's traced runs.

Wraps public functions of ``frobstrat`` from outside the package: each
wrapper replaces the function in every module namespace that holds it
(``matrix_rank`` is called through ``local_frobenius``, ``fiber_polygon``
through ``strata`` and ``cli``), so every call records a span whatever
module it comes from.  A span is (name, start, end, parent span, op id);
spans stay in flat arrays in memory until the unit ends.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

#: Wrapped functions, as (module, name) under ``frobstrat``.
TARGETS = (
    ("algebra", "matrix_rank"),
    ("algebra", "require_prime"),
    ("local_frobenius", "fiber_points"),
    ("local_frobenius", "fiber_polygon"),
    ("local_frobenius", "colength_profile"),
    ("local_frobenius", "colength"),
    ("local_frobenius", "tau_power"),
    ("local_frobenius", "right_multiply"),
    ("local_frobenius", "phi_image"),
    ("local_frobenius", "submodule_contains"),
    ("polygons", "enumerate_frobenius_polygons"),
    ("polygons", "make_polygon"),
    ("polygons", "integer_heights"),
    ("polygons", "dominates"),
    ("polygons", "reference_label"),
    ("strata", "fiber_census"),
    ("strata", "stratum_table"),
    ("cli", "main"),
)
MODULES = ("", ".algebra", ".local_frobenius", ".polygons", ".strata", ".cli")


class Tracer:
    """Installs the wrappers, records spans and derives per-function totals."""

    def __init__(self) -> None:
        self.names = [f"{mod}.{fn}" for mod, fn in TARGETS]
        self._hooks = {
            "algebra.matrix_rank": self._on_rank,
            "local_frobenius.tau_power": self._on_tau,
            "local_frobenius.fiber_points": self._on_points,
            "polygons.enumerate_frobenius_polygons": self._on_enumerate,
        }
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop every span and tally: the start of a new unit."""
        self.kind, self.parent, self.op = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.stack: list[int] = []
        self.op_id = 0
        self.rows = self.rank = self.points = self.emitted = 0
        self.tau_keys: set = set()

    # Tallies that need a call's arguments or result.
    def _on_rank(self, args, result) -> None:
        self.rows += args[0].nrows
        self.rank += result

    def _on_tau(self, args, result) -> None:
        ctx, m = args
        self.tau_keys.add((ctx.p, ctx.precision, m))

    def _on_points(self, args, result) -> None:
        self.points += len(result)

    def _on_enumerate(self, args, result) -> None:
        self.emitted += len(result)

    def _wrap(self, kind: int, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.kind)
            self.kind.append(kind)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[span], self.end[span] = t0, t1
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module("frobstrat" + m) for m in MODULES]
        for kind, (mod, name) in enumerate(TARGETS):
            fn = getattr(importlib.import_module(f"frobstrat.{mod}"), name)
            wrapper = self._wrap(kind, fn, self._hooks.get(self.names[kind]))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._installed.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def totals(self) -> tuple[Counter, dict[str, float], int]:
        """Calls and self seconds per function, and ``make_polygon`` calls made
        directly by ``enumerate_frobenius_polygons``."""
        n = len(self.kind)
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s = dict.fromkeys(self.names, 0.0)
        make, enum = self.names.index("polygons.make_polygon"), self.names.index(
            "polygons.enumerate_frobenius_polygons"
        )
        built_in_enum = 0
        for i in range(n):
            name = self.names[self.kind[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
            if self.kind[i] == make and self.parent[i] >= 0:
                built_in_enum += self.kind[self.parent[i]] == enum
        return calls, self_s, built_in_enum

    def write(self, path) -> None:
        """Write the spans as TSV, times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.kind)):
                out.write(
                    f"{i}\t{self.names[self.kind[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\n"
                )
