"""The colength path, the polygon enumeration and every CLI command
keep the call structure the benchmark's traced runs pin.

``perfbench`` counts the calls one ``fiber_polygon``, one enumeration or
one ``cli.main`` makes to each traced function and refuses a traced run
whose counts differ from the closed forms in ``perfbench/workloads.py``.
These tests apply the same check with the same tracer, so a change that
alters the call structure (say, a cache on ``tau_power``, or a second
``make_polygon`` per emitted polygon) fails here and not only in a traced
benchmark run.
"""

from __future__ import annotations

import importlib.util
import random
import warnings
from pathlib import Path

import pytest

import frobstrat.cli as cli
import frobstrat.local_frobenius as lf
import frobstrat.polygons as pl
from frobstrat.errors import ExtrapolationWarning

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, workloads = _load("tracing"), _load("workloads")
EXPECTED = workloads.load_expected()


@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_fiber_polygon_call_counts_match_the_benchmark_guard(p):
    ctx, point = lf.LocalContext.default(p), lf.FiberPoint((1,) * p, p)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ExtrapolationWarning)
            lf.fiber_polygon(ctx, point, 2, -1)  # the wrapper: looked up after install
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.totals()
    assert calls == workloads.polygon_counts(p)


@pytest.mark.parametrize("rung", workloads.LADDER)
def test_enumeration_call_counts_and_output_match_the_benchmark(rung):
    """Every rung of the benchmark's ladder, (11, 3, 7, 0) included."""
    want = EXPECTED["enumerate"][",".join(map(str, rung))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        polygons = pl.enumerate_frobenius_polygons(*rung)
    finally:
        tracer.uninstall()
    calls, _, _ = tracer.totals()
    n = want["count"]
    assert calls == {
        "polygons.enumerate_frobenius_polygons": 1,
        "algebra.require_prime": 1,
        "polygons.make_polygon": n,
        "polygons.integer_heights": n,
    }
    assert workloads.digest(workloads.vertices_text(polygons)) == want["sha256"]


#: One seeded cycle of the benchmark's CLI mix: every command in both formats,
#: ``classify`` at p = 3 and 7, ``verify-claims -p 5`` and ``polygons -p 7``.
CLI_MIX = workloads.cli_mix(random.Random(5))


@pytest.mark.parametrize(
    "key, model, argv", CLI_MIX, ids=[" ".join(argv) for _, _, argv in CLI_MIX]
)
def test_cli_call_counts_match_the_benchmark_guard(key, model, argv, capsys):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(list(argv))  # the wrapper: looked up after install
    finally:
        tracer.uninstall()
    want = EXPECTED["cli"][key]
    assert (code, workloads.digest(capsys.readouterr().out)) == (want["exit"], want["sha256"])
    calls, _, _ = tracer.totals()
    assert calls == workloads.cli_counts([(key, model, argv)], EXPECTED)
