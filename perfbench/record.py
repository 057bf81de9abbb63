"""Record the expected outputs that the benchmark checks against.

Run from the root of a checkout of the commit whose outputs are the
reference:

    PYTHONPATH=src python3 perfbench/record.py > perfbench/expected.json

It records, for the census, the polygon of each stratum b at p = 5 and 7
(a point's polygon depends only on b); for the ladder, each rung's polygon
count and the SHA-256 of its vertex lists; for the CLI, the exit code,
byte count and SHA-256 of stdout of every call the mix can make.
Re-recording changes what counts as correct, so it is a benchmark change
of its own, never part of a change to the program.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import warnings

import workloads as wl
from frobstrat.errors import ExtrapolationWarning
from frobstrat.local_frobenius import FiberPoint, LocalContext, fiber_polygon
from frobstrat.polygons import enumerate_frobenius_polygons


def census() -> dict:
    out = {}
    rng = random.Random(0)
    for p in (wl.CENSUS_FULL_P, wl.CENSUS_SAMPLE_P):
        ctx = LocalContext.default(p)
        points = [FiberPoint(wl.random_lambdas(rng, p, b), p) for b in range(p)]
        out[str(p)] = [
            wl.vertices_text([fiber_polygon(ctx, pt, wl.G, wl.LINE_DEGREE)]) for pt in points
        ]
    return out


def ladder() -> dict:
    out = {}
    for rung in wl.LADDER:
        polygons = enumerate_frobenius_polygons(*rung)
        out[",".join(map(str, rung))] = {
            "count": len(polygons),
            "sha256": wl.digest(wl.vertices_text(polygons)),
        }
    return out


def cli_calls() -> dict:
    """Every (golden key, argv) the mix can draw, with one point per stratum."""
    rng = random.Random(0)
    calls = {}
    for fmt in ("json", "tsv"):
        for cmd in wl.REFERENCE_COMMANDS:
            calls[f"{cmd} {fmt}"] = (cmd, "--format", fmt)
        for b in range(3):
            lam = ",".join(map(str, wl.random_lambdas(rng, 3, b)))
            calls[f"classify b={b} {fmt}"] = ("classify", "--lambda", lam, "--format", fmt)
    calls["verify-claims -p 5 json"] = ("verify-claims", "-p", "5")
    for b in range(7):
        lam = ",".join(map(str, wl.random_lambdas(rng, 7, b)))
        calls[f"classify -p 7 b={b} json"] = ("classify", "-p", "7", "--lambda", lam)
    calls["polygons -p 7 -g 3 -r 6 -d 1 tsv"] = wl.P7_POLYGONS
    out = {}
    for key, argv in sorted(calls.items()):
        proc = subprocess.run([sys.executable, "-m", "frobstrat", *argv], capture_output=True)
        out[key] = {
            "exit": proc.returncode,
            "bytes": len(proc.stdout),
            "sha256": wl.digest(proc.stdout.decode()),
        }
    return out


def main() -> None:
    warnings.simplefilter("ignore", ExtrapolationWarning)
    expected = {"census": census(), "enumerate": ladder(), "cli": cli_calls()}
    print(json.dumps(expected, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
