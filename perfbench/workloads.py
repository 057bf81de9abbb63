"""Inputs, output checks and exact call counts of the three workloads.

Nothing here imports ``frobstrat`` at module level: the worker imports the
package inside its timed set-up, so that ``setup_s`` includes the import.
Every input is made from the seed alone.  Expected outputs live in
``expected.json`` next to this file and were recorded from the seed commit
with ``record.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Curve genus and source line degree of every census point.
G, LINE_DEGREE = 2, -1
#: Census primes: every point of P^4(F_5) and a stratified sample of P^6(F_7).
CENSUS_FULL_P, CENSUS_SAMPLE_P = 5, 7
#: Sampled P^6(F_7) points per stratum b in the timed run and in a trace unit.
CENSUS_PER_B, TRACE_PER_B = 50, 10
#: Consecutive census ops whose summed latency gives one throughput window.
CENSUS_WINDOW = 141
#: The enumeration ladder (p, g, r, d).
LADDER = ((3, 2, 3, 0), (5, 3, 5, 0), (7, 3, 6, 1), (5, 4, 6, 1), (11, 3, 7, 0))
#: Reference-configuration commands run in both output formats.
REFERENCE_COMMANDS = (
    "polygons",
    "fiber-census",
    "strata-table",
    "canonical-polygon",
    "verify-claims",
)
P7_POLYGONS = ("polygons", "-p", "7", "-g", "3", "-r", "6", "-d", "1", "--format", "tsv")


def load_expected() -> dict:
    return json.loads((HERE / "expected.json").read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def last_nonzero(lambdas) -> int:
    """Index b of the last nonzero coordinate: the stratum of a fiber point."""
    return max(i for i, v in enumerate(lambdas) if v)


def closed_form_colengths(p: int, b: int) -> dict[int, int]:
    """Colength at each level l of a point in stratum b: p if b >= l, else p - l + b."""
    return {lv: p if b >= lv else p - lv + b for lv in range(1, p)}


def random_lambdas(rng: random.Random, p: int, b: int) -> tuple[int, ...]:
    """Uniform point of stratum b, unnormalised: a random nonzero scalar at b."""
    head = tuple(rng.randrange(p) for _ in range(b))
    return head + (rng.randrange(1, p),) + (0,) * (p - 1 - b)


def stratified_lambdas(rng: random.Random, p: int, per_b: int) -> list[tuple[int, ...]]:
    return [random_lambdas(rng, p, b) for b in range(p) for _ in range(per_b)]


def interleave(major: list, minor: list) -> list:
    """Spread ``minor`` evenly through ``major`` so every stretch has the same mix."""
    n = len(major) + len(minor)
    out, it_major, it_minor = [], iter(major), iter(minor)
    for i in range(n):
        step = (i + 1) * len(minor) // n > i * len(minor) // n
        out.append(next(it_minor) if step else next(it_major))
    return out


def vertices_text(polygons) -> str:
    """The TSV form the CLI prints for a polygon list; hashed for the digests."""
    return "\n".join(";".join(f"{a},{b}" for a, b in pg.vertices) for pg in polygons)


# -- census -----------------------------------------------------------------


class CensusCheck:
    """Checks one classified point against the closed form and the seed's polygons.

    The polygon is checked on every op.  The colengths take a second
    ``colength_profile`` call, so they are checked once per distinct point,
    outside the timer, and the verdict is kept.
    """

    def __init__(self, expected: dict) -> None:
        from frobstrat.local_frobenius import colength_profile

        self.colength_profile = colength_profile  # bound now: never the traced wrapper
        self.polygons = {int(p): per_b for p, per_b in expected["census"].items()}
        self.verdicts: dict = {}

    def colengths_ok(self, ctx, point) -> bool:
        if point not in self.verdicts:
            profile = self.colength_profile(ctx, point, G, LINE_DEGREE)
            b = last_nonzero(point.lambdas)
            self.verdicts[point] = profile.colengths == closed_form_colengths(ctx.p, b)
        return self.verdicts[point]

    def __call__(self, ctx, point, polygon) -> bool:
        expected = self.polygons[ctx.p][last_nonzero(point.lambdas)]
        return vertices_text([polygon]) == expected and self.colengths_ok(ctx, point)


def census_sample(seed: int, per_b: int):
    """Contexts and the stratified P^6(F_7) sample (FiberPoints) for ``seed``."""
    import frobstrat.local_frobenius as lf

    rng = random.Random(seed)
    p = CENSUS_SAMPLE_P
    points = [lf.FiberPoint(lam, p) for lam in stratified_lambdas(rng, p, per_b)]
    rng.shuffle(points)
    contexts = {q: lf.LocalContext.default(q) for q in (CENSUS_FULL_P, CENSUS_SAMPLE_P)}
    return contexts, points, rng


def census_inputs(seed: int) -> list:
    """The timed census sequence: (context, point) pairs, the mix even throughout."""
    import frobstrat.local_frobenius as lf

    contexts, sample, rng = census_sample(seed, CENSUS_PER_B)
    full = list(lf.fiber_points(CENSUS_FULL_P))
    rng.shuffle(full)
    ctx_full, ctx_sample = contexts[CENSUS_FULL_P], contexts[CENSUS_SAMPLE_P]
    return interleave([(ctx_full, pt) for pt in full], [(ctx_sample, pt) for pt in sample])


def profile_counts(p: int) -> Counter:
    """Calls made by one ``colength_profile`` at p: one colength per level,
    tau^m and its p right shifts per level m, one rank per level; every
    PullbackElement, TruncSeries and FpMatrix built checks its prime."""
    tri = p * (p - 1) // 2
    return Counter(
        {
            "local_frobenius.colength_profile": 1,
            "local_frobenius.colength": p - 1,
            "algebra.matrix_rank": p - 1,
            "local_frobenius.tau_power": tri,
            "local_frobenius.right_multiply": p * tri,
            "local_frobenius.phi_image": p * tri,
            "algebra.require_prime": (p - 1) * (p * p + 1),
        }
    )


def polygon_counts(p: int) -> Counter:
    """Calls made by one ``fiber_polygon`` at p."""
    c = profile_counts(p)
    c["local_frobenius.fiber_polygon"] += 1
    c["polygons.make_polygon"] += 1
    return c


def fiber_points_counts(p: int) -> Counter:
    n = (p**p - 1) // (p - 1)
    return Counter({"local_frobenius.fiber_points": 1, "algebra.require_prime": 1 + n})


def census_unit_counts(primes) -> Counter:
    """One census trace unit: ``fiber_points(5)``, then one polygon per point."""
    c = fiber_points_counts(CENSUS_FULL_P)
    for p in primes:
        c += polygon_counts(p)
    return c


# -- enumerate --------------------------------------------------------------


def ladder_order(rng: random.Random) -> list:
    rungs = list(LADDER)
    rng.shuffle(rungs)
    return rungs


def enumerate_check(expected: dict, rung, polygons) -> bool:
    from frobstrat.polygons import REFERENCE_POLYGONS

    want = expected["enumerate"][",".join(map(str, rung))]
    if len(polygons) != want["count"] or digest(vertices_text(polygons)) != want["sha256"]:
        return False
    if rung == LADDER[0]:
        return set(polygons) == set(REFERENCE_POLYGONS.values())
    return True


def ladder_counts(expected: dict) -> Counter:
    """One enumeration unit: each polygon is built once and keyed once in the sort."""
    emitted = sum(v["count"] for v in expected["enumerate"].values())
    return Counter(
        {
            "polygons.enumerate_frobenius_polygons": len(LADDER),
            "algebra.require_prime": len(LADDER),
            "polygons.make_polygon": emitted,
            "polygons.integer_heights": emitted,
        }
    )


# -- cli --------------------------------------------------------------------


def cli_mix(rng: random.Random) -> list[tuple[str, tuple, tuple[str, ...]]]:
    """One cycle of the CLI mix in a seeded order.

    Each entry is (golden key, model, argv); the model names the work the
    call does for :func:`cli_counts`.  Classify output depends only on the
    stratum b of the point, so its golden key carries b.
    """
    mix = []
    b_ref = rng.randrange(3)
    lam_ref = ",".join(map(str, random_lambdas(rng, 3, b_ref)))
    for fmt in ("json", "tsv"):
        for cmd in REFERENCE_COMMANDS:
            model = ("verify", 3) if cmd == "verify-claims" else (cmd, 3)
            mix.append((f"{cmd} {fmt}", model, (cmd, "--format", fmt)))
        argv = ("classify", "--lambda", lam_ref, "--format", fmt)
        mix.append((f"classify b={b_ref} {fmt}", ("classify", 3), argv))
    for b in (2, 1, 0):  # representatives of P2, P3 and P4
        lam = ",".join(map(str, random_lambdas(rng, 3, b)))
        mix.append((f"classify b={b} json", ("classify", 3), ("classify", "--lambda", lam)))
    mix.append(("verify-claims -p 5 json", ("verify", 5), ("verify-claims", "-p", "5")))
    b7 = rng.randrange(7)
    lam7 = ",".join(map(str, random_lambdas(rng, 7, b7)))
    mix.append((f"classify -p 7 b={b7} json", ("classify", 7), ("classify", "-p", "7", "--lambda", lam7)))
    mix.append(("polygons -p 7 -g 3 -r 6 -d 1 tsv", ("polygons", 7), P7_POLYGONS))
    rng.shuffle(mix)
    return mix


def cli_counts(mix, expected: dict) -> Counter:
    """Calls made by running every command of ``mix`` once through ``cli.main``."""
    census = fiber_points_counts(3) + Counter({"strata.fiber_census": 1, "algebra.require_prime": 1})
    for _ in range(13):  # every point of P^2(F_3): polygon, label, three dominations
        census += polygon_counts(3)
        census += Counter({"polygons.reference_label": 1, "polygons.dominates": 3})
    c = Counter({"cli.main": len(mix)})
    for _, (kind, p), _ in mix:
        if kind == "polygons":
            n = expected["enumerate"]["3,2,3,0" if p == 3 else "7,3,6,1"]["count"]
            c += Counter(
                {
                    "polygons.enumerate_frobenius_polygons": 1,
                    "algebra.require_prime": 1,
                    "polygons.make_polygon": n,
                    "polygons.integer_heights": n,
                }
            )
        elif kind == "classify":  # context, point, a profile, then the polygon
            c += profile_counts(p) + polygon_counts(p)
            c += Counter({"algebra.require_prime": 2, "polygons.reference_label": int(p == 3)})
        elif kind == "fiber-census":
            c += census
        elif kind == "strata-table":  # census, then the dual and extremal polygons
            c += census + Counter(
                {
                    "strata.stratum_table": 1,
                    "algebra.require_prime": 2,
                    "polygons.make_polygon": 2,
                    "polygons.reference_label": 1,
                }
            )
        elif kind == "canonical-polygon":
            c += Counter({"algebra.require_prime": 1, "polygons.make_polygon": 1})
        elif kind == "verify":  # tau^(p-1), four shifts, four claims per point
            n = (p**p - 1) // (p - 1)
            c += fiber_points_counts(p) + Counter(
                {
                    "algebra.require_prime": 5 + 4 * n,
                    "local_frobenius.tau_power": 1,
                    "local_frobenius.right_multiply": 4,
                    "local_frobenius.submodule_contains": 4 * n,
                    "local_frobenius.phi_image": 4 * n,
                }
            )
    return c
