"""Load process of the benchmark: one workload in a fresh interpreter.

``run.py`` starts this script; it is the only process that puts load on
frobstrat (the ``cli`` workload starts the CLI from here, one call at a
time).  It times its own set-up (importing frobstrat and building the
inputs), then either runs the timed closed loop or the traced run, and
prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
import traceback
import warnings
from collections import defaultdict
from statistics import median, quantiles
from time import perf_counter

import workloads as wl
from calibration import Calibrator, cli_calibrator, process_seconds
from tracing import Tracer

#: Fewest op latencies a timed run records, so that ten lie beyond the 90th percentile.
MIN_SAMPLES = 100
#: Calls each of the bare-interpreter and import probes makes in a traced run.
PROBES = 7
CLI_TIMEOUT_S = 60


def report_exception(context: str) -> None:
    print(f"perfbench: {context} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def latency_summary(latencies_s: list[float]) -> dict:
    ms = [x * 1000 for x in latencies_s]
    return {
        "op_ms_p50": median(ms),
        "op_ms_p90": quantiles(ms, n=10)[-1],
        "samples": len(ms),
    }


def enough(windows, deadline) -> bool:
    return perf_counter() >= deadline and sum(map(len, windows)) >= MIN_SAMPLES


def kind_latencies(by_kind: dict) -> list[float]:
    """Each op's latency as the median latency of its kind over the run.

    Ops of one kind (census stratum (p, b), ladder rung, CLI command) do
    the same work, so their spread is machine noise.  Pooled, that noise
    would decide every quantile that sits on the edge between two kinds,
    as the median does between p = 5 points with b = 4 and b < 4.
    """
    out = []
    for times in by_kind.values():
        out += [median(times)] * len(times)
    return out


def summarize(windows, by_kind, attempted, failed, rss, cal) -> dict:
    """Metrics of a timed run from its windows of scaled op latencies."""
    return {
        "attempted": attempted,
        "failed": failed,
        "ops_per_s": median(len(w) / sum(w) for w in windows),
        "windows": len(windows),
        **latency_summary(kind_latencies(by_kind)),
        "peak_rss_mb": rss,
        "kernel_ms": median(cal.kernel_times) * 1000,
    }


def cli_call(argv) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "frobstrat", *argv],
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return perf_counter() - t0, proc


def golden_ok(expected: dict, key: str, code: int, stdout: bytes) -> bool:
    want = expected["cli"][key]
    return code == want["exit"] and wl.digest(stdout.decode()) == want["sha256"]


# -- timed runs ---------------------------------------------------------------
# A window is a stretch of equal work: CENSUS_WINDOW points, one pass over
# the ladder, or one cycle of the CLI mix.  Op times are scaled by the
# calibration taken around them (see calibration.py): after every census
# window, every ladder call and every CLI cycle.


def timed_census(seq, expected, deadline) -> dict:
    from frobstrat.local_frobenius import fiber_polygon

    check = wl.CensusCheck(expected)
    cal = Calibrator()
    windows = []
    by_kind = defaultdict(list)
    attempted = failed = 0
    while not enough(windows, deadline):
        lat, kinds = [], []
        for _ in range(wl.CENSUS_WINDOW):
            ctx, point = seq[attempted % len(seq)]
            attempted += 1
            t0 = perf_counter()
            try:
                polygon = fiber_polygon(ctx, point, wl.G, wl.LINE_DEGREE)
            except Exception:
                polygon = None
                report_exception(f"fiber_polygon at {point}")
            lat.append(perf_counter() - t0)
            kinds.append((ctx.p, wl.last_nonzero(point.lambdas)))
            failed += polygon is None or not check(ctx, point, polygon)
        f = cal.factor()
        windows.append([x * f for x in lat])
        for kind, x in zip(kinds, windows[-1]):
            by_kind[kind].append(x)
    return summarize(windows, by_kind, attempted, failed, peak_rss_mb(resource.RUSAGE_SELF), cal)


def timed_enumerate(seed, expected, deadline) -> dict:
    from frobstrat.polygons import enumerate_frobenius_polygons

    rng = random.Random(seed)
    cal = Calibrator()
    windows = []
    by_kind = defaultdict(list)
    attempted = failed = 0
    while not windows or perf_counter() < deadline:  # whole passes only
        lat = []
        for rung in wl.ladder_order(rng):
            want = expected["enumerate"][",".join(map(str, rung))]["count"]
            attempted += want
            # Start every call from an empty collector, so that the seeded rung
            # order does not decide which call pays for a full collection.
            polygons = None
            gc.collect()
            t0 = perf_counter()
            try:
                polygons = enumerate_frobenius_polygons(*rung)
            except Exception:
                report_exception(f"enumerate_frobenius_polygons{rung}")
            dt = (perf_counter() - t0) * cal.factor()
            # Every polygon of a call arrives when the call returns: its
            # latency is the call's time over the polygons the call emits.
            lat += [dt / want] * want
            by_kind[rung] += [dt / want] * want
            if polygons is None or not wl.enumerate_check(expected, rung, polygons):
                failed += want
        windows.append(lat)
    return summarize(windows, by_kind, attempted, failed, peak_rss_mb(resource.RUSAGE_SELF), cal)


def timed_cli(seed, expected, deadline) -> dict:
    rng = random.Random(seed)
    cal = cli_calibrator()
    windows = []
    by_kind = defaultdict(list)
    attempted = failed = 0
    while not enough(windows, deadline):
        lat, keys = [], []
        for key, _, argv in wl.cli_mix(rng):
            dt, proc = cli_call(argv)
            lat.append(dt)
            keys.append(key)
            attempted += 1
            if not golden_ok(expected, key, proc.returncode, proc.stdout):
                failed += 1
                print(f"perfbench: {' '.join(argv)} differs from golden {key!r}", file=sys.stderr)
        f = cal.factor()
        windows.append([x * f for x in lat])
        for key, x in zip(keys, windows[-1]):
            by_kind[key].append(x)
    return summarize(windows, by_kind, attempted, failed, peak_rss_mb(resource.RUSAGE_CHILDREN), cal)


# -- trace units ------------------------------------------------------------
#
# A unit is a fixed amount of work with exact expected call counts.  Each
# unit looks its entry points up on the module at call time, so that the
# tracer's wrappers are hit when installed.  ``run`` returns (ops, busy
# seconds, failed ops, stdout bytes).


class CensusUnit:
    """fiber_points(5), then every point of P^4(F_5) and 10 sampled P^6(F_7)
    points per stratum b."""

    def __init__(self, seed, expected) -> None:
        import frobstrat.local_frobenius as lf

        self.lf = lf
        self.contexts, self.sample, _ = wl.census_sample(seed, wl.TRACE_PER_B)
        self.check = wl.CensusCheck(expected)
        full = lf.fiber_points(wl.CENSUS_FULL_P)
        # Check colengths now, untraced, so that the check adds no traced calls.
        for ctx, points in ((self.contexts[wl.CENSUS_FULL_P], full),
                            (self.contexts[wl.CENSUS_SAMPLE_P], self.sample)):
            for point in points:
                self.check.colengths_ok(ctx, point)
        self.counts = wl.census_unit_counts(
            [wl.CENSUS_FULL_P] * len(full) + [wl.CENSUS_SAMPLE_P] * len(self.sample)
        )

    def run(self, tracer):
        t0 = perf_counter()
        full = self.lf.fiber_points(wl.CENSUS_FULL_P)
        busy = perf_counter() - t0
        ctx_full = self.contexts[wl.CENSUS_FULL_P]
        ops = [(ctx_full, pt) for pt in full]
        ops += [(self.contexts[wl.CENSUS_SAMPLE_P], pt) for pt in self.sample]
        failed = 0
        for i, (ctx, point) in enumerate(ops):
            tracer.op_id = i
            t0 = perf_counter()
            polygon = self.lf.fiber_polygon(ctx, point, wl.G, wl.LINE_DEGREE)
            busy += perf_counter() - t0
            failed += not self.check(ctx, point, polygon)
        return len(ops), busy, failed, 0


class LadderUnit:
    """The enumeration ladder once, in a seeded order."""

    def __init__(self, seed, expected) -> None:
        import frobstrat.polygons as polygons

        self.polygons = polygons
        self.rungs = wl.ladder_order(random.Random(seed))
        self.expected = expected
        self.counts = wl.ladder_counts(expected)

    def run(self, tracer):
        busy = 0.0
        emitted = failed = 0
        for i, rung in enumerate(self.rungs):
            tracer.op_id = i
            t0 = perf_counter()
            result = self.polygons.enumerate_frobenius_polygons(*rung)
            busy += perf_counter() - t0
            emitted += len(result)
            failed += 0 if wl.enumerate_check(self.expected, rung, result) else len(result)
        return emitted, busy, failed, 0


class CliUnit:
    """One cycle of the CLI mix, in-process through ``frobstrat.cli.main``."""

    def __init__(self, seed, expected) -> None:
        import frobstrat.cli as cli

        self.cli = cli
        self.mix = wl.cli_mix(random.Random(seed))
        self.expected = expected
        self.counts = wl.cli_counts(self.mix, expected)

    def run(self, tracer):
        busy = 0.0
        failed = out_bytes = 0
        for i, (key, _, argv) in enumerate(self.mix):
            tracer.op_id = i
            out, err = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
            busy += perf_counter() - t0
            stdout = out.getvalue().encode()
            out_bytes += len(stdout)
            failed += not golden_ok(self.expected, key, code, stdout)
        return len(self.mix), busy, failed, out_bytes


UNITS = {"census": CensusUnit, "enumerate": LadderUnit, "cli": CliUnit}


class GuardError(Exception):
    """Traced call counts differ from their closed forms."""


def traced_unit(unit, name: str):
    """Run ``unit`` under a fresh tracer; check its counts against the closed forms."""
    tracer = Tracer()
    tracer.install()
    try:
        ops, busy, failed, out_bytes = unit.run(tracer)
    finally:
        tracer.uninstall()
    calls, self_s, built_in_enum = tracer.totals()
    wrong = {
        fn: (calls[fn], unit.counts[fn])
        for fn in tracer.names
        if calls[fn] != unit.counts[fn]
    }
    if wrong:
        raise GuardError(f"{name} unit: traced calls (got, closed form): {wrong}")
    return tracer, (ops, busy, failed, out_bytes), calls, self_s, built_in_enum


def traced_run(workload, seed, expected, deadline, span_dir) -> dict:
    """Per-layer metrics from one traced unit of each workload, then the
    tracing overhead on ``workload``'s unit from alternating untraced and
    traced passes until the deadline."""
    units = {name: cls(seed, expected) for name, cls in UNITS.items()}
    attempted = failed = 0
    per_unit = {}
    for name, unit in units.items():
        tracer, (ops, busy, bad, out_bytes), calls, self_s, built = traced_unit(unit, name)
        attempted, failed = attempted + ops, failed + bad
        per_unit[name] = (tracer, calls, self_s, built, out_bytes)

    own = units[workload]
    untraced, traced = [], []
    while not traced or perf_counter() < deadline:
        ops, busy, bad, _ = own.run(Tracer())  # not installed: op ids only
        untraced.append(ops / busy)
        _, (ops_t, busy_t, bad_t, _), *_ = traced_unit(own, workload)
        traced.append(ops_t / busy_t)
        attempted, failed = attempted + ops + ops_t, failed + bad + bad_t

    os.makedirs(span_dir, exist_ok=True)
    for name, (tracer, *_) in per_unit.items():
        tracer.write(os.path.join(span_dir, f"spans-{name}.tsv"))

    bare = process_seconds(["-c", "pass"], PROBES) * 1000
    imported = process_seconds(["-c", "import frobstrat.cli"], PROBES) * 1000
    net = []
    for key, _, argv in units["cli"].mix:
        dt, proc = cli_call(argv)
        net.append(dt * 1000 - bare)
        attempted += 1
        failed += not golden_ok(expected, key, proc.returncode, proc.stdout)

    m: dict[str, tuple[float, str]] = {}
    tracer, calls, self_s, _, _ = per_unit["census"]
    for fn in ("algebra.matrix_rank", "local_frobenius.fiber_polygon",
               "local_frobenius.colength_profile", "local_frobenius.colength",
               "local_frobenius.tau_power", "local_frobenius.right_multiply",
               "local_frobenius.phi_image"):
        m[f"{fn}.calls"] = (calls[fn], "count")
        m[f"{fn}.self_s"] = (self_s[fn], "s")
    m["algebra.matrix_rank.useful_ratio"] = (tracer.rank / tracer.rows, "ratio")
    m["algebra.require_prime.calls"] = (calls["algebra.require_prime"], "count")
    m["local_frobenius.tau_power.distinct_ratio"] = (
        len(tracer.tau_keys) / calls["local_frobenius.tau_power"], "ratio")
    m["local_frobenius.fiber_points.self_s"] = (self_s["local_frobenius.fiber_points"], "s")
    m["local_frobenius.fiber_points.points"] = (tracer.points, "count")

    tracer, calls, self_s, built, _ = per_unit["enumerate"]
    for fn in ("polygons.enumerate_frobenius_polygons", "polygons.make_polygon",
               "polygons.integer_heights"):
        m[f"{fn}.calls"] = (calls[fn], "count")
        m[f"{fn}.self_s"] = (self_s[fn], "s")
    m["polygons.emitted"] = (tracer.emitted, "count")
    m["polygons.dedup_ratio"] = (tracer.emitted / built, "ratio")

    tracer, calls, self_s, _, out_bytes = per_unit["cli"]
    m["local_frobenius.submodule_contains.calls"] = (calls["local_frobenius.submodule_contains"], "count")
    m["local_frobenius.submodule_contains.self_s"] = (self_s["local_frobenius.submodule_contains"], "s")
    m["polygons.dominates.calls"] = (calls["polygons.dominates"], "count")
    m["polygons.reference_label.calls"] = (calls["polygons.reference_label"], "count")
    m["strata.fiber_census.self_s"] = (self_s["strata.fiber_census"], "s")
    m["strata.stratum_table.self_s"] = (self_s["strata.stratum_table"], "s")
    m["cli.bare_start_ms"] = (bare, "ms")
    m["cli.import_ms"] = (imported - bare, "ms")
    m["cli.net_ms_p50"] = (median(net), "ms")
    m["cli.main.self_s"] = (self_s["cli.main"], "s")
    m["cli.stdout_bytes"] = (out_bytes, "bytes")
    m["trace.overhead_ratio"] = (median(traced) / median(untraced), "ratio")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": m,
        "overhead_passes": len(traced),
        "span_dir": span_dir,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=tuple(UNITS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    t0 = perf_counter()
    import frobstrat

    if args.workload == "census":
        seq = wl.census_inputs(args.seed)
    setup_s = perf_counter() - t0

    src = os.path.join(wl.ROOT, "src")
    if os.path.commonpath([frobstrat.__file__, src]) != src:
        print(f"perfbench: frobstrat imported from {frobstrat.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from frobstrat.errors import ExtrapolationWarning

    warnings.simplefilter("ignore", ExtrapolationWarning)
    expected = wl.load_expected()
    deadline = perf_counter() + args.seconds
    if args.trace:
        span_dir = os.path.join(wl.ROOT, ".bench_build", "perfbench")
        try:
            result = traced_run(args.workload, args.seed, expected, deadline, span_dir)
        except GuardError as exc:
            print(f"perfbench: exact-count guard failed: {exc}", file=sys.stderr)
            return 3
    elif args.workload == "census":
        result = timed_census(seq, expected, deadline)
    elif args.workload == "enumerate":
        result = timed_enumerate(args.seed, expected, deadline)
    else:
        result = timed_cli(args.seed, expected, deadline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
