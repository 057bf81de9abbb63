"""Benchmark of frobstrat: one command for every end-to-end or per-layer metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of the workload, ``--trace 1``
the per-layer metrics of a traced run.  Each metric is printed by name
with its unit, then the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from calibration import Calibrator, cli_calibrator, process_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "enumerate", "cli")
#: Fresh interpreters timed for ``setup_s``, half before the timed phase, half after.
SETUP_PROBES = 8
#: Bare interpreter start-ups whose median is recorded with every run.
BARE_PROBES = 5
WORKER_TIMEOUT_S = 170
#: ``canonical-polygon``: the CLI call timed as the ``cli`` workload's set-up.
CLI_WARMUP = ("-m", "frobstrat", "canonical-polygon")


def run(env, argv, timeout=60) -> tuple[float, subprocess.CompletedProcess]:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=timeout)
    return perf_counter() - t0, proc


def checked(env, argv, timeout=60) -> tuple[float, subprocess.CompletedProcess]:
    elapsed, proc = run(env, argv, timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode())
        raise SystemExit(f"perfbench: {' '.join(argv)} exited with {proc.returncode}")
    return elapsed, proc


def setup_probes(env, args, n) -> list[float]:
    """Scaled set-up times of ``n`` fresh interpreters; the bytecode cache is warm."""
    cal = cli_calibrator() if args.workload == "cli" else Calibrator()
    probes = []
    for _ in range(n):
        if args.workload == "cli":
            seconds = checked(env, CLI_WARMUP)[0]
        else:
            probe = [str(HERE / "worker.py"), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup-only"]
            seconds = json.loads(checked(env, probe)[1].stdout)["setup_s"]
        probes.append(seconds * cal.factor())
    return probes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "frobstrat" / "__init__.py").is_file():
        print(f"perfbench: no frobstrat sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")

    checked(env, CLI_WARMUP)  # fills the bytecode cache of every module; untimed
    bare_ms = process_seconds(["-c", "pass"], BARE_PROBES) * 1000
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"conditions: python {platform.python_version()}, nproc {os.cpu_count()}, "
        f"bare start-up {bare_ms:.1f} ms, PYTHONHASHSEED=0, bytecode cache warm, "
        "ExtrapolationWarning ignored"
    )

    probes = [] if args.trace else setup_probes(env, args, SETUP_PROBES // 2)
    worker = [str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        _, proc = run(env, worker, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker ran past {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr.decode())
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    if not args.trace:
        probes += setup_probes(env, args, SETUP_PROBES - len(probes))
        setup_s = median(probes)

    if args.trace:
        metrics = result["metrics"]
        for name, (value, unit) in metrics.items():
            print(f"{name:45s} {value:>14.6g} {unit}")
        print(f"spans: {result['span_dir']}; overhead from {result['overhead_passes']} pass pair(s)")
    else:
        n = result["samples"]
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (result["ops_per_s"], "1/s"),
            "op_ms_p50": (result["op_ms_p50"], "ms"),
            "op_ms_p90": (result["op_ms_p90"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh interpreters",
            "ops_per_s": f"median of {result['windows']} windows",
            "op_ms_p50": f"{n} samples",
            "op_ms_p90": f"{n} samples, {n - int(0.9 * n)} beyond",
        }
        kernel = "child-process kernel" if args.workload == "cli" else "in-process kernel"
        print(f"timings scaled by the {kernel} (see calibration.py); "
              f"its median in this run was {result['kernel_ms']:.3f} ms")
        for name, (value, unit) in metrics.items():
            print(f"{name:12s} {value:>12.6g} {unit:4s} {notes.get(name, '')}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"fail_rate    {failed / attempted:>12.6g} -    {failed} of {attempted} ops failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
