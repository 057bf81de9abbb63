"""Command-line front end emitting the classification tables as JSON or TSV.

Every command is a thin adapter over the library: no arithmetic lives
here.  JSON output is minified with sorted keys and TSV uses bare tab and
newline separators, so both formats are byte-stable for a fixed command
line.  Exit codes: 0 on success, 1 on bad flags or parameters, 2 on an
internal invariant violation.

Each command's handler imports the layers it uses when it runs, so one
call loads and compiles only what its own command needs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from .errors import (
    ExtrapolationWarning,
    FrobstratError,
    InvalidParameters,
    InvariantViolation,
)
from .record import Record

PRECISION_ENV_VAR = "FROBSTRAT_PRECISION"

#: Most fiber points one ``verify-claims`` call may check: the 137,257
#: points of P^6(F_7) fit, the 2.9·10^10 points of P^10(F_11) do not.
VERIFY_POINT_BUDGET = 10**6


class CliConfig(Record):
    """Resolved invocation: command, parameters, and output format."""

    command: str
    p: int = 3
    g: int = 2
    r: int = 3
    d: int = 0
    line_degree: int = -1
    lambdas: tuple[int, ...] | None = None
    fmt: str = "json"
    precision: int | None = None


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with status 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="frobstrat",
        description="Exact classification of Frobenius destabilization "
        "strata: polygons, local membership, fiber census, dimension "
        "tables.",
    )
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-p", type=int, default=3, help="prime characteristic")
    shared.add_argument("-g", type=int, default=2, help="curve genus")
    shared.add_argument("-r", type=int, default=3, help="bundle rank")
    shared.add_argument("-d", type=int, default=0, help="bundle degree")
    shared.add_argument(
        "--deg-line",
        type=int,
        default=-1,
        dest="deg_line",
        help="degree of the source line bundle",
    )
    shared.add_argument(
        "--format",
        choices=("json", "tsv"),
        default="json",
        dest="fmt",
        help="output format",
    )
    shared.add_argument(
        "--precision",
        type=int,
        default=None,
        help="right-exponent precision of the local model (default 3p, at "
        "least 2p; the work does not grow with it; overrides "
        f"${PRECISION_ENV_VAR})",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (help_text, _) in COMMANDS.items():
        command = sub.add_parser(name, parents=[shared], help=help_text)
        if name == "classify":
            command.add_argument(
                "--lambda",
                dest="lambdas",
                required=True,
                help="comma-separated projective coordinates, e.g. 1,0,0",
            )
    return parser


def _parse_lambdas(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise InvalidParameters(
            f"--lambda expects comma-separated integers, got {raw!r}"
        ) from None


def config_from_args(args: argparse.Namespace) -> CliConfig:
    precision = args.precision
    if precision is None:
        raw = os.environ.get(PRECISION_ENV_VAR)
        if raw is not None:
            try:
                precision = int(raw)
            except ValueError:
                raise InvalidParameters(
                    f"${PRECISION_ENV_VAR} must be an integer, got {raw!r}"
                ) from None
    lambdas = None
    if getattr(args, "lambdas", None) is not None:
        lambdas = _parse_lambdas(args.lambdas)
    return CliConfig(
        command=args.command,
        p=args.p,
        g=args.g,
        r=args.r,
        d=args.d,
        line_degree=args.deg_line,
        lambdas=lambdas,
        fmt=args.fmt,
        precision=precision,
    )


def _local_context(config: CliConfig):
    from .local_frobenius import LocalContext

    if config.precision is None:
        return LocalContext.default(config.p)
    return LocalContext(config.p, config.precision)


def _fmt_vertices(pg) -> str:
    return ";".join(f"{a},{b}" for a, b in pg.vertices)


def _opt(value) -> str:
    return "-" if value is None else str(value)


def _cmd_polygons(config: CliConfig):
    from .polygons import enumerate_frobenius_polygons, vertex_lists

    polys = enumerate_frobenius_polygons(config.p, config.g, config.r, config.d)
    payload = [vertex_lists(pg) for pg in polys]
    lines = [_fmt_vertices(pg) for pg in polys]
    return payload, lines, 0


def _cmd_classify(config: CliConfig):
    from .local_frobenius import FiberPoint, colength_profile, fiber_polygon
    from .polygons import reference_label, vertex_lists

    if config.lambdas is None:
        raise InvalidParameters("classify requires --lambda")
    ctx = _local_context(config)
    point = FiberPoint(config.lambdas, config.p)
    profile = colength_profile(ctx, point, config.g, config.line_degree)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        polygon = fiber_polygon(ctx, point, config.g, config.line_degree)
    label = None if profile.extrapolated else reference_label(polygon)
    colengths = {
        f"E{lv}": profile.colengths[lv] for lv in sorted(profile.colengths)
    }
    payload = {
        "colengths": colengths,
        "polygon_id": label,
        "vertices": vertex_lists(polygon),
    }
    if profile.extrapolated:
        payload["extrapolated"] = True
    cols = [_opt(label), _fmt_vertices(polygon)]
    cols += [str(profile.colengths[lv]) for lv in sorted(profile.colengths)]
    return payload, ["\t".join(cols)], 0


def _cmd_fiber_census(config: CliConfig):
    from .strata import fiber_census

    census = fiber_census(config.p, config.g, config.line_degree)
    payload = {
        "closed_counts": census.closed_counts,
        "closed_forms": census.closed_forms,
        "field_size": census.field_size,
        "strict_counts": census.strict_counts,
        "strict_forms": census.strict_forms,
        "total": census.total,
    }
    lines = [
        f"{label}\t{census.strict_counts[label]}\t{census.strict_forms[label]}"
        for label in sorted(census.strict_counts)
    ]
    lines += [
        f"{label}\t{census.closed_counts[label]}\t{census.closed_forms[label]}"
        for label in sorted(census.closed_counts)
    ]
    return payload, lines, 0


def _cmd_strata_table(config: CliConfig):
    from .strata import CurveContext, stratum_table

    ctx = CurveContext(config.p, config.g, config.r, config.d, config.line_degree)
    reports = stratum_table(ctx)
    payload = [report.as_json_dict() for report in reports]
    lines = []
    for report in reports:
        counts = report.counts or {}
        count_at_q = next(
            (v for k, v in counts.items() if k.startswith("q=")), None
        )
        lines.append(
            "\t".join(
                [
                    report.polygon_id,
                    _fmt_vertices(report.polygon),
                    _opt(report.fiber_dim),
                    _opt(report.quot_dim),
                    str(report.moduli_dim),
                    _opt(count_at_q),
                    _opt(counts.get("closed_form")),
                    report.closure,
                ]
            )
        )
    return payload, lines, 0


def _cmd_canonical_polygon(config: CliConfig):
    from .polygons import canonical_polygon, canonical_stratum_dim, vertex_lists

    polygon = canonical_polygon(config.p, config.g, config.r, config.d)
    dim = canonical_stratum_dim(config.r, config.g)
    payload = {"stratum_dim": dim, "vertices": vertex_lists(polygon)}
    return payload, [f"{_fmt_vertices(polygon)}\t{dim}"], 0


def _cmd_verify_claims(config: CliConfig):
    """Membership of tau^(p-1) t^j against the monomial criterion, for the
    four shift values j = 0, 1, p-1, p, over every point of P^(p-1)(F_p).

    Refused before any point is built when P^(p-1)(F_p) has more points
    than :data:`VERIFY_POINT_BUDGET`.
    """
    from .local_frobenius import (
        fiber_points,
        right_multiply,
        submodule_contains,
        submodule_contains_monomial,
        tau_power,
    )

    ctx = _local_context(config)
    p = config.p
    # From p = 100 on, (p^p - 1)/(p - 1) exceeds 10^190: over the budget, and
    # too long to be worth computing in full.
    huge = p >= 100
    count = f"({p}^{p} - 1)/{p - 1}" if huge else (p**p - 1) // (p - 1)
    if huge or count > VERIFY_POINT_BUDGET:
        raise InvalidParameters(
            f"verify-claims -p {p} would check {count} fiber points, over "
            f"the work budget of {VERIFY_POINT_BUDGET} points"
        )
    points = fiber_points(p)
    top = tau_power(ctx, p - 1)
    results = []
    all_ok = True
    for name, shift in (("a", 0), ("b", 1), ("c", p - 1), ("d", p)):
        element = right_multiply(top, shift)
        passed = 0
        for point in points:
            member = submodule_contains(element, point)
            expected = all(
                submodule_contains_monomial(point, k) for k in range(shift, p)
            )
            if member == expected:
                passed += 1
        ok = passed == len(points)
        all_ok = all_ok and ok
        results.append(
            {
                "claim": name,
                "passed": passed,
                "status": "pass" if ok else "fail",
                "total": len(points),
            }
        )
    lines = [
        f"{row['claim']}\t{row['status']}\t{row['passed']}\t{row['total']}"
        for row in results
    ]
    return results, lines, 0 if all_ok else 2


#: Command name -> (help line, handler).  A handler imports the layers it
#: uses and returns the JSON payload, the TSV lines and the exit code.
COMMANDS = {
    "polygons": ("enumerate all destabilized pull-back polygons", _cmd_polygons),
    "classify": ("classify one fiber point into its polygon stratum", _cmd_classify),
    "fiber-census": (
        "count fiber points per stratum, with closed forms",
        _cmd_fiber_census,
    ),
    "strata-table": ("emit the assembled stratum dimension table", _cmd_strata_table),
    "canonical-polygon": (
        "emit the extremal polygon and its stratum dimension",
        _cmd_canonical_polygon,
    ),
    "verify-claims": (
        "check the four membership claims over every fiber point",
        _cmd_verify_claims,
    ),
}


def run(config: CliConfig) -> int:
    """Dispatch one resolved invocation; returns the process exit code."""
    if config.command not in COMMANDS:
        print(f"frobstrat: unknown command {config.command!r}", file=sys.stderr)
        return 1
    try:
        payload, lines, exit_code = COMMANDS[config.command][1](config)
    except InvariantViolation as exc:
        print(f"frobstrat: internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except FrobstratError as exc:
        print(f"frobstrat: {exc}", file=sys.stderr)
        return 1
    if config.fmt == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print("\n".join(lines))
    return exit_code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except FrobstratError as exc:
        print(f"frobstrat: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
