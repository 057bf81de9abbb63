"""Command-line front end emitting the classification tables as JSON or TSV.

Every command is a thin adapter over the library: no arithmetic lives
here.  The membership claims of ``verify-claims``, for one, are defined
and checked by :func:`frobstrat.local_frobenius.verify_claims`.  A
command's JSON payload and its TSV rows hold the library's own values,
not copies or strings, and only :func:`main` formats them: the payload
with :mod:`json`, each TSV cell with :func:`_cell`, which it calls only
under ``--format tsv``.  JSON output is minified with sorted keys and
TSV uses bare tab and newline separators, so both formats are
byte-stable for a fixed command line.  Exit codes: 0 on success, 1 on
bad flags or parameters or when stdout is closed early, 2 on an internal
invariant violation or a failed claim.

Each command's handler imports the layers it uses when it runs, so one
call loads and compiles only what its own command needs.  A call builds
one parser, its command's, or the command list's when ``argv`` names no
command; ``json`` is imported only to print JSON.  Help is laid out at
78 columns whatever the terminal says, and the usage lines, the command
list and the ``invalid choice`` errors, whose layout argparse changes
between releases, are written here: help and usage errors are
byte-stable too, on every interpreter and terminal.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings

from .errors import ExtrapolationWarning, FrobstratError
from .errors import InvalidParameters, InvariantViolation

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that lays out help at 78 columns and exits 1 on usage errors."""

    def _get_formatter(self):
        return self.formatter_class(self.prog, width=78)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _choice(names):
    """A ``type=`` converter taking one of ``names``, worded as argparse 3.11's ``choices``."""
    def check(word):
        if word not in names:
            choices = ", ".join(map(repr, names))
            raise argparse.ArgumentTypeError(f"invalid choice: {word!r} (choose from {choices})")
        return word
    return check


def command_parser(name: str) -> _Parser:
    """The parser of command ``name``: its :data:`COMMANDS` entry's help
    line as the description, the flags that entry lists, and ``--format``."""
    from .polygons import REFERENCE_CONFIGURATION

    p, g, r, d, line_degree = REFERENCE_CONFIGURATION
    flags = {
        "-p": dict(type=int, default=p, help="prime characteristic"),
        "-g": dict(type=int, default=g, help="curve genus"),
        "-r": dict(type=int, default=r, help="bundle rank"),
        "-d": dict(type=int, default=d, help="bundle degree"),
        "--deg-line": dict(
            type=int, default=line_degree, help="degree of the source line bundle"
        ),
        "--lambda": dict(
            dest="lambdas",
            required=True,
            help="comma-separated projective coordinates, e.g. 1,0,0",
        ),
        "--format": dict(type=_choice(("json", "tsv")), metavar="{json,tsv}", default="json",
                         dest="fmt", help="output format"),
    }
    parser = _Parser(prog=f"frobstrat {name}", description=COMMANDS[name][0])
    lines = [f"usage: {parser.prog} [-h]"]
    for flag in (*COMMANDS[name][1], "--format"):
        action = parser.add_argument(flag, **flags[flag])
        words = f"{flag} {action.metavar or action.dest.upper()}"
        for word in words.split() if action.required else [f"[{words}]"]:
            if len(lines[-1]) + 1 + len(word) > 78:  # go on under the first flag
                lines.append(" " * len(f"usage: {parser.prog}"))
            lines[-1] += " " + word
    parser.usage = "\n".join(lines)[len("usage: "):]
    # argparse takes "-1,0,0" for a flag unless this matches it, as "-1" does.
    parser._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")
    return parser


def _exit_without_command(argv):
    """Print the command list (exit 0) or a usage error (exit 1) for an ``argv``
    that does not start with a command; no command's parser is built."""
    import textwrap

    text = ("Exact classification of Frobenius destabilization strata: polygons, local\n"
            "membership, fiber census, dimension tables.\n\npositional arguments:\n  command")
    for name, (help_text, _, _) in COMMANDS.items():  # help at column 21, below a long name
        text += f"\n    {name:15}  " if len(name) < 16 else f"\n    {name}\n{'':21}"
        text += f"\n{'':21}".join(textwrap.wrap(help_text, 57))
    text += "\n\noptions:\n  -h, --help         show this help message and exit"
    parser = _Parser(prog="frobstrat", usage="frobstrat [-h] command ...", description=text,
                     formatter_class=argparse.RawDescriptionHelpFormatter, add_help=False)
    parser.add_argument("-h", "--help", action="help", help=argparse.SUPPRESS)
    parser.add_argument("command", type=_choice(COMMANDS), help=argparse.SUPPRESS)
    parser.parse_args(argv)
    parser.parse_args(["--", "--"])  # only a "--" before a command parses: refuse the "--"


def _parse_lambdas(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise InvalidParameters(
            f"--lambda expects comma-separated integers, got {raw!r}"
        ) from None


def _cmd_polygons(args):
    from .polygons import enumerate_frobenius_polygons

    polys = enumerate_frobenius_polygons(args.p, args.g, args.r, args.d)
    return [pg.vertices for pg in polys], ((pg.vertices,) for pg in polys), 0


def _cmd_classify(args):
    from .local_frobenius import FiberPoint, LocalContext
    from .local_frobenius import colength_profile, fiber_polygon
    from .polygons import reference_label

    lambdas = _parse_lambdas(args.lambdas)
    ctx = LocalContext.default(args.p)
    point = FiberPoint(lambdas, args.p)
    profile = colength_profile(ctx, point, args.g, args.deg_line)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        polygon = fiber_polygon(ctx, point, args.g, args.deg_line)
    label = None if profile.extrapolated else reference_label(polygon)
    colengths = {f"E{lv}": c for lv, c in sorted(profile.colengths.items())}
    payload = {"colengths": colengths, "polygon_id": label, "vertices": polygon.vertices}
    if profile.extrapolated:
        payload["extrapolated"] = True
    return payload, [(label, polygon.vertices, *colengths.values())], 0


def _cmd_fiber_census(args):
    from .local_frobenius import REFERENCE_PARAMETERS
    from .strata import fiber_census

    census = fiber_census(*REFERENCE_PARAMETERS)
    payload = {f: getattr(census, f) for f in census._fields}
    rows = [
        (label, census.strict_counts[label], census.strict_forms[label])
        for label in sorted(census.strict_counts)
    ]
    rows += [
        (label, census.closed_counts[label], census.closed_forms[label])
        for label in sorted(census.closed_counts)
    ]
    return payload, rows, 0


def _cmd_strata_table(args):
    from .strata import CurveContext, stratum_table

    reports = stratum_table(CurveContext())
    payload = [
        {f: getattr(r, f) for f in r._fields if f != "polygon"}
        | {"vertices": r.polygon.vertices}
        for r in reports
    ]
    rows = []
    for r in reports:
        counts = r.counts or {}
        at_q = next((v for k, v in counts.items() if k.startswith("q=")), None)
        rows.append((r.polygon_id, r.polygon.vertices, r.fiber_dim, r.quot_dim,
                     r.moduli_dim, at_q, counts.get("closed_form"), r.closure))
    return payload, rows, 0


def _cmd_canonical_polygon(args):
    from .polygons import canonical_polygon, canonical_stratum_dim

    polygon = canonical_polygon(args.p, args.g, args.r, args.d)
    dim = canonical_stratum_dim(args.r, args.g)
    payload = {"stratum_dim": dim, "vertices": polygon.vertices}
    return payload, [(polygon.vertices, dim)], 0


def _cmd_verify_claims(args):
    """Each row of :func:`~frobstrat.local_frobenius.verify_claims`, which
    defines the claims, with its status; exit 2 when a claim fails."""
    from .local_frobenius import verify_claims

    rows = [
        (claim, "pass" if passed == total else "fail", passed, total)
        for claim, passed, total in verify_claims(args.p)
    ]
    payload = [dict(zip(("claim", "status", "passed", "total"), row)) for row in rows]
    return payload, rows, 2 if any(row[1] == "fail" for row in rows) else 0


#: Command name -> (help line, flags it reads besides ``--format``, handler).
#: A handler takes the parsed arguments, imports the layers it uses and
#: returns the JSON payload, the TSV rows and the exit code.  Payload and
#: rows hold library values; a row is a tuple of str, int, None or vertex
#: tuples.  The rows may be lazy, as ``main`` reads them after its ``try``,
#: but they never format and must not call anything that can raise.
COMMANDS = {
    "polygons": (
        "enumerate all destabilized pull-back polygons",
        ("-p", "-g", "-r", "-d"),
        _cmd_polygons,
    ),
    "classify": (
        "classify one fiber point into its polygon stratum",
        ("-p", "-g", "--deg-line", "--lambda"),
        _cmd_classify,
    ),
    "fiber-census": (
        "count fiber points per stratum, with closed forms, at the reference "
        "configuration",
        (),
        _cmd_fiber_census,
    ),
    "strata-table": (
        "emit the assembled stratum dimension table at the reference configuration",
        (),
        _cmd_strata_table,
    ),
    "canonical-polygon": (
        "emit the extremal polygon and its stratum dimension",
        ("-p", "-g", "-r", "-d"),
        _cmd_canonical_polygon,
    ),
    "verify-claims": (
        "check the four membership claims over every fiber point",
        ("-p",),
        _cmd_verify_claims,
    ),
}


def _cell(value) -> str:
    """One TSV cell: ``a,b;c,d`` for a vertex tuple, ``-`` for None."""
    if isinstance(value, tuple):
        return ";".join(f"{a},{b}" for a, b in value)
    return "-" if value is None else str(value)


def main(argv=None) -> int:
    """Parse ``argv`` and run its command; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in COMMANDS:
        _exit_without_command(argv)
    args = command_parser(argv[0]).parse_args(argv[1:])
    try:
        payload, rows, exit_code = COMMANDS[argv[0]][2](args)
    except InvariantViolation as exc:
        print(f"frobstrat: internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except FrobstratError as exc:
        print(f"frobstrat: {exc}", file=sys.stderr)
        return 1
    if args.fmt == "json":
        import json

        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = "\n".join("\t".join(map(_cell, row)) for row in rows)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone: send the exit-time flush to /dev/null.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
