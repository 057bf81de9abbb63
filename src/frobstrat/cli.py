"""Command-line front end emitting the classification tables as JSON or TSV.

Every command is a thin adapter over the library, and only :func:`main`
formats its output: minified JSON with sorted keys, or TSV with bare tabs
and newlines, so output is byte-stable for a fixed command line.  Exit
codes: 0 on success, 1 on bad flags or parameters or when stdout is
closed early, 2 on an internal invariant violation or a failed claim.

A line is read against :data:`COMMANDS` and :func:`command_flags` as
argparse reads it on Python 3.11, and help (at 78 columns) and usage
errors are written here in argparse's words: a call loads no parser
library, and a line prints the same on every interpreter and terminal.
Handlers import the layers they use when they run; ``json`` is imported
only to print JSON, ``textwrap`` only to print help or an error.
"""

import os
import sys
import warnings

from .errors import ExtrapolationWarning, FrobstratError, InvalidParameters, InvariantViolation


def command_flags(name: str) -> dict:
    """Option -> (destination, metavar, default, type, help line) of each flag
    of command ``name``, its :data:`COMMANDS` entry's then ``--format``.  A
    type is ``int``, choices or ``None`` for any word; no default: required."""
    from .polygons import REFERENCE_CONFIGURATION

    p, g, r, d, line_degree = REFERENCE_CONFIGURATION
    flags = {
        "-p": ("p", "P", p, int, "prime characteristic"),
        "-g": ("g", "G", g, int, "curve genus"),
        "-r": ("r", "R", r, int, "bundle rank"),
        "-d": ("d", "D", d, int, "bundle degree"),
        "--deg-line": ("deg_line", "DEG_LINE", line_degree, int,
                       "degree of the source line bundle"),
        "--lambda": ("lambdas", "LAMBDAS", None, None,
                     "comma-separated projective coordinates, e.g. 1,0,0"),
        "--format": ("fmt", "{json,tsv}", "json", ("json", "tsv"), "output format"),
    }
    return {flag: flags[flag] for flag in (*COMMANDS[name][1], "--format")}


def _help(name, flags):
    """The help of command ``name``, or of the command list.  Its first
    paragraph is the usage: ``[-h]``, each flag and its metavar, bracketed
    unless required, and a break before a word that would pass column 78."""
    import textwrap

    if not name:
        text = ("usage: frobstrat [-h] command ...\n\nExact classification of Frobenius "
                "destabilization strata: polygons, local\nmembership, fiber census, dimension "
                "tables.\n\npositional arguments:\n  command")
        for command, (help_text, _, _) in COMMANDS.items():  # help at column 21, below a long one
            text += f"\n    {command:15}  " if len(command) < 16 else f"\n    {command}\n{'':21}"
            text += f"\n{'':21}".join(textwrap.wrap(help_text, 57))
        return text + "\n\noptions:\n  -h, --help         show this help message and exit\n"
    lines = [f"usage: frobstrat {name} [-h]"]
    for flag, (_, metavar, default, _, _) in flags.items():
        words = f"{flag} {metavar}"
        for word in words.split() if default is None else [f"[{words}]"]:
            if len(lines[-1]) + 1 + len(word) > 78:
                lines.append(" " * len(f"usage: frobstrat {name}"))
            lines[-1] += " " + word
    lines += ["", *textwrap.wrap(COMMANDS[name][0], 78), "", "options:",  # help at column 23
              f"  {'-h, --help':19}  show this help message and exit",
              *(f"  {f + ' ' + meta:19}  {text}" for f, (_, meta, _, _, text) in flags.items())]
    return "\n".join(lines) + "\n"


def _negative(word, lists):
    """argparse's negative number, ``^-\\d+$|^-\\d*\\.\\d+$``, or with ``lists`` ``-1,0,0``."""
    body = word[1:-1] if word.endswith("\n") else word[1:]  # "$" matches before a last "\n"
    whole, dot, part = body.partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and part.isdecimal()
    first, *rest = body.split(",") if lists else [body]
    return first.isdecimal() and all(n.removeprefix("-").isdecimal() for n in rest)


def _parse(argv, name=None):
    """Read ``argv`` as argparse 3.11 reads it against the flags of command
    ``name``, or, without ``name``, the command list's one value ``command``;
    return destination -> value.  Help (exit 0) and usage errors (exit 1)
    are met left to right, then missing flags, then words no flag reads."""
    flags = command_flags(name) if name else {}
    options = {"-h": None, "--help": None, **flags}  # None: the help flag

    def fail(message):
        usage, prog = _help(name, flags).partition("\n\n")[0], f"frobstrat {name or ''}".rstrip()
        sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
        sys.exit(1)

    def value(option, kind, word):
        if kind is int:
            try:
                return int(word)
            except ValueError:  # int() also refuses past its 4,300-digit limit
                fail(f"argument {option}: invalid int value: {word!r}")
        if kind and word not in kind:
            choices = ", ".join(map(repr, kind))
            fail(f"argument {option}: invalid choice: {word!r} (choose from {choices})")
        return word

    read = []  # per word: "A" for a value, "--", "?" for an unknown option, or (option, value)
    for i, word in enumerate(argv):
        head, eq, tail = word.partition("=")
        if word == "--":  # every later word is a value
            read += ["--"] + ["A"] * (len(argv) - i - 1)
            break
        if word[:1] != "-" or len(word) == 1:
            found = ["A"]
        elif head in options:  # the whole word, or the part before an "="
            found = [(head, tail if eq else None)]
        elif word[1] == "-":  # a unique prefix names a long option
            found = [(o, tail if eq else None) for o in options if o.startswith(head)]
        else:  # a short option runs on into its value
            found = [(word[:2], word[2:])] if word[:2] in options else []
        if len(found) > 1:
            fail(f"ambiguous option: {word} could match {', '.join(o for o, _ in found)}")
        read.append(found[0] if found else "A" if _negative(word, name) or " " in word else "?")
    values = {dest: default for dest, _, default, _, _ in flags.values()}
    extras, i, command = [], 0, not name  # command: the command list's value is still to come
    while i < len(argv):
        word, at, i = argv[i], read[i], i + 1
        j = i - (at == "A")  # where the command is, after at most one "--"
        if command and at in ("A", "--") and j < len(argv):
            value("command", COMMANDS, argv[j])  # a command name gets here only after "--"
            command, i = False, j + 1 + (read[j + 1 : j + 2] == ["--"])  # and one "--" after it
        elif isinstance(at, str):
            extras.append(word)
        else:
            option, explicit = at
            helped = options[option] is None
            while options[option] is None and explicit is not None:  # -hp5 reads on as -p5
                if option == "--help" or not explicit or "-" + explicit[0] not in options:
                    fail(f"argument -h/--help: ignored explicit argument {explicit!r}")
                option, explicit = "-" + explicit[0], explicit[1:] or None
            if options[option] is not None and explicit is None:
                if i == len(argv) or read[i] != "A":
                    fail(f"argument {option}: expected one argument")
                explicit, i = argv[i], i + 1
            if helped:
                sys.stdout.write(_help(name, flags))
                sys.exit(0)
            dest, _, _, kind, _ = options[option]
            values[dest] = value(option, kind, explicit)
    missing = ["command"] if command else [o for o, (d, *_) in flags.items() if values[d] is None]
    if missing:
        fail("the following arguments are required: " + ", ".join(missing))
    if extras:
        fail("unrecognized arguments: " + " ".join(extras))
    if not name:  # only "-- polygons" and its like get here: argparse read "--" as the command
        value("command", COMMANDS, "--")
    return values


def _cmd_polygons(args):
    from .polygons import enumerate_frobenius_polygons

    polys = enumerate_frobenius_polygons(args["p"], args["g"], args["r"], args["d"])
    return [pg.vertices for pg in polys], ((pg.vertices,) for pg in polys), 0


def _cmd_classify(args):
    from .local_frobenius import FiberPoint, LocalContext, colength_profile, fiber_polygon
    from .polygons import reference_label

    try:
        lambdas = tuple(int(part) for part in args["lambdas"].split(","))
    except ValueError:
        raise InvalidParameters(
            f"--lambda expects comma-separated integers, got {args['lambdas']!r}") from None
    ctx, point = LocalContext.default(args["p"]), FiberPoint(lambdas, args["p"])
    profile = colength_profile(ctx, point, args["g"], args["deg_line"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        polygon = fiber_polygon(ctx, point, args["g"], args["deg_line"])
    label = None if profile.extrapolated else reference_label(polygon)
    colengths = {f"E{lv}": c for lv, c in sorted(profile.colengths.items())}
    payload = {"colengths": colengths, "polygon_id": label, "vertices": polygon.vertices,
               **({"extrapolated": True} if profile.extrapolated else {})}
    return payload, [(label, polygon.vertices, *colengths.values())], 0


def _cmd_fiber_census(args):
    from .local_frobenius import REFERENCE_PARAMETERS
    from .strata import fiber_census

    census = fiber_census(*REFERENCE_PARAMETERS)
    rows = [(label, counts[label], forms[label]) for counts, forms in (
        (census.strict_counts, census.strict_forms), (census.closed_counts, census.closed_forms))
        for label in sorted(counts)]
    return {f: getattr(census, f) for f in census._fields}, rows, 0


def _cmd_strata_table(args):
    from .strata import CurveContext, stratum_table

    reports = stratum_table(CurveContext())
    payload = [{f: getattr(r, f) for f in r._fields if f != "polygon"}
               | {"vertices": r.polygon.vertices} for r in reports]
    rows = [(r.polygon_id, r.polygon.vertices, r.fiber_dim, r.quot_dim, r.moduli_dim,
             next((v for k, v in (r.counts or {}).items() if k.startswith("q=")), None),
             (r.counts or {}).get("closed_form"), r.closure) for r in reports]
    return payload, rows, 0


def _cmd_canonical_polygon(args):
    from .polygons import canonical_polygon, canonical_stratum_dim

    polygon = canonical_polygon(args["p"], args["g"], args["r"], args["d"])
    dim = canonical_stratum_dim(args["r"], args["g"])
    return {"stratum_dim": dim, "vertices": polygon.vertices}, [(polygon.vertices, dim)], 0


def _cmd_verify_claims(args):
    """Each row of :func:`~frobstrat.local_frobenius.verify_claims`, which
    defines the claims, with its status; exit 2 when a claim fails."""
    from .local_frobenius import verify_claims

    rows = [(claim, "pass" if passed == total else "fail", passed, total)
            for claim, passed, total in verify_claims(args["p"])]
    payload = [dict(zip(("claim", "status", "passed", "total"), row)) for row in rows]
    return payload, rows, 2 if any(row[1] == "fail" for row in rows) else 0


#: Command name -> (help line, flags it reads besides ``--format``, handler).
#: A handler takes the parsed values, imports the layers it uses and returns
#: the JSON payload, the TSV rows and the exit code.  Payload and rows hold
#: library values; a row is a tuple of str, int, None or vertex tuples.  The
#: rows may be lazy, read after ``main``'s ``try``, so they must not raise.
COMMANDS = {
    "polygons": ("enumerate all destabilized pull-back polygons",
                 ("-p", "-g", "-r", "-d"), _cmd_polygons),
    "classify": ("classify one fiber point into its polygon stratum",
                 ("-p", "-g", "--deg-line", "--lambda"), _cmd_classify),
    "fiber-census": ("count fiber points per stratum, with closed forms, at the reference "
                     "configuration", (), _cmd_fiber_census),
    "strata-table": ("emit the assembled stratum dimension table at the reference configuration",
                     (), _cmd_strata_table),
    "canonical-polygon": ("emit the extremal polygon and its stratum dimension",
                          ("-p", "-g", "-r", "-d"), _cmd_canonical_polygon),
    "verify-claims": ("check the four membership claims over every fiber point",
                      ("-p",), _cmd_verify_claims),
}


def _cell(value) -> str:
    """One TSV cell: ``a,b;c,d`` for a vertex tuple, ``-`` for None."""
    if isinstance(value, tuple):
        return ";".join(f"{a},{b}" for a, b in value)
    return "-" if value is None else str(value)


def main(argv=None) -> int:
    """Parse ``argv`` and run its command; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv[1:], argv[0]) if argv and argv[0] in COMMANDS else _parse(argv)
    try:
        payload, rows, exit_code = COMMANDS[argv[0]][2](args)
    except InvariantViolation as exc:
        print(f"frobstrat: internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except FrobstratError as exc:
        print(f"frobstrat: {exc}", file=sys.stderr)
        return 1
    if args["fmt"] == "json":
        import json

        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = "\n".join("\t".join(map(_cell, row)) for row in rows)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone: send the exit-time flush to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
