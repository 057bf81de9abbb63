"""CLI behaviour: golden outputs, determinism, exit codes, environment."""

from __future__ import annotations

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import _run_capped, _run_main_capped
import frobstrat.cli as cli
from frobstrat.cli import COMMANDS, command_flags, main

GOLDEN_CLASSIFY = (
    '{"colengths":{"E1":2,"E2":1},"polygon_id":"P4",'
    '"vertices":[[0,0],[1,2],[2,2],[3,0]]}'
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_polygons_json(capsys):
    code, out, _ = run_cli(
        capsys, ["polygons", "-p", "3", "-g", "2", "-r", "3", "-d", "0"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 4
    assert payload == [
        [[0, 0], [2, 1], [3, 0]],
        [[0, 0], [1, 1], [3, 0]],
        [[0, 0], [1, 1], [2, 1], [3, 0]],
        [[0, 0], [1, 2], [2, 2], [3, 0]],
    ]


def test_polygons_tsv(capsys):
    code, out, _ = run_cli(capsys, ["polygons", "--format", "tsv"])
    assert code == 0
    assert out == "0,0;2,1;3,0\n0,0;1,1;3,0\n0,0;1,1;2,1;3,0\n0,0;1,2;2,2;3,0\n"


def test_classify_golden(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--lambda", "1,0,0"])
    assert code == 0
    assert out.strip() == GOLDEN_CLASSIFY


@pytest.mark.parametrize(
    "lambdas,label",
    [("0,0,1", "P2"), ("0,1,0", "P3"), ("1,0,0", "P4"), ("2,0,0", "P4")],
)
def test_classify_labels(capsys, lambdas, label):
    code, out, _ = run_cli(capsys, ["classify", "--lambda", lambdas])
    assert code == 0
    assert json.loads(out)["polygon_id"] == label


def test_classify_reads_a_negative_first_coordinate_as_a_value(capsys):
    """``--lambda -1,0,0`` and ``--lambda=-1,0,0`` classify the point 2,0,0;
    argparse's own negative-number test would read the bare ``-1,0,0`` as a
    flag."""
    expected = run_cli(capsys, ["classify", "--lambda", "2,0,0"])
    assert expected[0] == 0
    assert run_cli(capsys, ["classify", "--lambda", "-1,0,0"]) == expected
    assert run_cli(capsys, ["classify", "--lambda=-1,0,0"]) == expected


def test_classify_extrapolated_flagged(capsys):
    code, out, _ = run_cli(
        capsys, ["classify", "--lambda", "1,0", "-p", "2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["extrapolated"] is True
    assert payload["polygon_id"] is None
    assert payload["vertices"] == [[0, 0], [1, 0], [2, -2]]


def test_classify_requires_lambda(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_classify_rejects_bad_lambda(capsys):
    code, _, err = run_cli(capsys, ["classify", "--lambda", "0,0,0"])
    assert code == 1
    assert "frobstrat:" in err
    code, _, err = run_cli(capsys, ["classify", "--lambda", "1,0"])
    assert code == 1
    code, _, err = run_cli(capsys, ["classify", "--lambda", "a,b,c"])
    assert code == 1


def test_fiber_census_json(capsys):
    code, out, _ = run_cli(capsys, ["fiber-census"])
    assert code == 0
    payload = json.loads(out)
    assert payload["strict_counts"] == {"P2": 9, "P3": 3, "P4": 1}
    assert payload["closed_counts"] == {"P2+": 13, "P3+": 4, "P4+": 1}
    assert payload["total"] == 13


def test_fiber_census_tsv(capsys):
    code, out, _ = run_cli(capsys, ["fiber-census", "--format", "tsv"])
    assert code == 0
    assert out.splitlines() == [
        "P2\t9\tq^2",
        "P3\t3\tq",
        "P4\t1\t1",
        "P2+\t13\tq^2+q+1",
        "P3+\t4\tq+1",
        "P4+\t1\t1",
    ]


def test_strata_table_json(capsys):
    code, out, _ = run_cli(capsys, ["strata-table"])
    assert code == 0
    rows = json.loads(out)
    assert [row["polygon_id"] for row in rows] == ["P1", "P2", "P3", "P4"]
    assert [row["moduli_dim"] for row in rows] == [5, 5, 4, 2]
    assert rows[0]["quot_dim"] is None
    assert rows[0]["counts"] is None
    assert rows[1]["counts"] == {"closed_form": "q^2", "q=3": 9}
    assert rows[3]["quot_dim"] == 3


def test_strata_table_json_schema(capsys):
    """Each row of ``strata-table`` is the report's fields, with the
    polygon given by its vertices."""
    code, out, _ = run_cli(capsys, ["strata-table"])
    assert code == 0
    keys = {
        "polygon_id",
        "vertices",
        "fiber_dim",
        "quot_dim",
        "moduli_dim",
        "closure",
        "counts",
    }
    for row in json.loads(out):
        assert set(row) == keys
        assert row["vertices"][0] == [0, 0]


def test_canonical_polygon_json(capsys):
    code, out, _ = run_cli(capsys, ["canonical-polygon", "-r", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "stratum_dim": 2,
        "vertices": [[0, 0], [1, 2], [2, 2], [3, 0]],
    }


def test_verify_claims_pass(capsys):
    code, out, _ = run_cli(capsys, ["verify-claims"])
    assert code == 0
    rows = json.loads(out)
    assert [row["claim"] for row in rows] == ["a", "b", "c", "d"]
    assert all(row["status"] == "pass" for row in rows)
    assert all(row["passed"] == 13 and row["total"] == 13 for row in rows)


def test_verify_claims_tsv(capsys):
    code, out, _ = run_cli(capsys, ["verify-claims", "--format", "tsv"])
    assert code == 0
    assert out.splitlines() == [
        "a\tpass\t13\t13",
        "b\tpass\t13\t13",
        "c\tpass\t13\t13",
        "d\tpass\t13\t13",
    ]


def test_verify_claims_char_five(capsys):
    code, out, _ = run_cli(capsys, ["verify-claims", "-p", "5"])
    assert code == 0
    rows = json.loads(out)
    assert all(row["status"] == "pass" for row in rows)
    assert all(row["total"] == 5**4 + 5**3 + 5**2 + 5 + 1 for row in rows)


def test_verify_claims_reports_a_failed_claim(capsys, monkeypatch):
    """A criterion that disagrees at one point fails claim a alone, in
    both formats, and the command exits 2."""
    import frobstrat.local_frobenius as lf

    criterion, odd = lf.submodule_contains_monomial, lf.FiberPoint((1, 0, 0), 3)
    # Only claim a (shift 0) reads the criterion at k = 0.
    monkeypatch.setattr(
        lf,
        "submodule_contains_monomial",
        lambda point, k: criterion(point, k) != (point == odd and k == 0),
    )
    code, out, _ = run_cli(capsys, ["verify-claims"])
    assert code == 2
    assert json.loads(out) == [
        {"claim": "a", "passed": 12, "status": "fail", "total": 13},
        *({"claim": c, "passed": 13, "status": "pass", "total": 13} for c in "bcd"),
    ]
    code, out, _ = run_cli(capsys, ["verify-claims", "--format", "tsv"])
    assert code == 2
    assert out.splitlines() == ["a\tfail\t12\t13", *(f"{c}\tpass\t13\t13" for c in "bcd")]


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["strata-table"])
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_unknown_command_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_bad_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["polygons", "--format", "xml"])
    assert exc.value.code == 1


def test_invalid_parameters_exit_one(capsys):
    code, _, err = run_cli(capsys, ["polygons", "-p", "4"])
    assert code == 1
    assert "prime" in err
    # fiber-census and strata-table run only at the reference configuration,
    # so they take no parameter flag: the parser refuses one as a usage error.
    for argv in (["strata-table", "-d", "3"], ["fiber-census", "-g", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err


#: Stdout, stderr and exit code of the parser paths that print help or a
#: usage error, recorded from the CLI when one parser held every command;
#: each command's help has since gained its help line as the description.
#: The text is the same on every interpreter and at every terminal width.
PARSER_GOLDEN = {
    "-h": (
        0,
        """\
usage: frobstrat [-h] command ...

Exact classification of Frobenius destabilization strata: polygons, local
membership, fiber census, dimension tables.

positional arguments:
  command
    polygons         enumerate all destabilized pull-back polygons
    classify         classify one fiber point into its polygon stratum
    fiber-census     count fiber points per stratum, with closed forms, at the
                     reference configuration
    strata-table     emit the assembled stratum dimension table at the
                     reference configuration
    canonical-polygon
                     emit the extremal polygon and its stratum dimension
    verify-claims    check the four membership claims over every fiber point

options:
  -h, --help         show this help message and exit
""",
        "",
    ),
    "polygons -h": (
        0,
        """\
usage: frobstrat polygons [-h] [-p P] [-g G] [-r R] [-d D]
                          [--format {json,tsv}]

enumerate all destabilized pull-back polygons

options:
  -h, --help           show this help message and exit
  -p P                 prime characteristic
  -g G                 curve genus
  -r R                 bundle rank
  -d D                 bundle degree
  --format {json,tsv}  output format
""",
        "",
    ),
    "classify -h": (
        0,
        """\
usage: frobstrat classify [-h] [-p P] [-g G] [--deg-line DEG_LINE] --lambda
                          LAMBDAS [--format {json,tsv}]

classify one fiber point into its polygon stratum

options:
  -h, --help           show this help message and exit
  -p P                 prime characteristic
  -g G                 curve genus
  --deg-line DEG_LINE  degree of the source line bundle
  --lambda LAMBDAS     comma-separated projective coordinates, e.g. 1,0,0
  --format {json,tsv}  output format
""",
        "",
    ),
    "fiber-census -h": (
        0,
        """\
usage: frobstrat fiber-census [-h] [--format {json,tsv}]

count fiber points per stratum, with closed forms, at the reference
configuration

options:
  -h, --help           show this help message and exit
  --format {json,tsv}  output format
""",
        "",
    ),
    "strata-table -h": (
        0,
        """\
usage: frobstrat strata-table [-h] [--format {json,tsv}]

emit the assembled stratum dimension table at the reference configuration

options:
  -h, --help           show this help message and exit
  --format {json,tsv}  output format
""",
        "",
    ),
    "canonical-polygon -h": (
        0,
        """\
usage: frobstrat canonical-polygon [-h] [-p P] [-g G] [-r R] [-d D]
                                   [--format {json,tsv}]

emit the extremal polygon and its stratum dimension

options:
  -h, --help           show this help message and exit
  -p P                 prime characteristic
  -g G                 curve genus
  -r R                 bundle rank
  -d D                 bundle degree
  --format {json,tsv}  output format
""",
        "",
    ),
    "verify-claims -h": (
        0,
        """\
usage: frobstrat verify-claims [-h] [-p P] [--format {json,tsv}]

check the four membership claims over every fiber point

options:
  -h, --help           show this help message and exit
  -p P                 prime characteristic
  --format {json,tsv}  output format
""",
        "",
    ),
    "": (
        1,
        "",
        """\
usage: frobstrat [-h] command ...
frobstrat: error: the following arguments are required: command
""",
    ),
    "no-such-command": (
        1,
        "",
        """\
usage: frobstrat [-h] command ...
frobstrat: error: argument command: invalid choice: 'no-such-command' (choose from 'polygons', 'classify', 'fiber-census', 'strata-table', 'canonical-polygon', 'verify-claims')
""",
    ),
    "--format tsv polygons": (
        1,
        "",
        """\
usage: frobstrat [-h] command ...
frobstrat: error: argument command: invalid choice: 'tsv' (choose from 'polygons', 'classify', 'fiber-census', 'strata-table', 'canonical-polygon', 'verify-claims')
""",
    ),
    "-- polygons": (
        1,
        "",
        """\
usage: frobstrat [-h] command ...
frobstrat: error: argument command: invalid choice: '--' (choose from 'polygons', 'classify', 'fiber-census', 'strata-table', 'canonical-polygon', 'verify-claims')
""",
    ),
    "polygons -p x": (
        1,
        "",
        """\
usage: frobstrat polygons [-h] [-p P] [-g G] [-r R] [-d D]
                          [--format {json,tsv}]
frobstrat polygons: error: argument -p: invalid int value: 'x'
""",
    ),
    "classify": (
        1,
        "",
        """\
usage: frobstrat classify [-h] [-p P] [-g G] [--deg-line DEG_LINE] --lambda
                          LAMBDAS [--format {json,tsv}]
frobstrat classify: error: the following arguments are required: --lambda
""",
    ),
    "polygons --format xml": (
        1,
        "",
        """\
usage: frobstrat polygons [-h] [-p P] [-g G] [-r R] [-d D]
                          [--format {json,tsv}]
frobstrat polygons: error: argument --format: invalid choice: 'xml' (choose from 'json', 'tsv')
""",
    ),
    "-hx": (
        1,
        "",
        """\
usage: frobstrat [-h] command ...
frobstrat: error: argument -h/--help: ignored explicit argument 'x'
""",
    ),
}
PARSER_GOLDEN["--help"] = PARSER_GOLDEN["-h"]


@pytest.mark.parametrize("line", PARSER_GOLDEN, ids=lambda line: line or "no arguments")
def test_parser_paths_match_the_recorded_output(capsys, monkeypatch, line):
    """Each path prints its recorded text exactly, on a narrow terminal
    and on a wide one."""
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(line.split())
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out, captured.err) == PARSER_GOLDEN[line]


def test_a_flag_before_the_command_is_a_top_level_usage_error(capsys):
    """Only a line that starts with its command reaches that command's
    parser; a flag written before it is refused against the command list."""
    with pytest.raises(SystemExit) as exc:
        main(["--format", "polygons"])
    assert exc.value.code == 1
    assert capsys.readouterr() == (
        "",
        "usage: frobstrat [-h] command ...\n"
        "frobstrat: error: unrecognized arguments: --format\n",
    )


@pytest.mark.parametrize(
    "argv,progs",
    [
        (["polygons", "--format", "tsv"], ["frobstrat polygons"]),
        (["classify", "-r", "3"], ["frobstrat classify"]),
        (["fiber-census", "-h"], ["frobstrat fiber-census"]),
        (["-h"], ["frobstrat"]),
        (["nope"], ["frobstrat"]),
    ],
    ids=["polygons", "classify-unread-flag", "fiber-census-help", "help", "unknown-command"],
)
def test_each_call_builds_only_the_parser_it_needs(capsys, monkeypatch, argv, progs):
    """A line that names a command is parsed once, against that command's
    flag table, read once; a line that names none is parsed once against
    the command list and reads no flag table."""
    parsed, tables = [], []
    parse, flags = cli._parse, cli.command_flags

    def counted_parse(words, name=None):
        parsed.append(f"frobstrat {name}" if name else "frobstrat")
        return parse(words, name)

    def counted_flags(name):
        tables.append(f"frobstrat {name}")
        return flags(name)

    monkeypatch.setattr(cli, "_parse", counted_parse)
    monkeypatch.setattr(cli, "command_flags", counted_flags)
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert parsed == progs
    assert tables == [prog for prog in progs if prog != "frobstrat"]


def declared_flags() -> dict[str, dict[str, tuple]]:
    """Command name -> {option string: (destination, metavar, default, type,
    help line)} for every flag the parser of that command takes, ``-h``
    left out."""
    return {name: command_flags(name) for name in COMMANDS}


def test_each_command_takes_the_flags_it_declares():
    """19 settable values in all, down from 37 when every command took every
    parameter flag."""
    flags = declared_flags()
    assert {name: list(options) for name, options in flags.items()} == {
        name: [*names, "--format"] for name, (_, names, _) in COMMANDS.items()
    }
    assert sum(len(options) for options in flags.values()) == 19
    # Every parameter flag a command used to take is either declared or refused.
    parameters = {"-p", "-g", "-r", "-d", "--deg-line"}
    declared = {(name, flag) for name, options in flags.items() for flag in options}
    assert not declared & set(REMOVED_PAIRS)
    assert declared | set(REMOVED_PAIRS) >= {(n, f) for n in flags for f in parameters}
    assert len(REMOVED_PAIRS) == 18
    assert set(SECOND_VALUES) == declared


#: The (command, flag) pairs that no command reads: each is a usage error.
REMOVED_PAIRS = [
    ("polygons", "--deg-line"),
    ("classify", "-r"),
    ("classify", "-d"),
    *[
        (command, flag)
        for command in ("fiber-census", "strata-table")
        for flag in ("-p", "-g", "-r", "-d", "--deg-line")
    ],
    ("canonical-polygon", "--deg-line"),
    ("verify-claims", "-g"),
    ("verify-claims", "-r"),
    ("verify-claims", "-d"),
    ("verify-claims", "--deg-line"),
]


@pytest.mark.parametrize(
    "command,flag", REMOVED_PAIRS, ids=[f"{c} {f}" for c, f in REMOVED_PAIRS]
)
def test_unread_flag_is_a_usage_error(capsys, command, flag):
    """Refused even at its reference value, which the command would use
    anyway: a flag a command does not read is never silently accepted."""
    from frobstrat.polygons import REFERENCE_CONFIGURATION

    value = dict(zip(("-p", "-g", "-r", "-d", "--deg-line"), REFERENCE_CONFIGURATION))
    extra = ["--lambda", "1,0,0"] if command == "classify" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *extra, f"{flag}={value[flag]}"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage: frobstrat {command} ")
    error = f"frobstrat {command}: error: unrecognized arguments: {flag}="
    assert error in captured.err
    assert captured.out == ""


#: (command, flag) -> (arguments of the default call, a second valid value).
SECOND_VALUES = {
    ("polygons", "-p"): ((), "2"),
    ("polygons", "-g"): ((), "3"),
    ("polygons", "-r"): ((), "4"),
    ("polygons", "-d"): ((), "1"),
    ("classify", "-p"): (("--lambda", "1,0,0,0,0"), "5"),
    ("classify", "-g"): (("--lambda", "1,0,0"), "3"),
    ("classify", "--deg-line"): (("--lambda", "1,0,0"), "0"),
    ("classify", "--lambda"): (("--lambda", "1,0,0"), "0,0,1"),
    ("canonical-polygon", "-p"): ((), "5"),
    ("canonical-polygon", "-g"): ((), "3"),
    ("canonical-polygon", "-r"): ((), "2"),
    ("canonical-polygon", "-d"): ((), "1"),
    ("verify-claims", "-p"): ((), "5"),
    **{
        (name, "--format"): (("--lambda", "1,0,0") if name == "classify" else (), "tsv")
        for name in COMMANDS
    },
}


@pytest.mark.parametrize(
    "command,flag", SECOND_VALUES, ids=[f"{c} {f}" for c, f in SECOND_VALUES]
)
def test_every_declared_flag_is_read(capsys, command, flag):
    """A second valid value of each declared flag changes stdout or the exit
    code against the default call, so no declared flag is ignored."""
    base, value = SECOND_VALUES[command, flag]
    default = run_cli(capsys, [command, *base])
    changed = run_cli(capsys, [command, *base, flag, value])
    assert default[:2] != changed[:2]


def test_precision_flag_floor(capsys):
    """There is no precision flag: the local model always runs at the
    library default, so ``--precision`` is a usage error at any value."""
    for value in ("5", "6", "9"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--lambda", "1,0,0", "--precision", value])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err


def test_precision_env_var(capsys, monkeypatch):
    """The environment does not set the precision either."""
    for raw in ("5", "not-a-number"):
        monkeypatch.setenv("FROBSTRAT_PRECISION", raw)
        code, out, err = run_cli(capsys, ["classify", "--lambda", "1,0,0"])
        assert (code, err) == (0, "")
        assert out.strip() == GOLDEN_CLASSIFY


def test_reference_configuration_has_one_definition():
    from frobstrat.local_frobenius import FiberPoint, LocalContext, colength_profile
    from frobstrat.polygons import REFERENCE_CONFIGURATION
    from frobstrat.strata import CurveContext

    position = {"-p": 0, "-g": 1, "-r": 2, "-d": 3, "--deg-line": 4}
    declared = set()
    for options in declared_flags().values():
        for option, (_, _, default, _, _) in options.items():
            if option in position:
                assert default == REFERENCE_CONFIGURATION[position[option]]
                declared.add(option)
    assert declared == set(position)
    assert CurveContext() == CurveContext(*REFERENCE_CONFIGURATION)
    p, g, _, _, line_degree = REFERENCE_CONFIGURATION

    def extrapolated(p, g, line_degree):
        point = FiberPoint((1,) + (0,) * (p - 1), p)
        return colength_profile(LocalContext.default(p), point, g, line_degree).extrapolated

    assert not extrapolated(p, g, line_degree)
    assert extrapolated(5, g, line_degree)
    assert extrapolated(p, g + 1, line_degree)
    assert extrapolated(p, g, line_degree + 1)


def test_module_invocation_smoke(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "frobstrat", "classify", "--lambda", "1,0,0"],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == GOLDEN_CLASSIFY


def _imported_modules(env, *args) -> set[str]:
    """Modules a child interpreter imports, read from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_canonical_polygon_imports_only_its_layers(child_env):
    bare = _imported_modules(child_env, "-c", "pass")
    loaded = _imported_modules(child_env, "-m", "frobstrat", "canonical-polygon") - bare
    assert "frobstrat.polygons" in loaded
    unused = {"dataclasses", "inspect", "frobstrat.strata", "frobstrat.local_frobenius"}
    assert not loaded & unused
    assert "json" in loaded  # printing JSON loads it
    argv = ("-m", "frobstrat", "canonical-polygon", "--format", "tsv")
    tsv = _imported_modules(child_env, *argv) - bare
    assert "frobstrat.polygons" in tsv
    assert not tsv & (unused | {"json"})


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--lambda", "1,0,0"),
        ("canonical-polygon",),
        ("verify-claims",),
        ("fiber-census",),
        ("strata-table",),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_without_fractions_never_import_it(child_env, argv):
    """Only ``polygons`` builds a Fraction; the other commands decide slopes
    and domination with integers and skip loading ``fractions``."""
    code = (
        "import sys, contextlib, io\n"
        "from frobstrat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
        "assert 'fractions' not in sys.modules, 'fractions imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr


#: argparse, and the gettext and locale that its first message loads.
PARSER_LIBRARIES = {"argparse", "gettext", "locale"}

#: One run of each command.
EVERY_COMMAND = [(name, "--lambda", "1,0,0") if name == "classify" else (name,) for name in COMMANDS]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_a_call_loads_no_parser_library(child_env, argv):
    """Each command runs without argparse, gettext or locale in
    ``sys.modules``."""
    code = (
        "import sys, contextlib, io\n"
        "from frobstrat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({list(argv)!r}) == 0\n"
        f"loaded = sorted(set({sorted(PARSER_LIBRARIES)!r}) & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr


def _function_from_imports(tree):
    """Lines of every absolute ``from M import N`` inside a function body.

    A relative import inside a function (the CLI handlers' ``from .strata
    import ...``) is left alone: it runs once per command."""
    return sorted(
        {
            node.lineno
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for node in ast.walk(func)
            if isinstance(node, ast.ImportFrom) and node.level == 0
        }
    )


def test_the_import_check_sees_every_form():
    source = (
        "from fractions import Fraction\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "    def g():\n"
        "        from math import gcd\n"
        "    from .strata import fiber_census\n"
        "    import fractions\n"
        "class C:\n"
        "    def m(self):\n"
        "        if self:\n"
        "            from json import dumps\n"
        "async def h():\n"
        "    from os import path\n"
    )
    assert _function_from_imports(ast.parse(source)) == [3, 5, 11, 13]


def _parser_imports(tree):
    """Lines of every import of a parser library, at any depth."""
    return sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] in PARSER_LIBRARIES for alias in node.names)
            or isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] in PARSER_LIBRARIES
        }
    )


def test_the_parser_import_check_sees_every_form():
    source = (
        "import argparse\n"
        "import os, locale\n"
        "from gettext import gettext\n"
        "from .argparse import x\n"
        "def f():\n"
        "    import argparse as ap\n"
        "    from argparse import ArgumentParser\n"
        "import argparsex\n"
    )
    assert _parser_imports(ast.parse(source)) == [1, 2, 3, 6, 7]


def _src_sites(check):
    """File name -> the lines ``check`` finds in each module of ``src/``."""
    src = Path(cli.__file__).resolve().parent
    return {
        path.name: lines
        for path in sorted(src.glob("*.py"))
        if (lines := check(ast.parse(path.read_text(encoding="utf-8"))))
    }


def test_src_imports_no_parser_library():
    """The CLI parses its own grammar: no module of ``src/`` imports
    argparse, whose import and first message (which loads gettext and
    locale) cost about 3.8 ms of every CLI call (CPython 3.11.7, 2 vCPUs)."""
    assert _src_sites(_parser_imports) == {}


def test_no_function_body_has_an_absolute_from_import():
    """A lazy import inside a function is ``import M`` and an attribute read.
    On CPython 3.11 ``from M import N`` of a plain module also looks up
    ``M.__path__`` and builds and discards an AttributeError on every call,
    about 0.95 us against 0.12 us, and the polygon walk makes one such call
    per polygon."""
    assert _src_sites(_function_from_imports) == {}


@pytest.mark.parametrize(
    "p,count", [(11, "28531167061"), (101, "(101^101 - 1)/100")], ids=["p11", "p101"]
)
def test_verify_claims_refuses_over_budget(child_env, p, count):
    from frobstrat.algebra import WORK_BUDGET

    argv = ("-m", "frobstrat", "verify-claims", "-p", str(p))
    proc = _run_capped(child_env, *argv, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert count in proc.stderr
    assert str(WORK_BUDGET) in proc.stderr


def test_verify_claims_at_p7_is_within_budget(child_env):
    argv = ("-m", "frobstrat", "verify-claims", "-p", "7", "--format", "tsv")
    proc = _run_capped(child_env, *argv)
    assert proc.returncode == 0, proc.stderr
    n = (7**7 - 1) // 6
    assert proc.stdout.splitlines() == [f"{c}\tpass\t{n}\t{n}" for c in "abcd"]


@pytest.mark.parametrize(
    "p,count", [(43, "1138984"), (101, "34683400")], ids=["p43", "p101"]
)
def test_classify_refuses_over_budget(child_env, p, count):
    """p^2(p^2 - 1)/3 tau monomials over the budget are refused before any
    profile is built (p = 101 took 41.6 s without the budget)."""
    from frobstrat.algebra import WORK_BUDGET

    argv = ("classify", "-p", str(p), "--lambda", ",".join(["1"] * p))
    proc = _run_capped(child_env, "-m", "frobstrat", *argv, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert f"{count} tau monomials" in proc.stderr
    assert str(WORK_BUDGET) in proc.stderr


def test_classify_at_p41_is_within_budget(child_env):
    argv = ("classify", "-p", "41", "--lambda", ",".join(["1"] * 41), "--format", "tsv")
    proc = _run_capped(child_env, "-m", "frobstrat", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip("\n").split("\t")[2:] == ["41"] * 40  # E1..E40


def test_canonical_polygon_refuses_over_budget(child_env):
    """p + 1 vertices over the budget are refused before any is built."""
    from frobstrat.algebra import WORK_BUDGET

    p = 1000000007  # prime; its vertices would take about 400 GiB
    argv = ("-m", "frobstrat", "canonical-polygon", "-p", str(p))
    proc = _run_capped(child_env, *argv, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert f"{p + 1} vertices" in proc.stderr
    assert str(WORK_BUDGET) in proc.stderr


@pytest.mark.parametrize("digits", [60, 100, 300])
def test_canonical_polygon_refuses_wide_coordinates(child_env, digits):
    """Each of the p + 1 vertices counts once per 64-bit word of its largest
    coordinate, so wide -g and -r are refused before any vertex is built:
    without that rule 60 digits took 683 MiB, 100 about 950 MiB, and 300
    died of a MemoryError traceback."""
    from frobstrat.algebra import WORK_BUDGET

    nines = "9" * digits
    argv = ("canonical-polygon", "-p", "999983", "-g", nines, "-r", nines, "--format", "tsv")
    proc = _run_capped(child_env, "-m", "frobstrat", *argv, timeout=30)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "Traceback" not in proc.stderr
    assert re.search(rf"has \d+ vertices, over the work budget of {WORK_BUDGET} vertices", proc.stderr)


def _probe_draws(seed=17):
    """Seeded argv from the CLI grammar: 1 + 3k draws of a command with k
    flags, each flag and ``--format`` present three times in four.  The
    format is json or tsv.  Half the other values present are ordinary: a
    small prime, genus, rank or degree, and a ``--lambda`` of the drawn p's
    length.  The other half are drawn from the flag's unusual values: on a
    gate's edge (the largest prime below
    ``PRIME_BOUND``, the bound, the work budget), 60 digits long or past
    int's 4,300-digit limit, negative, not prime or not integral."""
    import random

    from frobstrat.algebra import PRIME_BOUND, WORK_BUDGET

    many = "9" * 60
    ordinary = {
        "-p": ("2", "3", "5", "7"),
        "-g": ("2", "3"),
        "-r": ("2", "3", "4"),
        "-d": ("-1", "0", "1"),
        "--deg-line": ("-1", "0", "1"),
        "--format": ("json", "tsv"),
    }
    unusual = {
        "-p": ("0", "1", "4", "9", "-3", str(PRIME_BOUND - 11), str(PRIME_BOUND),
               str(PRIME_BOUND + 1), many, "-" + many),
        "-g": ("0", "1", "-1", "1000000", many, "-" + many),
        "-r": ("0", "1", "7", "-2", "1000", str(WORK_BUDGET), many),
        "-d": ("7", "-40", many, "-" + many, "9" * 5000),
        "--deg-line": ("-5", "40", many, "-" + many),
        "--lambda": ("0,0,0", "1", "1,2,3,4,5", "x,y", "", "1,,0", "-1,0,0",
                     many + ",0,0", "1.5,0,0"),
    }
    rng = random.Random(seed)
    draws = []
    for name, (_, flags, _) in COMMANDS.items():
        for _ in range(1 + 3 * len(flags)):
            argv, p = [name], 3
            for flag in (*flags, "--format"):
                if rng.random() < 0.25:
                    continue
                if flag in unusual and rng.random() < 0.5:
                    value = rng.choice(unusual[flag])
                elif flag == "--lambda":
                    value = ",".join(rng.choice("0123") for _ in range(p))
                else:
                    value = rng.choice(ordinary[flag])
                if flag == "-p" and value in ordinary["-p"]:
                    p = int(value)
                argv += [flag, value]
            draws.append(tuple(argv))
    return draws


@pytest.mark.parametrize("argv", _probe_draws(), ids=lambda argv: argv[0])
def test_drawn_command_lines_exit_cleanly(child_env, argv):
    """Every drawn command line runs or is refused: exit 0, 1 or 2 and no
    traceback, in a child capped at 1 GiB and 60 s, one child at a time."""
    proc = _run_capped(child_env, "-m", "frobstrat", *argv, timeout=60)
    assert proc.returncode in (0, 1, 2), (argv, proc.stderr[-2000:])
    assert "Traceback" not in proc.stderr, (argv, proc.stderr[-2000:])


#: Lines whose tokenization no golden pins: ``=`` and attached values,
#: unique prefixes of long options, a repeated flag (the last one wins), a
#: ``--`` before and after a command, values ``int()`` accepts in unusual
#: spellings, and a value past ``int()``'s 4,300-digit limit.
UNPINNED_LINES = [
    ("polygons", "--format=tsv"),
    ("polygons", "-p5"),
    ("polygons", "-p=5"),
    ("polygons", "--form", "tsv"),
    ("classify", "--la", "1,0,0"),
    ("classify", "--deg", "0", "--lambda", "1,0,0"),
    ("polygons", "-p", "3", "-p", "5"),
    ("--", "polygons"),
    ("polygons", "--"),
    ("-x", "polygons", "--"),
    ("polygons", "-p", " 5"),
    ("polygons", "-p", "5_0"),
    ("polygons", "-p", "+5"),
    ("polygons", "-p", "\u0665"),
    ("polygons", "-d", "9" * 5000),
]

#: Words the oracle draws are made of: flags and their prefixes, values,
#: and flags written with their value attached.
ORACLE_FLAGS = ("-h", "--help", "--he", "--h", "-p", "-g", "-r", "-d", "--deg-line", "--deg",
                "--d", "--lambda", "--la", "--l", "--format", "--form", "--f", "--", "-x",
                "--precision", "--=x", "-", "", "---p")
ORACLE_VALUES = ("0", "3", "5", "-1", "-1,0,0", "1,0,0", "0,0,1", "-1,0", "-1,-0", "1,,0", "x",
                 " 5", "5_0", "+5", "\u0665", "9" * 5000, "-5x", "-1.5", "-.5", "-5\n", "json",
                 "tsv", "xml", "-- x", "a b", "polygons")
ORACLE_ATTACHED = ("--format=tsv", "--format=", "--form=json", "-p5", "-p=5", "-p=", "-px",
                   "-g3", "-d-1", "--deg=0", "--lambda=-1,0,0", "--la=1,0,0", "-hx", "-hh",
                   "-hhx", "-hp", "-hp5", "-hd", "-h=", "-h=p", "--help=x", "--he=p5", "-p--",
                   "--format=--", "--lambda=--")
#: Characters of the drawn words that no list above holds.
ORACLE_CHARS = "-=hpgdfolamt10,. \n\u0665x"


def _oracle_draws(seed=36, count=5000):
    """``count`` seeded lines of up to six more words after a start: a
    command four times in five, else nothing, ``--`` and a command, or one
    drawn word.  Each further word is a flag and a value, a flag with its
    value attached, a flag alone, a value alone, or up to five characters
    drawn from :data:`ORACLE_CHARS`."""
    import random

    rng = random.Random(seed)
    words = ORACLE_FLAGS + ORACLE_VALUES + ORACLE_ATTACHED
    draws = []
    for _ in range(count):
        start = rng.random()
        if start < 0.8:
            argv = [rng.choice(list(COMMANDS))]
        elif start < 0.85:
            argv = []
        elif start < 0.9:
            argv = ["--", rng.choice(list(COMMANDS))]
        else:
            argv = [rng.choice(words)]
        for _ in range(rng.randrange(7)):
            kind = rng.random()
            if kind < 0.35:
                argv += [rng.choice(ORACLE_FLAGS), rng.choice(ORACLE_VALUES)]
            elif kind < 0.55:
                argv.append(rng.choice(ORACLE_ATTACHED))
            elif kind < 0.85:
                argv.append(rng.choice(ORACLE_FLAGS if kind < 0.7 else ORACLE_VALUES))
            else:
                argv.append("".join(rng.choice(ORACLE_CHARS) for _ in range(rng.randrange(6))))
        draws.append(tuple(argv))
    return draws


def _parse_outcome(parse, argv):
    """Exit code, stdout and stderr of ``parse(argv)``, with the parsed
    values, sorted, in place of stdout when it returns."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            values = parse(list(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()
    return None, sorted(values.items()), err.getvalue()


def _owned_parse(argv):
    if argv and argv[0] in COMMANDS:
        return cli._parse(argv[1:], argv[0])
    return cli._parse(argv)


def test_the_oracle_draws_hold_every_unpinned_line():
    assert len(set(_oracle_draws())) > 4000
    words = {word for argv in _oracle_draws() for word in argv}
    assert words >= {word for argv in UNPINNED_LINES for word in argv}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the CLI reads a line as argparse 3.11 does; other releases' argparse reads -hx otherwise",
)
def test_the_owned_parser_reads_every_line_as_argparse_does():
    """Exit code, stdout and stderr, or the parsed values, of the CLI's
    parser and of the argparse parser it replaced agree on every golden
    and probe line, every unpinned line and 5,000 seeded draws."""
    from oracles import argparse_parse

    lines = [
        *(line.split() for line in PARSER_GOLDEN),
        *_probe_draws(),
        *UNPINNED_LINES,
        *_oracle_draws(),
    ]
    differ = [
        argv
        for argv in lines
        if _parse_outcome(_owned_parse, argv) != _parse_outcome(argparse_parse, argv)
    ]
    assert differ == []


@pytest.mark.parametrize(
    "argv, code, error",
    [
        (["polygons", "-p--"], 1, "frobstrat polygons: error: argument -p: invalid int value: '--'\n"),
        (["polygons", "--format=--"], 1, "frobstrat polygons: error: argument --format: invalid "
         "choice: '--' (choose from 'json', 'tsv')\n"),
        (["classify", "--lambda=--"], 1, "frobstrat: --lambda expects comma-separated integers, "
         "got '--'\n"),
    ],
    ids=["p", "format", "lambda"],
)
def test_an_attached_double_dash_is_the_flag_value(capsys, argv, code, error):
    """``-p--`` and ``--format=--`` give the flag the value ``--``.  argparse
    dropped it and stored an empty list unconverted, so ``--format=--``
    printed TSV and ``classify --lambda=--`` died of an AttributeError."""
    try:
        assert main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(error)


def test_unpinned_lines_parse_to_their_values():
    """A few of the unpinned lines, read directly: the last of a repeated
    flag wins, an attached or ``=`` value is the flag's, and ``int()``'s
    spellings are ints."""
    for argv, p in [
        (("-p", "3", "-p", "5"), 5),
        (("-p5",), 5),
        (("-p=5",), 5),
        (("-p", " 5"), 5),
        (("-p", "5_0"), 50),
        (("-p", "+5"), 5),
        (("-p", "\u0665"), 5),
    ]:
        assert cli._parse(list(argv), "polygons")["p"] == p
    assert cli._parse(["--form", "tsv"], "polygons")["fmt"] == "tsv"
    assert cli._parse(["--la", "1,0,0", "--deg", "0"], "classify")["deg_line"] == 0


def _refused_at_the_budget(proc):
    from frobstrat.algebra import WORK_BUDGET

    assert proc.returncode == 1
    assert proc.stdout == ""
    assert re.search(rf"takes at least \d+ steps, over the work budget of {WORK_BUDGET} steps", proc.stderr)


def test_polygons_refuses_over_budget(child_env):
    """A walk past the budget's steps is refused (this command ran past 5 s
    under the 1 GiB cap without the budget)."""
    argv = ("-m", "frobstrat", "polygons", "-p", "13", "-g", "3", "-r", "10", "-d", "0")
    _refused_at_the_budget(_run_capped(child_env, *argv, timeout=60))


@pytest.mark.parametrize(
    "argv",
    [("-p", "3", "-g", "1000", "-r", "5000", "-d", "0"), ("-p", "2", "-g", "2", "-r", "22", "-d", "0")],
    ids=["p3-g1000-r5000", "p2-g2-r22"],
)
def test_polygons_refuses_a_walk_of_empty_windows(child_env, argv):
    """Windows pruned to chains that can still close are empty at most
    ranks here, so the walk pays a step for each rank it tries, not only
    for the chains it visits."""
    _refused_at_the_budget(_run_capped(child_env, "-m", "frobstrat", "polygons", *argv, timeout=30))


def test_a_wide_walk_is_refused_before_its_sort_keys(child_env):
    """At rank 10^5 the walk is refused before ``lcm(1..r)`` or any sort
    key is built: both raise in the child if they are reached."""
    code = """
import frobstrat.polygons as pl
from frobstrat.errors import InvalidParameters

def reached(*args):
    raise AssertionError("reached")

pl.lcm = pl.integer_heights = reached
try:
    pl.enumerate_frobenius_polygons(2, 2, 10**5, 0)
except InvalidParameters as err:
    print(err)
"""
    proc = _run_capped(child_env, "-c", code, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert "steps, over the work budget" in proc.stdout


def test_polygons_at_the_top_ladder_rung_is_within_budget(child_env):
    """(11, 3, 7, 0), the benchmark's largest rung, takes 57,408 steps."""
    argv = ("-m", "frobstrat", "polygons", "-p", "11", "-g", "3", "-r", "7", "-d", "0")
    proc = _run_capped(child_env, *argv, "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 5766


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_polygons_at_p13_rank8_is_within_budget(child_env):
    """(13, 3, 8, 0) runs in about 0.9 s and 26-28 MiB in either format:
    the payload holds the polygons' own vertex tuples and only the printed
    format is rendered."""
    argv = ["polygons", "-p", "13", "-g", "3", "-r", "8", "-d", "0", "--format"]
    recorded = {
        "json": "5f38185e83fd64c93fe2759c593c5aaf7d9c0880c74c762bf9b821e25f2722b0",
        "tsv": "750c8014175462836f4a12597048e452552322345b2e465f02d86676d66283c5",
    }
    for fmt, sha in recorded.items():
        code, out, peak_mib = _run_main_capped(child_env, [*argv, fmt], timeout=30)
        assert code == 0
        assert _sha256(out) == sha
        assert peak_mib <= 37, f"{fmt}: {peak_mib:.1f} MiB"
    assert len(out.splitlines()) == 29426  # the TSV, run last


@pytest.mark.parametrize(
    "fmt, size, sha, peak_bound",
    [
        ("json", 22552792, "ce58e5a6a7847f4f0d12e4d37bc2e244a3c348f86b6955c6141b10298f8f4da4", 280),
        ("tsv", 20552795, "09d4ca1fab72a0343cae14576c62c51dc753fc0ab352d15c75418a8e02fc22e8", 290),
    ],
    ids=["json", "tsv"],
)
def test_canonical_polygon_at_the_largest_admitted_p(child_env, fmt, size, sha, peak_bound):
    """p = 999983, the largest prime whose p + 1 vertices the budget admits,
    runs in about 1.1 s and 210 MiB (JSON) or 264 MiB (TSV)."""
    argv = ["canonical-polygon", "-p", "999983", "--format", fmt]
    code, out, peak_mib = _run_main_capped(child_env, argv, timeout=60)
    assert code == 0
    assert (len(out.encode()), _sha256(out)) == (size, sha)
    assert peak_mib <= peak_bound, f"{peak_mib:.1f} MiB"


@pytest.mark.parametrize(
    "argv, recorded",
    [
        (["polygons"], "9e399dc5698433cbfa92e038261b5dc0a3407aa6783769f7f65096ecb7c9136a"),
        (["classify", "--lambda", "1,0,0"],
         "b22b68071975c5eafa113ed8210f81dfbd0fcfe91cafa98af9cb366f27597201"),
        (["fiber-census"], "ddfd842786874ac5c25b21d998d1e572dd05be5dcfb510cd0684a29814ac84d6"),
        (["strata-table"], "50060bbbee06627bc5dbcc5a5e22a1576eddd8175c451a06e9874e84a4490129"),
        (["canonical-polygon"], "e019d9562f2410718e53501c27b21bfc89eacdbdfc22746cfa76a87c5e2cff61"),
        (["verify-claims"], "88ab97af07da2ced3506818efdafd64c4ca4aaa3d3de0eb22e4fe9d44c7d4fa5"),
    ],
    ids=["polygons", "classify", "fiber-census", "strata-table", "canonical-polygon", "verify-claims"],
)
def test_tsv_lines_are_rendered_only_under_tsv(capsys, monkeypatch, argv, recorded):
    """JSON output, whose SHA-256 is recorded, never formats a TSV cell, and
    under ``--format tsv`` ``main`` formats cells only after the handler
    has returned."""
    help_line, flags, handler = COMMANDS[argv[0]]
    returned = []

    class Rendered(Exception):
        pass

    def traced_handler(args):
        result = handler(args)
        returned.append(argv[0])
        return result

    def render(value):
        assert returned, "a cell was formatted before the handler returned"
        raise Rendered

    monkeypatch.setitem(COMMANDS, argv[0], (help_line, flags, traced_handler))
    monkeypatch.setattr(cli, "_cell", render)
    code, out, _ = run_cli(capsys, [*argv, "--format", "json"])
    assert (code, _sha256(out)) == (0, recorded)
    returned.clear()
    with pytest.raises(Rendered):
        main([*argv, "--format", "tsv"])


@pytest.mark.parametrize(
    "argv",
    [["fiber-census"], ["polygons", "-p", "7", "-g", "3", "-r", "6", "-d", "1", "--format", "tsv"]],
    ids=["fiber-census-json", "polygons-tsv"],
)
def test_a_closed_stdout_exits_one_without_a_traceback(child_env, argv):
    """A reader that has already gone, as in ``frobstrat ... | head -1``:
    the write fails, and the command exits 1 with nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "frobstrat", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_huge_p_is_refused_by_the_primality_bound(child_env):
    """Trial division of a 25-digit -p would run for days; it is refused."""
    from frobstrat.algebra import PRIME_BOUND

    p = str(10**24 + 7)
    for argv in (("polygons", "-p", p), ("classify", "-p", p, "--lambda", "1")):
        proc = _run_capped(child_env, "-m", "frobstrat", *argv, timeout=30)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert str(PRIME_BOUND) in proc.stderr
