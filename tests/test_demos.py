"""Every demo script and every README example runs as documented, and
each demo prints its recorded stdout."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_STDOUT = Path(__file__).resolve().parent / "demo_stdout"
README = (ROOT / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
CLI_SECTION = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
SH_BLOCKS = re.findall(r"^```sh\n(.*?)^```", CLI_SECTION, re.M | re.S)
#: The commands the CLI section lists, without their trailing comments.
CLI_COMMANDS = [line.split("#")[0].strip() for line in SH_BLOCKS[0].splitlines()]
#: The example: a ``$ `` command line followed by the stdout it prints.
EXAMPLE_COMMAND, EXAMPLE_STDOUT = SH_BLOCKS[1].split("\n", 1)
#: The per-command flag list: the bullets of the paragraph "Flags by command".
FLAG_LIST = CLI_SECTION.split("\nFlags by command", 1)[1].split("\n\n", 2)[1]


def run(args, child_env):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=child_env,
        timeout=120,
    )


def run_cli(command, child_env):
    program, *args = shlex.split(command)
    assert program == "frobstrat"
    return run(["-m", "frobstrat", *args], child_env)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, child_env):
    """Each demo exits 0 and prints, byte for byte, the stdout recorded in
    ``tests/demo_stdout/<name>.txt``."""
    proc = run([str(demo)], child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DEMO_STDOUT / f"{demo.stem}.txt").read_text()


@pytest.mark.parametrize(
    "code", PYTHON_BLOCKS, ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))]
)
def test_readme_python_block_runs(code, child_env):
    proc = run(["-c", code], child_env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", CLI_COMMANDS)
def test_readme_cli_command_exits_zero(command, child_env):
    proc = run_cli(command, child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_cli_example_prints_its_stdout(child_env):
    assert EXAMPLE_COMMAND.startswith("$ ")
    proc = run_cli(EXAMPLE_COMMAND[2:], child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXAMPLE_STDOUT


def test_readme_flag_list_matches_the_cli():
    from frobstrat.cli import COMMANDS

    listed = {
        command: re.findall(r"`(-[-a-z]+)`", flags)
        for command, flags in re.findall(r"^- `([a-z-]+)`: (.*)$", FLAG_LIST, re.M)
    }
    assert listed == {name: list(names) for name, (_, names, _) in COMMANDS.items()}
