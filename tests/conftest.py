import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the same frobstrat."""
    import frobstrat

    src = str(Path(frobstrat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _run_capped(env, *args, timeout=60):
    """``python *args`` in a child whose address space is capped at 1 GiB,
    so a call whose memory grows with its input fails instead of taking the
    machine's memory."""
    cap = 1 << 30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        timeout=timeout,
    )


def _run_main_capped(env, argv, timeout=60):
    """``frobstrat.cli.main(argv)`` in a child capped as in :func:`_run_capped`.

    Returns the exit code, the stdout and the child's peak RSS in MiB, which
    the child prints as the last line of its stderr once ``main`` has
    returned; that line is stripped here.  The peak is ``VmHWM``, the high
    water mark of the child's own address space: ``getrusage``'s
    ``ru_maxrss`` would also count the test process it was forked from,
    as Linux carries that mark across ``exec``.
    """
    code = (
        "import sys\n"
        "from frobstrat.cli import main\n"
        f"code = main({list(argv)!r})\n"
        "with open('/proc/self/status') as status:\n"
        "    print(*[l.split()[1] for l in status if l.startswith('VmHWM:')], file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = _run_capped(env, "-c", code, timeout=timeout)
    hwm_kib = (proc.stderr.splitlines() or [""])[-1]
    assert hwm_kib.isdigit(), proc.stderr
    return proc.returncode, proc.stdout, int(hwm_kib) / 1024
