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
