import os
from pathlib import Path

import pytest


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the same frobstrat."""
    import frobstrat

    src = str(Path(frobstrat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
