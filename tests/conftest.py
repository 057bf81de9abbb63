import os
import sys
from pathlib import Path

import pytest

# Allows `import oracles` from every test module regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports the same frobstrat."""
    import frobstrat

    src = str(Path(frobstrat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
