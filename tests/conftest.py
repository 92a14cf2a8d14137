import os
from pathlib import Path

import pytest

from shortcycles.dickman import DickmanEvaluator

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="session")
def dickman():
    """Shared evaluator so panel construction is paid once per session."""
    return DickmanEvaluator()


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports ``shortcycles`` from this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env
