import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, src_env):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=120, env=src_env
    )
    assert result.returncode == 0, result.stderr
