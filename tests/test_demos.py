"""Demos: every script in ``demos/`` runs to completion.

Each demo runs in a fresh interpreter with the package on ``PYTHONPATH``
and numpy's ``RuntimeWarning`` raised as an error, so a renamed public name
or a warning on the way fails here rather than in a user's hands.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
