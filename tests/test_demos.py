"""The quick demos run to the end.  ``04_hardness_gadgets.py`` takes several
seconds and is left out; the reduction tests cover what it shows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK = ("01_playing_and_updating.py", "02_solving_and_outcomes.py",
         "03_size2_fast_path.py")


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", QUICK)
def test_demo_runs(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr
    if name.startswith("03"):
        assert "agreement: 2000/2000" in done.stdout
