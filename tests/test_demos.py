"""Every demo runs to the end; the twin demo prints its removed pairs and
fixpoint, the solving demo its stats block, and the hardness-gadget demo
(about 2 s) its verdicts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_playing_and_updating.py", "02_solving_and_outcomes.py",
         "03_size2_fast_path.py", "04_hardness_gadgets.py")
TWIN_LINES = (
    "  removed pairs: [('a', 'b'), ('x', 'y')]\n",
    "  fixpoint: Game(vertices=['z'], blue=[], red=[])\n",
)
GADGET_VERDICTS = (
    "  Left first, full search: Draw (satisfiable formulas draw, never win)\n",
    "  Left vs the fixed Right strategy: CanonicalRightResult.LEFT_NON_LOSING\n",
    "  Left first: LeftWin\n",
    "  draw gadget vs fixed Right: CanonicalRightResult.RIGHT_WINS\n",
    "  valuation game winner: QbfWinner.SATISFIER\n",
    "  Left as second player: Draw\n",
)


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr
    if name.startswith("01"):
        for line in TWIN_LINES:
            assert line in done.stdout
    if name.startswith("02"):
        # The stats block ends with the symmetry rule's two counters.
        assert done.stdout.endswith("  symmetry_cutoffs: 0\n  symmetry_attempts: 0\n")
    if name.startswith("03"):
        assert "agreement: 2000/2000" in done.stdout
    if name.startswith("04"):
        for line in GADGET_VERDICTS:
            assert line in done.stdout
        assert done.stdout.count("forced at every step: True") == 4
