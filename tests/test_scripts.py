"""Smoke test: the bundled scripts run to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["random_invariance.py", "--rounds", "5", "--seed", "0"],
    ["hypersurface_survey.py", "--dilations", "3"],
    ["cone_gallery.py"],
])
def test_script_exits_zero(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0])] + argv[1:],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
