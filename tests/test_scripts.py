"""The example scripts run end to end, and every public name resolves.

The scripts under ``scripts/`` import the package's public names and are
run by hand, so a renamed or deleted name would otherwise break them
unnoticed.  Each module's ``__all__`` lists the names that other code (and
tracing wrappers that walk ``__all__``) may look up on it.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inarlim

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["inarlim"] + [
    f"inarlim.{path.stem}" for path in sorted((ROOT / "src" / "inarlim").glob("*.py"))
    if path.stem != "__init__"
]


@pytest.mark.parametrize(
    "script, args",
    [
        ("hawkes_demo.py", ["--n", "200", "--reps", "5"]),
        ("mdp_curve_sweep.py", ["--horizons", "1000,10000"]),
        ("simulate_timing.py", ["--horizons", "5,20", "--repeats", "1"]),
        ("recursion_timing.py", ["--horizons", "5,20", "--repeats", "1"]),
        ("theory_timing.py", ["--models", "1", "--repeats", "1"]),
    ],
)
def test_example_script_runs(script, args):
    src = str(Path(inarlim.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
