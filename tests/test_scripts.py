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
    assert _run_script(script, args)


def test_recursion_timing_times_the_tables_at_their_own_horizons():
    out = _run_script("recursion_timing.py", ["--horizons", "5", "--table-horizons", "7,30", "--repeats", "1"])
    cells = out.splitlines()[0].strip("| ").split(" | ")
    assert cells == ["kernel", "tilt n = 5 (ms)", "tables n = 7 (ms)", "tables n = 30 (ms)"]


def _run_script(script, args) -> str:
    """The script's standard output, once it has exited with status 0."""
    src = str(Path(inarlim.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
