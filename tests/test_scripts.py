"""The example scripts run end to end, and every public name resolves.

The scripts under ``scripts/`` import the package's public names and are
run by hand, so a renamed or deleted name would otherwise break them
unnoticed.  Each module's ``__all__`` lists the names that other code (and
tracing wrappers that walk ``__all__``) may look up on it.
"""

import importlib
import os
import re
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
    ],
)
def test_example_script_runs(script, args):
    assert _run_script(script, args)


FIXTURES = ["hawkes", "ar1", "two_lag", "finite_mix", "power_law"]
QUERIES = ["critical_tilt", "tilt_fixed_point", "limit_cgf", "ldp_rate"]


@pytest.mark.parametrize(
    "layer, args, header, rows",
    [
        (
            "simulate",
            ["--horizons", "5,20", "--repeats", "1"],
            ["kernel", "n = 5 (ms)", "n = 20 (ms)"],
            FIXTURES + ["binomial_lag", "poisson_imm", "two_poisson_lags", "geometric_lag", "staircase",
                        "hawkes_0.9", "hawkes_0.95", "power_law_0.9_imm10"],
        ),
        (
            "recursion",
            ["--horizons", "5,20", "--repeats", "1"],
            ["kernel", "tilt n = 5 (ms)", "tilt n = 20 (ms)", "tables n = 5 (ms)", "tables n = 20 (ms)"],
            FIXTURES + ["ar1_0.99999"],
        ),
        (
            "theory",
            ["--models", "1", "--repeats", "1"],
            ["models"] + [f"{q} (us)" for q in QUERIES] + [f"{q} evals" for q in QUERIES],
            FIXTURES + ["bernoulli x1", "binomial x1", "finite x1", "geometric x1", "power_law x1"],
        ),
    ],
    ids=["simulate", "recursion", "theory"],
)
def test_layer_timing_prints_each_layers_header_and_rows(layer, args, header, rows):
    """Each layer's table starts with the benchmark's five fixtures and keeps its header and rows."""
    lines = _run_script("layer_timing.py", [layer, *args]).splitlines()
    assert lines[0].strip("| ").split(" | ") == header
    assert lines[1] == "|---|" + "---:|" * (len(header) - 1)
    assert [line.split(" | ")[0].strip("| ") for line in lines[2:]] == rows


def test_recursion_timing_times_the_tables_at_their_own_horizons():
    args = ["recursion", "--horizons", "5", "--table-horizons", "7,30", "--repeats", "1"]
    out = _run_script("layer_timing.py", args)
    cells = out.splitlines()[0].strip("| ").split(" | ")
    assert cells == ["kernel", "tilt n = 5 (ms)", "tables n = 7 (ms)", "tables n = 30 (ms)"]


def test_output_fingerprint_lists_the_records_that_differ(tmp_path):
    out = _run_script("output_fingerprint.py", [])
    lines = out.splitlines()
    names = [line.split(" ")[0] for line in lines]
    assert len(set(names)) == len(lines) > 10_000
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines)
    assert "hawkes/cli_theory" in names and "p11_power_law4/tilt_recursion/theta=-0.0/n=300" in names
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text(out + "\n")
    lines[7] = lines[7].split(" ")[0] + " " + "0" * 64
    second.write_text("\n".join(lines) + "\n")
    script = str(ROOT / "scripts" / "output_fingerprint.py")
    same = subprocess.run([sys.executable, script, "--diff", str(first), str(first)],
                          capture_output=True, text=True, timeout=60)
    assert (same.returncode, same.stdout) == (0, "")
    differ = subprocess.run([sys.executable, script, "--diff", str(first), str(second)],
                            capture_output=True, text=True, timeout=60)
    assert (differ.returncode, differ.stdout) == (1, names[7] + "\n")


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
