"""The exit code and standard output of accepted ``inarlim`` invocations, byte for byte.

The invocations are the benchmark's CLI calls, each comma-list flag given
an empty list (which means the flag's default), and ``recursion`` and
``validate --checks mdp`` with their number flags left to their defaults.
Each golden file holds ``exit <code>`` and then the standard output, with
the report runtimes zeroed.
"""

import json
import re
from pathlib import Path

import pytest

from inarlim.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

SPECS = {
    # the benchmark's CLI model
    "smoke": {
        "immigration": {"type": "bernoulli", "p": 0.5},
        "offspring": {"type": "explicit", "laws": [{"type": "bernoulli", "p": 0.3}]},
    },
    "ar1": {
        "immigration": {"type": "bernoulli", "p": 0.5},
        "offspring": {"type": "explicit", "laws": [{"type": "bernoulli", "p": 0.4}]},
    },
    "hawkes": {
        "immigration": {"type": "poisson", "lambda": 1.0},
        "offspring": {"type": "poisson_family",
                      "decay": {"type": "geometric", "c": 0.25, "r": 0.5}},
    },
}

INVOCATIONS = {
    "validate_lln_bench": ("smoke", ["validate", "--checks", "lln", "--n", "50", "--reps", "5",
                                     "--seed", "11", "--format", "csv"]),
    "validate_oracle_bench": ("smoke", ["validate", "--checks", "oracle", "--n", "3",
                                        "--format", "csv"]),
    "theory_x_grid_bench": ("hawkes", ["theory", "--x-grid", "0.5,2.0,3.5"]),
    "validate_checks_empty": ("smoke", ["validate", "--checks", ",", "--n", "50", "--reps", "5",
                                        "--seed", "11"]),
    "theory_x_grid_empty": ("hawkes", ["theory", "--x-grid", ","]),
    "validate_theta_grid_empty": ("hawkes", ["validate", "--checks", "gamma", "--theta-grid", ",",
                                             "--n", "50", "--reps", "20", "--seed", "3"]),
    "recursion_horizons_empty": ("hawkes", ["recursion", "--what", "mdp-curve", "--theta", "1.0",
                                            "--horizons", ","]),
    "recursion_defaults": ("ar1", ["recursion"]),
    "recursion_tilt_defaults": ("hawkes", ["recursion", "--what", "tilt"]),
    "recursion_gbar_defaults": ("ar1", ["recursion", "--what", "gbar"]),
    "recursion_mdp_curve_defaults": ("hawkes", ["recursion", "--what", "mdp-curve"]),
    "validate_mdp_defaults": ("hawkes", ["validate", "--checks", "mdp", "--n", "100",
                                         "--seed", "1"]),
}


def _run(name: str, tmp_path, capsys) -> str:
    model, argv = INVOCATIONS[name]
    path = tmp_path / f"{model}.json"
    path.write_text(json.dumps(SPECS[model]))
    capsys.readouterr()
    code = main(argv + ["--model", str(path)])
    out = re.sub(r'"runtime_seconds": [0-9.e+-]+', '"runtime_seconds": 0', capsys.readouterr().out)
    return f"exit {code}\n{out}"


@pytest.mark.parametrize("name", INVOCATIONS)
def test_accepted_invocation_output_pinned(name, tmp_path, capsys):
    assert _run(name, tmp_path, capsys) == (GOLDEN / f"{name}.txt").read_text()
