import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import inarlim.cli
import inarlim.model
import inarlim.montecarlo
import inarlim.oracle
from inarlim import critical_tilt, mdp_rate, model_from_spec
from inarlim.cli import main

H1_SPEC = {
    "immigration": {"type": "poisson", "lambda": 1.0},
    "offspring": {"type": "poisson_family", "decay": {"type": "geometric", "c": 0.25, "r": 0.5}},
}
B1_SPEC = {
    "immigration": {"type": "bernoulli", "p": 0.5},
    "offspring": {"type": "explicit", "laws": [{"type": "bernoulli", "p": 0.4}]},
}
SUPERCRITICAL_SPEC = {
    "immigration": {"type": "poisson", "lambda": 1.0},
    "offspring": {"type": "poisson_family", "decay": {"type": "geometric", "c": 0.6, "r": 0.5}},
}


@pytest.fixture
def h1_path(tmp_path):
    path = tmp_path / "h1.json"
    path.write_text(json.dumps(H1_SPEC))
    return str(path)


@pytest.fixture
def b1_path(tmp_path):
    path = tmp_path / "b1.json"
    path.write_text(json.dumps(B1_SPEC))
    return str(path)


def test_theory_constants(h1_path, tmp_path, capsys):
    out = tmp_path / "theory.json"
    code = main(["theory", "--model", h1_path, "--x-grid", "1.0,2.0,3.0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mu"] == pytest.approx(2.0)
    assert payload["sigma2"] == pytest.approx(8.0)
    assert payload["theta_c"] == pytest.approx(0.19315, abs=1e-5)
    assert payload["theta_c_attained"] is True
    assert payload["I"][1]["value"] == 0.0
    assert payload["J"][0]["value"] == pytest.approx(0.0625)


def test_theory_checks_the_assumptions_once_per_ldp_rate(h1_path, monkeypatch, capsys):
    m = model_from_spec(H1_SPEC)
    critical_tilt(m)  # cached from here on
    calls = []
    real = inarlim.model.validate
    monkeypatch.setattr(inarlim.model, "validate", lambda model: calls.append(model) or real(model))
    assert main(["theory", "--model", h1_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    # the summary, then one per LDP rate; the MDP rates read sigma2 from the summary
    assert len(payload["I"]) == 8
    assert len(calls) == 9
    assert [pt["value"] for pt in payload["J"]] == [mdp_rate(m, pt["x"]) for pt in payload["J"]]


def test_theory_round_trip(h1_path, tmp_path):
    out1 = tmp_path / "a.json"
    main(["theory", "--model", h1_path, "--x-grid", "0.8,1.6,2.4", "--out", str(out1)])
    first = json.loads(out1.read_text())
    grid = ",".join(str(pt["x"]) for pt in first["I"])
    out2 = tmp_path / "b.json"
    main(["theory", "--model", h1_path, "--x-grid", grid, "--out", str(out2)])
    assert json.loads(out2.read_text()) == first


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"immigration": \n  oops')
    code = main(["theory", "--model", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.json:2" in err


def test_unknown_keys_exit_2(tmp_path):
    spec = dict(H1_SPEC)
    spec["extra"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(spec))
    assert main(["theory", "--model", str(path)]) == 2


def test_supercritical_exits_3_naming_assumption(tmp_path, capsys):
    path = tmp_path / "super.json"
    path.write_text(json.dumps(SUPERCRITICAL_SPEC))
    code = main(["theory", "--model", str(path)])
    assert code == 3
    assert "(a)" in capsys.readouterr().err


def test_bad_grid_exits_2_before_model_computation(tmp_path, capsys):
    # the grid is rejected as usage (2) before the supercritical model (3) is examined
    path = tmp_path / "super.json"
    path.write_text(json.dumps(SUPERCRITICAL_SPEC))
    code = main(["theory", "--model", str(path), "--x-grid", "1,abc"])
    assert code == 2
    assert "--x-grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "immigration, decay",
    [
        ({"type": "bernoulli", "p": "0.5"}, {"type": "geometric", "c": 0.25, "r": 0.5}),
        ({"type": "poisson", "lambda": None}, {"type": "geometric", "c": 0.25, "r": 0.5}),
        ({"type": "binomial", "m": True, "p": 0.5}, {"type": "geometric", "c": 0.25, "r": 0.5}),
        ({"type": "finite_support", "probs": 3}, {"type": "geometric", "c": 0.25, "r": 0.5}),
        ({"type": "finite_support", "probs": ["0.5", 0.5]}, {"type": "geometric", "c": 0.25, "r": 0.5}),
        ({"type": "poisson", "lambda": 1.0}, {"type": "geometric", "c": 0.25, "r": "x"}),
        ({"type": "poisson", "lambda": 1.0}, {"type": "finite_list", "values": 3}),
        ({"type": "constant", "value": math.inf}, {"type": "geometric", "c": 0.25, "r": 0.5}),
        ({"type": "poisson", "lambda": 1.0}, {"type": "geometric", "c": math.nan, "r": 0.5}),
        ({"type": ["poisson"], "lambda": 1.0}, {"type": "geometric", "c": 0.25, "r": 0.5}),
        ({"type": "poisson", "lambda": 1.0}, {"type": {"g": 1}, "c": 0.25, "r": 0.5}),
        ({"type": "poisson", "lambda": 10**400}, {"type": "geometric", "c": 0.25, "r": 0.5}),
        ({"type": "poisson", "lambda": 1.0}, {"type": "geometric", "c": 10**400, "r": 0.5}),
        ({"type": "constant", "value": 10**400}, {"type": "geometric", "c": 0.25, "r": 0.5}),
    ],
    ids=["p-string", "lambda-null", "m-bool", "probs-number", "probs-string-entry", "r-string",
         "values-number", "value-infinity", "c-nan", "type-list", "decay-type-object",
         "lambda-huge-int", "c-huge-int", "value-huge-int"],
)
def test_wrong_spec_types_exit_2(tmp_path, capsys, immigration, decay):
    spec = {"immigration": immigration, "offspring": {"type": "poisson_family", "decay": decay}}
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(spec))
    assert main(["theory", "--model", str(path)]) == 2
    assert "must be a" in capsys.readouterr().err


def test_explicit_laws_must_be_a_list(tmp_path):
    spec = {"immigration": {"type": "poisson", "lambda": 1.0},
            "offspring": {"type": "explicit", "laws": 3}}
    path = tmp_path / "laws.json"
    path.write_text(json.dumps(spec))
    assert main(["theory", "--model", str(path)]) == 2


def test_simulate_reproducible_files(b1_path, tmp_path, capsys):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert main(["simulate", "--model", b1_path, "--n", "100", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["simulate", "--model", b1_path, "--n", "100", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    assert out1.read_text().startswith("t,x\n")
    assert "seed: 7" in capsys.readouterr().err


def test_simulate_batch_rows(b1_path, tmp_path):
    out = tmp_path / "batch.csv"
    assert main(["simulate", "--model", b1_path, "--n", "50", "--reps", "12", "--seed", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rep,s_n,x_n,m_n"
    assert len(lines) == 13


def test_simulate_draws_and_reports_seed(b1_path, tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["simulate", "--model", b1_path, "--n", "10", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "seed:" in err and "entropy" in err


def test_validate_oracle_and_cesaro(b1_path, tmp_path, capsys):
    prefix = str(tmp_path / "rep")
    code = main(["validate", "--model", b1_path, "--checks", "oracle", "--n", "4",
                 "--seed", "1", "--out", prefix, "--format", "csv"])
    assert code == 0
    assert (tmp_path / "rep.oracle.json").exists()
    assert (tmp_path / "rep.oracle_law.csv").read_text().startswith("s,prob\n")
    summary = (tmp_path / "rep.summary.csv").read_text().splitlines()
    assert summary[0] == "theorem,n,reps,seed,passed"
    assert summary[1].startswith("oracle,4,")
    capsys.readouterr()
    code = main(["validate", "--model", b1_path, "--checks", "cesaro", "--n", "30000",
                 "--seed", "1"])
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert reports[0]["theorem"] == "cesaro"
    assert reports[0]["passed"] is True


def test_oracle_law_enumerated_once_per_horizon(b1_path, tmp_path, monkeypatch):
    # one dynamic-programming pass visits horizons 1..4 in turn, and no law is enumerated again
    calls = []
    real = inarlim.oracle._dp_states
    monkeypatch.setattr(inarlim.oracle, "_dp_states", lambda m, n: calls.append(n) or real(m, n))
    prefix = str(tmp_path / "rep")
    assert main(["validate", "--model", b1_path, "--checks", "oracle", "--n", "4",
                 "--seed", "1", "--out", prefix, "--format", "csv"]) == 0
    assert calls == [4]
    assert (tmp_path / "rep.oracle_law.csv").read_text().startswith("s,prob\n")


def test_validate_cesaro_on_tables_at_their_limits_within_rounding(tmp_path, capsys):
    # g2 passes its limit by an ulp here; the bound check allows for rounding
    spec = {
        "immigration": {"type": "bernoulli", "p": 0.7311837167794242},
        "offspring": {"type": "explicit", "laws": [{"type": "bernoulli", "p": 0.3557678206729456}]},
    }
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(spec))
    assert main(["validate", "--model", str(path), "--checks", "cesaro", "--seed", "1"]) == 0
    # at n = 51 the check runs and reports its verdict: the g1 Cesaro mean is 1.08% off,
    # outside the 1% tolerance
    capsys.readouterr()
    assert main(["validate", "--model", str(path), "--checks", "cesaro", "--n", "51",
                 "--seed", "1", "--format", "csv"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == "cesaro,51,0,0,0"


GOLDEN = Path(__file__).parent / "golden"


def _without_runtime(text: str) -> str:
    return re.sub(r'"runtime_seconds": [0-9.e+-]+', '"runtime_seconds": 0', text)


def test_validate_cesaro_oracle_outputs_pinned(b1_path, tmp_path, capsys):
    """Every output of the deterministic checks on the AR(1) fixture, apart from runtimes."""
    golden = GOLDEN / "ar1_cesaro_oracle"
    prefix = str(tmp_path / "rep")
    code = main(["validate", "--model", b1_path, "--checks", "cesaro,oracle", "--seed", "1",
                 "--out", prefix])
    assert code == 0
    captured = capsys.readouterr()
    assert _without_runtime(captured.out) == (golden / "stdout.json").read_text()
    assert captured.err == (golden / "stderr.txt").read_text()
    for name in ("rep.cesaro.json", "rep.oracle.json", "rep.summary.csv", "rep.oracle_law.csv"):
        assert _without_runtime((tmp_path / name).read_text()) == (golden / name).read_text(), name


# Models of the pinned ``theory`` output: theta_c attained, not attained, a power law, and
# no offspring at all (theta_c infinite)
THEORY_SPECS = {
    "hawkes": H1_SPEC,
    "ar1": B1_SPEC,
    "power_law": {
        "immigration": {"type": "poisson", "lambda": 1.0},
        "offspring": {"type": "poisson_family", "decay": {"type": "power_law", "c": 0.3, "a": 2.0}},
    },
    "poisson_immigration": {
        "immigration": {"type": "poisson", "lambda": 1.0},
        "offspring": {"type": "explicit", "laws": []},
    },
}


@pytest.mark.parametrize("name", THEORY_SPECS)
def test_theory_outputs_pinned(name, tmp_path, capsys):
    """The ``theory`` command's standard output on its default grid, byte for byte."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(THEORY_SPECS[name]))
    assert main(["theory", "--model", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN / "theory" / f"{name}.json").read_text()
    assert captured.err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--checks", "oracle", "--n", "-3", "--seed", "1"],
        ["validate", "--checks", "oracle", "--n", "0", "--seed", "1"],
        ["validate", "--checks", "lln", "--n", "-3", "--seed", "1"],
        ["validate", "--checks", "cesaro", "--n", "-3", "--seed", "1"],
        ["validate", "--checks", "lln", "--reps", "-2", "--seed", "1"],
        ["validate", "--checks", "lln", "--reps", "0", "--seed", "1"],
        ["simulate", "--n", "0", "--seed", "1"],
        ["recursion", "--n", "-1"],
    ],
    ids=["oracle-n-negative", "oracle-n-zero", "lln-n-negative", "cesaro-n-negative",
         "reps-negative", "reps-zero", "simulate-n-zero", "recursion-n-negative"],
)
def test_sizes_below_one_exit_2_before_model_computation(tmp_path, capsys, argv):
    # the supercritical model would exit 3 if it were examined first
    path = tmp_path / "super.json"
    path.write_text(json.dumps(SUPERCRITICAL_SPEC))
    assert main(argv + ["--model", str(path)]) == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["theory", "--seed", "1"],
        ["theory", "--n", "5"],
        ["recursion", "--reps", "5"],
        ["recursion", "--seed", "1"],
        ["recursion", "--theta", "nan"],
        ["recursion", "--what", "mdp-curve", "--beta", "inf"],
        ["validate", "--checks", "mdp", "--x=-inf"],
        ["theory", "--x-grid", "1,nan"],
        ["validate", "--checks", "gamma", "--theta-grid", "0.1,inf"],
    ],
    ids=["theory-seed", "theory-n", "recursion-reps", "recursion-seed", "theta-nan", "beta-inf",
         "x-negative-inf", "x-grid-nan", "theta-grid-inf"],
)
def test_unread_options_and_non_finite_numbers_exit_2(tmp_path, capsys, argv):
    """A subcommand takes only the options it reads, and every number it takes is finite."""
    path = tmp_path / "super.json"
    path.write_text(json.dumps(SUPERCRITICAL_SPEC))
    try:
        code = main(argv + ["--model", str(path)])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_nothing_carries_over_between_calls(b1_path, tmp_path, capsys):
    prefix = tmp_path / "first"
    assert main(["validate", "--model", b1_path, "--checks", "oracle", "--n", "3",
                 "--format", "csv", "--out", str(prefix)]) == 0
    written = sorted(tmp_path.iterdir())
    capsys.readouterr()
    argv = ["validate", "--model", b1_path, "--checks", "lln", "--n", "50", "--reps", "5",
            "--seed", "5"]
    code = main(argv)
    captured = capsys.readouterr()
    assert sorted(tmp_path.iterdir()) == written
    src = str(Path(__file__).resolve().parents[1] / "src")
    fresh = subprocess.run(
        [sys.executable, "-m", "inarlim.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert code == fresh.returncode
    assert _without_runtime(captured.out) == _without_runtime(fresh.stdout)
    assert captured.err == fresh.stderr


def test_validate_exit_1_on_failure(h1_path, tmp_path):
    # the coarse empirical tail check at desk scale: structurally out of band
    code = main(["validate", "--model", h1_path, "--checks", "mdp", "--n", "1000",
                 "--seed", "11"])
    assert code == 1


def test_validate_unknown_check_rejected(b1_path):
    assert main(["validate", "--model", b1_path, "--checks", "nope"]) == 2


def test_recursion_dumps(b1_path, h1_path, tmp_path):
    out = tmp_path / "f.csv"
    assert main(["recursion", "--model", b1_path, "--what", "tilt", "--theta", "0.2",
                 "--n", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,f"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.2)
    out2 = tmp_path / "g.csv"
    assert main(["recursion", "--model", b1_path, "--what", "gbar", "--n", "3",
                 "--out", str(out2)]) == 0
    rows = [line.split(",") for line in out2.read_text().strip().splitlines()[1:]]
    assert float(rows[1][1]) == pytest.approx(1.4)
    assert float(rows[2][2]) == pytest.approx(0.2832)
    out3 = tmp_path / "curve.csv"
    assert main(["recursion", "--model", h1_path, "--what", "mdp-curve", "--theta", "1.0",
                 "--beta", "0.75", "--horizons", "1000,10000", "--out", str(out3)]) == 0
    lines = out3.read_text().strip().splitlines()
    assert lines[0] == "n,value,limit"
    assert float(lines[1].split(",")[2]) == pytest.approx(4.0)


def test_missing_model_file(tmp_path):
    assert main(["theory", "--model", str(tmp_path / "nope.json")]) == 2


CONSTANT_SPEC = {  # sigma2 = 0: no moderate-deviation rate and no CLT
    "immigration": {"type": "constant", "value": 1},
    "offspring": {"type": "explicit", "laws": []},
}


@pytest.mark.parametrize(
    "spec, argv",
    [
        (H1_SPEC, ["validate", "--checks", "clt", "--n", "10", "--reps", "10", "--seed", "1"]),
        (H1_SPEC, ["validate", "--checks", "mdp", "--beta", "0.3", "--n", "100", "--reps", "10",
                   "--seed", "1"]),
        (H1_SPEC, ["validate", "--checks", "mdp", "--x=-1", "--n", "100", "--reps", "10",
                   "--seed", "1"]),
        (H1_SPEC, ["validate", "--checks", "mdp", "--x", "30", "--n", "100", "--seed", "1"]),
        (H1_SPEC, ["validate", "--checks", "mdp", "--x", "30", "--n", "100", "--reps", "10",
                   "--seed", "1"]),
        (H1_SPEC, ["validate", "--checks", "mdp", "--x", "4", "--seed", "1"]),
        (H1_SPEC, ["validate", "--checks", "gamma", "--theta-grid", "5", "--n", "10",
                   "--reps", "10", "--seed", "1"]),
        (CONSTANT_SPEC, ["theory"]),
        (CONSTANT_SPEC, ["validate", "--checks", "clt", "--reps", "600"]),
        (H1_SPEC, ["simulate", "--n", "5", "--seed", "-1"]),
        (H1_SPEC, ["validate", "--checks", "lln", "--n", "5", "--reps", "3", "--seed", "-3"]),
        (H1_SPEC, ["theory", "--out", "{missing}/x.json"]),
        (B1_SPEC, ["validate", "--checks", "oracle", "--n", "3", "--out", "{missing}/rep"]),
    ],
    ids=["clt-few-reps", "mdp-beta-low", "mdp-x-negative", "mdp-x-far-sized", "mdp-x-far-reps",
         "mdp-x-far-default-n", "gamma-tilt-high", "theory-no-variance", "clt-no-variance", "simulate-seed-negative",
         "validate-seed-negative", "theory-out-missing-dir", "oracle-out-missing-dir"],
)
def test_library_rejections_exit_2_without_a_traceback(tmp_path, capsys, spec, argv):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
    assert main(argv + ["--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err.splitlines()[-1]
    assert "Traceback" not in err
