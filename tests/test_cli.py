import json
import math

import pytest

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
    ],
    ids=["p-string", "lambda-null", "m-bool", "probs-number", "probs-string-entry", "r-string",
         "values-number", "value-infinity", "c-nan"],
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
