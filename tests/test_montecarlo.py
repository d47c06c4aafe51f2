import math

import numpy as np
import pytest

import inarlim.model
import inarlim.montecarlo
from inarlim import (
    ConfigError,
    Constant,
    EnumerationError,
    ExplicitOffspring,
    InarModel,
    InsufficientTailMass,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    clt_variance,
    lln_mean,
    validate_cesaro,
    validate_clt,
    validate_gamma,
    validate_lln,
    validate_mdp,
    validate_oracle,
)
from inarlim.asymptotics import mdp_rate
from inarlim.model import hurwitz_zeta
from inarlim.montecarlo import predicted_tail_probability

SEED = 11


def test_lln_passes(bernoulli_ar1):
    report = validate_lln(bernoulli_ar1, n=2000, reps=300, seed=SEED)
    assert report.passed
    assert report.statistics["abs_error"] <= report.statistics["band"]
    assert report.theorem == "lln"


def test_lln_negative_control(bernoulli_ar1):
    # shifting the target five noise-sigmas away flips the verdict
    mu = lln_mean(bernoulli_ar1)
    shift = 5 * math.sqrt(clt_variance(bernoulli_ar1) / (2000 * 300))
    report = validate_lln(bernoulli_ar1, n=2000, reps=300, seed=SEED, mu_override=mu + shift)
    assert not report.passed


def test_lln_reports_reproducible(bernoulli_ar1):
    a = validate_lln(bernoulli_ar1, n=500, reps=200, seed=SEED)
    b = validate_lln(bernoulli_ar1, n=500, reps=200, seed=SEED)
    assert a.statistics == b.statistics


def test_clt_passes_and_negative_control(bernoulli_ar1):
    report = validate_clt(bernoulli_ar1, n=1000, reps=800, seed=SEED)
    assert report.passed
    assert report.statistics["ks_statistic"] < report.statistics["threshold"]
    halved = validate_clt(
        bernoulli_ar1, n=1000, reps=800, seed=SEED, sigma2_override=1.25 / 2
    )
    assert not halved.passed


def test_clt_enforces_minimum_replications(bernoulli_ar1):
    with pytest.raises(ValueError):
        validate_clt(bernoulli_ar1, n=500, reps=100, seed=SEED)


def test_mdp_report_is_self_auditing(hawkes):
    report = validate_mdp(hawkes, x=1.0, beta=0.6, n=1000, reps=None, seed=SEED)
    stats = report.statistics
    assert stats["tail_count"] >= 50 * 0.5
    recomputed = -(report.n / stats["c_n"] ** 2) * math.log(stats["p_hat"])
    assert recomputed == pytest.approx(stats["r_hat"], rel=1e-12)
    assert report.passed == (stats["band_low"] <= stats["r_hat"] <= stats["band_high"])
    assert "band" in report.notes


def test_mdp_insufficient_tail_mass(hawkes):
    with pytest.raises(InsufficientTailMass):
        validate_mdp(hawkes, x=1.0, beta=0.6, n=1000, reps=20, seed=SEED)


def test_mdp_sizes_a_batch_by_its_steps(hawkes, monkeypatch):
    sized = []

    def no_tail_hits(m, n, reps, seed):
        sized.append(reps)
        return np.zeros(reps)

    monkeypatch.setattr(inarlim.montecarlo, "_batch_sums", no_tail_hits)
    # 1.37e6 replications of 100 steps: 2.7e8 steps, within the bound
    validate_mdp(hawkes, x=7.0, beta=0.6, n=100, reps=None, seed=SEED)
    assert sized == [1_368_810]
    # 3.1e5 replications of 10,000 steps, the CLI's default horizon: 3.2e9 steps;
    # and P = 1e-63, whose batch would take 6e64 replications of 100 steps
    for x, n in ((4.0, 10_000), (30.0, 100)):
        with pytest.raises(InsufficientTailMass, match="replications of"):
            validate_mdp(hawkes, x=x, beta=0.6, n=n, reps=None, seed=SEED)
    assert len(sized) == 1


def test_mdp_parameter_validation(hawkes):
    with pytest.raises(ValueError):
        validate_mdp(hawkes, x=1.0, beta=0.4, n=1000, reps=None, seed=SEED)
    with pytest.raises(ValueError):
        validate_mdp(hawkes, x=-1.0, beta=0.6, n=1000, reps=None, seed=SEED)


@pytest.mark.slow
def test_mdp_trend_toward_rate(hawkes):
    # the scaled tail statistic creeps down toward the quadratic rate;
    # allow one inversion for noise
    r_hats = []
    for n in (10**3, 10**4, 10**5):
        p = predicted_tail_probability(hawkes, 1.0, 0.6, n)
        reps = int(math.ceil(1.5 * 50 / p))
        rep = validate_mdp(hawkes, x=1.0, beta=0.6, n=n, reps=reps, seed=SEED)
        r_hats.append(rep.statistics["r_hat"])
    inversions = sum(1 for a, b in zip(r_hats, r_hats[1:]) if b >= a)
    assert inversions <= 1
    assert r_hats[-1] < r_hats[0]


def test_gamma_validation(hawkes):
    report = validate_gamma(hawkes, theta_grid=(0.02, 0.05), n=1000, reps=1000, seed=SEED)
    assert report.passed
    for point in report.statistics["points"]:
        assert point["exact_vs_limit_gap"] < 1e-3
        assert abs(point["empirical"] - point["target"]) <= point["tolerance"]


def test_gamma_zero_tilt_trivial(bernoulli_ar1):
    report = validate_gamma(bernoulli_ar1, theta_grid=(0.0,), n=300, reps=600, seed=SEED)
    point = report.statistics["points"][0]
    assert point["empirical"] == 0.0
    assert point["target"] == 0.0
    assert report.passed


def test_gamma_rejects_large_tilts(hawkes):
    with pytest.raises(ValueError):
        validate_gamma(hawkes, theta_grid=(0.15,), n=500, reps=600, seed=SEED)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_gamma_rejects_non_finite_tilts_before_any_work(hawkes, monkeypatch, theta):
    def must_not_run(*args):
        raise AssertionError("ran before the grid was checked")

    monkeypatch.setattr(inarlim.montecarlo, "critical_tilt", must_not_run)
    monkeypatch.setattr(inarlim.montecarlo, "_batch_sums", must_not_run)
    with pytest.raises(ConfigError, match="finite"):
        validate_gamma(hawkes, [0.01, theta], n=1000, reps=2000, seed=SEED)


def test_cesaro_check_passes_at_long_horizons_and_fails_at_short_ones(bernoulli_ar1):
    report = validate_cesaro(bernoulli_ar1, 30_000)
    assert report.passed and report.theorem == "cesaro"
    assert (report.n, report.reps, report.seed) == (30_000, 0, 0)
    assert max(report.statistics["relative_errors"]) < report.targets["relative_tolerance"]
    assert not validate_cesaro(bernoulli_ar1, 20).passed


@pytest.mark.parametrize("a", [1.6, 2.0, 3.0])
def test_cesaro_check_passes_on_power_laws_at_1e5(a):
    # the heavier the tail, the slower the Cesaro means converge: a = 1.6 is the slowest
    m = InarModel(Poisson(1.0), PoissonOffspring(PowerLawDecay(c=0.3 / hurwitz_zeta(a, 1.0), a=a)))
    report = validate_cesaro(m, 10**5)
    assert report.passed, report.statistics["relative_errors"]


@pytest.mark.parametrize("name", ["bernoulli_ar1", "finite_mix"])
def test_oracle_check_passes_on_bounded_models(name, request):
    report = validate_oracle(request.getfixturevalue(name), 4)
    assert report.passed and report.theorem == "oracle"
    assert len(report.statistics["points"]) == 4 * 5
    assert report.statistics["worst_gap"] < report.targets["tolerance"]


def test_empirical_checks_refuse_no_work(bernoulli_ar1):
    with pytest.raises(ValueError, match="horizon"):
        validate_mdp(bernoulli_ar1, x=1.0, beta=0.6, n=0, reps=100, seed=SEED)
    with pytest.raises(ValueError, match="tilt grid"):
        validate_gamma(bernoulli_ar1, [], n=10, reps=10, seed=SEED)


def test_oracle_check_needs_a_bounded_model_and_a_horizon(hawkes, bernoulli_ar1):
    with pytest.raises(EnumerationError):
        validate_oracle(hawkes, 4)
    for n in (0, -3):
        with pytest.raises(ValueError):
            validate_oracle(bernoulli_ar1, n)


def test_validate_mdp_checks_the_assumptions_once(hawkes, monkeypatch):
    calls = []
    real = inarlim.model.validate
    monkeypatch.setattr(inarlim.model, "validate", lambda m: calls.append(m) or real(m))
    report = validate_mdp(hawkes, x=1.0, beta=0.6, n=100, reps=None, seed=SEED)
    assert len(calls) == 1
    assert report.targets["rate"] == mdp_rate(hawkes, 1.0)
    assert report.statistics["p_predicted"] == predicted_tail_probability(hawkes, 1.0, 0.6, 100)


def test_validate_mdp_refuses_a_degenerate_model():
    # sigma2 = 0: the rate is undefined, and the normal tail would divide by zero
    m = InarModel(Constant(2), ExplicitOffspring((Constant(0),)))
    with pytest.raises(ValueError, match="degenerate model"):
        validate_mdp(m, x=1.0, beta=0.6, n=100, reps=100, seed=SEED)
