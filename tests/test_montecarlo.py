import math

import pytest

from inarlim import (
    InsufficientTailMass,
    clt_variance,
    lln_mean,
    validate_clt,
    validate_gamma,
    validate_lln,
    validate_mdp,
)
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
