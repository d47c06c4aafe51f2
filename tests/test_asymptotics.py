import math

import numpy as np
import pytest

import inarlim.model
from inarlim import (
    AssumptionViolation,
    Bernoulli,
    Binomial,
    Constant,
    ExplicitOffspring,
    FiniteSupport,
    GeometricDecay,
    InarModel,
    MdpSchedule,
    Poisson,
    PoissonOffspring,
    clt_variance,
    critical_tilt,
    inar1_ldp_rate,
    ldp_rate,
    limit_cgf,
    lln_mean,
    log_mgf_exact,
    mdp_mgf_curve,
    mdp_rate,
    theory_summary,
    tilt_fixed_point,
    tilt_gap,
    tilt_recursion,
    validate_gamma,
)

H1_THETA_C = 0.5 - math.log(0.5) - 1

# Each entry point that takes a tilt or a mean, and the non-finite values it rejects
NON_FINITE_CALLS = {
    "tilt_recursion": (lambda m, v: tilt_recursion(m, v, 5), (math.nan, math.inf, -math.inf)),
    "log_mgf_exact": (lambda m, v: log_mgf_exact(m, v, 5), (math.nan, math.inf, -math.inf)),
    "mdp_mgf_curve": (
        lambda m, v: mdp_mgf_curve(m, v, MdpSchedule(0.75, (10,))), (math.nan, math.inf, -math.inf)
    ),
    "tilt_fixed_point": (tilt_fixed_point, (math.nan,)),
    "limit_cgf": (limit_cgf, (math.nan,)),
    "ldp_rate": (ldp_rate, (math.nan,)),
    "validate_gamma": (lambda m, v: validate_gamma(m, [v], 10, 10, seed=1), (math.nan,)),
}
# The one-lag law whose INAR(1) has each fixture's limit theory
SINGLE_LAG = {"hawkes": Poisson(0.5), "bernoulli_ar1": Bernoulli(0.4)}


def test_lln_mean(hawkes, bernoulli_ar1):
    assert lln_mean(hawkes) == pytest.approx(2.0, abs=1e-14)
    assert lln_mean(bernoulli_ar1) == pytest.approx(5 / 6, abs=1e-14)
    zero = InarModel(Constant(0), ExplicitOffspring((Bernoulli(0.4),)))
    assert lln_mean(zero) == 0.0


def test_clt_variance(hawkes, bernoulli_ar1, pure_immigration):
    assert clt_variance(hawkes) == pytest.approx(8.0, abs=1e-12)
    assert clt_variance(bernoulli_ar1) == pytest.approx(1.25, abs=1e-12)
    assert clt_variance(pure_immigration) == pytest.approx(1.0, abs=1e-14)


def test_mdp_rate(hawkes, bernoulli_ar1):
    assert mdp_rate(hawkes, 1.0) == pytest.approx(0.0625, abs=1e-12)
    assert mdp_rate(bernoulli_ar1, 1.0) == pytest.approx(0.4, abs=1e-12)
    assert mdp_rate(hawkes, 0.0) == 0.0


def test_mdp_rate_degenerate():
    m = InarModel(Constant(2), ExplicitOffspring((Constant(0),)))
    with pytest.raises(ValueError):
        mdp_rate(m, 1.0)


def test_tilt_gap(hawkes, bernoulli_ar1):
    assert tilt_gap(hawkes, 0.0) == 0.0
    assert tilt_gap(hawkes, math.log(2)) == pytest.approx(math.log(2) - 0.5, abs=1e-14)
    # single Bernoulli lag: increasing with a horizontal asymptote
    assert tilt_gap(bernoulli_ar1, 30.0) == pytest.approx(-math.log(0.4), abs=1e-12)
    assert tilt_gap(bernoulli_ar1, 40.0) > tilt_gap(bernoulli_ar1, 20.0)


def test_critical_tilt(hawkes, bernoulli_ar1, pure_immigration):
    value, attained = critical_tilt(hawkes)
    assert value == pytest.approx(H1_THETA_C, abs=1e-12)
    assert attained
    value, attained = critical_tilt(bernoulli_ar1)
    assert value == pytest.approx(-math.log(0.4), abs=1e-12)
    assert not attained
    value, attained = critical_tilt(pure_immigration)
    assert value == math.inf
    assert not attained


def test_critical_tilt_positive_for_catalog(hawkes, bernoulli_ar1, two_lag, finite_mix):
    for m in (hawkes, bernoulli_ar1, two_lag, finite_mix):
        value, _ = critical_tilt(m)
        assert value > 0


def test_critical_tilt_requires_subcriticality():
    m = InarModel(Poisson(1.0), ExplicitOffspring((Bernoulli(0.6), Bernoulli(0.5))))
    with pytest.raises(AssumptionViolation):
        critical_tilt(m)


def test_fixed_point_basics(hawkes):
    assert tilt_fixed_point(hawkes, 0.0) == 0.0
    tc, _ = critical_tilt(hawkes)
    assert tilt_fixed_point(hawkes, tc) == pytest.approx(math.log(2), abs=1e-9)
    f = tilt_fixed_point(hawkes, 0.1)
    assert 0 < f < math.log(2)
    assert abs(tilt_gap(hawkes, f) - 0.1) < 1e-12


def test_fixed_point_residuals_on_grid(hawkes):
    tc, _ = critical_tilt(hawkes)
    for theta in np.linspace(-1.0, tc, 25):
        f = tilt_fixed_point(hawkes, float(theta))
        assert abs(f - (theta + 0.5 * math.expm1(f))) < 1e-10


def test_fixed_point_rejects_beyond_critical(hawkes, bernoulli_ar1):
    tc, _ = critical_tilt(hawkes)
    with pytest.raises(ValueError):
        tilt_fixed_point(hawkes, tc + 0.1)
    tcb, attained = critical_tilt(bernoulli_ar1)
    assert not attained
    with pytest.raises(ValueError):
        tilt_fixed_point(bernoulli_ar1, tcb)
    # strictly below the unattained supremum is fine
    assert math.isfinite(tilt_fixed_point(bernoulli_ar1, tcb - 1e-6))


def test_limit_cgf(hawkes):
    assert limit_cgf(hawkes, 0.0) == 0.0
    tc, _ = critical_tilt(hawkes)
    for theta in (0.05, 0.1, tc):
        f = tilt_fixed_point(hawkes, theta)
        assert limit_cgf(hawkes, theta) == pytest.approx(math.expm1(f), rel=1e-12)
    assert limit_cgf(hawkes, tc + 0.1) == math.inf


def test_ldp_rate_at_the_mean(hawkes, bernoulli_ar1):
    assert ldp_rate(hawkes, 2.0) == 0.0
    assert ldp_rate(bernoulli_ar1, 5 / 6) == 0.0


def test_ldp_rate_poisson_cramer(pure_immigration):
    # no offspring: the rate reduces to x log x - x + 1 for unit-mean Poisson sums
    assert ldp_rate(pure_immigration, 2.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-9)
    assert ldp_rate(pure_immigration, 0.5) == pytest.approx(0.5 * math.log(0.5) + 0.5, abs=1e-9)


def test_ldp_rate_edges(hawkes, pure_immigration):
    assert ldp_rate(hawkes, -0.5) == math.inf
    assert ldp_rate(hawkes, 0.0) == pytest.approx(1.0, abs=1e-12)  # -log P(eps = 0)
    bounded = InarModel(Bernoulli(0.25), ExplicitOffspring(()))
    assert ldp_rate(bounded, 1.5) == math.inf
    assert ldp_rate(bounded, 1.0) == pytest.approx(-math.log(0.25), abs=1e-9)


def test_ldp_rate_at_and_below_the_smallest_immigration():
    # S_n >= n a, and S_n = n a needs eps = a at every step and no offspring at all:
    # the rate there is -log P(eps = a) - a sum_k log P(xi_k = 0)
    three_point = FiniteSupport((0.0, 0.5, 0.5))
    ar1 = InarModel(three_point, ExplicitOffspring((Bernoulli(0.3),)))
    hawkes_one = InarModel(Constant(1), PoissonOffspring(GeometricDecay(0.2, 0.5)))
    assert ldp_rate(ar1, 1.0) == pytest.approx(-math.log(0.5) - math.log(0.7), abs=1e-12)
    assert ldp_rate(hawkes_one, 1.0) == pytest.approx(0.4, abs=1e-12)
    assert inar1_ldp_rate(three_point, Bernoulli(0.3), 1.0) == ldp_rate(ar1, 1.0)
    assert inar1_ldp_rate(Constant(1), Poisson(0.4), 1.0) == pytest.approx(0.4, abs=1e-12)
    for x in (0.5, 0.999, 0.0, -1.0):
        assert ldp_rate(ar1, x) == math.inf
        assert ldp_rate(hawkes_one, x) == math.inf
        assert inar1_ldp_rate(three_point, Bernoulli(0.3), x) == math.inf
    assert ldp_rate(InarModel(Constant(1), ExplicitOffspring(())), 0.5) == math.inf
    # just above a the solve approaches the closed form from below
    assert ldp_rate(ar1, 1.0) - 2e-3 < ldp_rate(ar1, 1.0001) < ldp_rate(ar1, 1.0)


def test_ldp_rate_with_immigration_support_from_60():
    # the immigration's support starts at 60, so the tilted slopes at very negative f
    # weigh p_k exp(f k) that underflow for the zero entries below it
    m = InarModel(FiniteSupport((0.0,) * 60 + (0.5, 0.5)), ExplicitOffspring((Bernoulli(0.3),)))
    at_a = -math.log(0.5) - 60 * math.log(0.7)
    assert ldp_rate(m, 60.0) == pytest.approx(at_a, abs=1e-12)
    assert at_a - 2e-2 < ldp_rate(m, 60.001) < at_a
    assert 0.0 < ldp_rate(m, 60.3) < ldp_rate(m, 60.001)


def test_ldp_rate_with_point_mass_binomial_immigration():
    m = InarModel(Binomial(2, 1.0), PoissonOffspring(GeometricDecay(0.2, 0.5)))
    assert ldp_rate(m, 2.0) == pytest.approx(0.8, abs=1e-12)
    assert ldp_rate(m, 1.5) == math.inf
    assert 0.0 < ldp_rate(m, 2.5) < ldp_rate(m, 2.0)


def test_ldp_rate_positive_away_from_mean(hawkes, bernoulli_ar1):
    for m in (hawkes, bernoulli_ar1):
        mu = lln_mean(m)
        assert ldp_rate(m, mu * 1.05) > 0
        assert ldp_rate(m, mu * 0.95) > 0


def test_ldp_rate_convex_on_grid(bernoulli_ar1):
    xs = np.linspace(0.2, 2.4, 23)
    vals = [ldp_rate(bernoulli_ar1, float(x)) for x in xs]
    for i in range(1, len(xs) - 1):
        assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-9


def test_reparameterization_identity(bernoulli_ar1):
    for x in (0.3, 0.9, 1.2, 2.0, 2.5):
        a = ldp_rate(bernoulli_ar1, x)
        b = inar1_ldp_rate(Bernoulli(0.5), Bernoulli(0.4), x)
        assert abs(a - b) < 1e-8


def test_single_lag_rate_reduces_to_cramer():
    # offspring identically zero collapses the reparameterized form
    assert inar1_ldp_rate(Poisson(1.0), Constant(0), 2.0) == pytest.approx(
        2 * math.log(2) - 1, abs=1e-9
    )
    assert inar1_ldp_rate(Poisson(1.0), Constant(0), 1.0) == 0.0


def test_single_lag_rate_requires_subcritical_offspring():
    with pytest.raises(AssumptionViolation):
        inar1_ldp_rate(Poisson(1.0), Bernoulli(1.0), 1.5)


def test_quadratic_behavior_near_the_mean(hawkes, bernoulli_ar1):
    for m in (hawkes, bernoulli_ar1):
        mu, s2 = lln_mean(m), clt_variance(m)
        delta = 0.01 * mu
        ratio = ldp_rate(m, mu + delta) * 2 * s2 / delta**2
        assert abs(ratio - 1) < 0.05


def test_theory_summary(hawkes):
    summary = theory_summary(hawkes)
    assert summary.mu == 2.0
    assert summary.sigma2 == 8.0
    assert summary.theta_c == pytest.approx(H1_THETA_C, abs=1e-12)
    assert summary.theta_c_attained
    assert summary.offspring_mean_l1 == pytest.approx(0.5)
    assert summary.offspring_var_l1 == pytest.approx(0.5)
    assert mdp_rate(hawkes, 1.0) == pytest.approx(0.0625)
    assert ldp_rate(hawkes, 2.0) == 0.0
    assert tilt_gap(hawkes, 0.0) == 0.0


def test_theory_summary_and_ldp_rate_check_the_assumptions_once(hawkes, monkeypatch):
    critical_tilt(hawkes)  # cached from here on
    calls = []
    real = inarlim.model.validate
    monkeypatch.setattr(inarlim.model, "validate", lambda m: calls.append(m) or real(m))
    theory_summary(hawkes)
    assert len(calls) == 1
    ldp_rate(hawkes, 3.0)
    assert len(calls) == 2


def test_offspring_sums_past_the_largest_float_are_infinite():
    # each lag's log-MGF at 1 is 1.72e308, finite, but the two sum past the largest float
    m = InarModel(Poisson(1.0), ExplicitOffspring((Poisson(1e308), Poisson(1e308))))
    assert m.offspring.cgf(1.0) == math.inf
    assert m.offspring.cgf_prime(1.0) == math.inf
    assert tilt_gap(m, 1.0) == -math.inf
    assert m.offspring.cgf(-1.0) == 2.0 * (1e308 * math.expm1(-1.0))
    assert m.offspring.cgf_prime(-1.0) == 2.0 * (1e308 * math.exp(-1.0))
    assert tilt_gap(m, -1.0) == -1.0 - m.offspring.cgf(-1.0)


def test_supercritical_models_raise_through_the_assumption_check():
    m = InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(0.6, 0.5)))
    for call in (critical_tilt, lambda x: tilt_fixed_point(x, 0.1), lambda x: limit_cgf(x, 0.1)):
        with pytest.raises(AssumptionViolation, match=r"assumption \(a\) violated.*mean_l1=1\.2"):
            call(m)


def test_two_lag_attained_critical_tilt(two_lag):
    # two unit-support lags make the support total exceed 1, so the gap peaks
    value, attained = critical_tilt(two_lag)
    assert attained
    assert value > 0
    f = tilt_fixed_point(two_lag, value)
    assert abs(tilt_gap(two_lag, f) - value) < 1e-10


def test_binomial_offspring_attained():
    m = InarModel(Poisson(0.5), ExplicitOffspring((Binomial(3, 0.2),)))
    value, attained = critical_tilt(m)
    assert attained and value > 0


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
@pytest.mark.parametrize("fixture", sorted(SINGLE_LAG))
def test_non_finite_tilts_and_means_raise(fixture, name, request):
    """A NaN tilt or mean, or an infinite tilt of a recursion, raises rather than giving a number."""
    m = request.getfixturevalue(fixture)
    call, values = NON_FINITE_CALLS[name]
    for value in values:
        with pytest.raises(ValueError):
            call(m, value)


@pytest.mark.parametrize("fixture", sorted(SINGLE_LAG))
def test_single_lag_rate_rejects_a_nan_mean(fixture, request):
    m = request.getfixturevalue(fixture)
    with pytest.raises(ValueError):
        inar1_ldp_rate(m.immigration, SINGLE_LAG[fixture], math.nan)
