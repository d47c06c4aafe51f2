import math
from fractions import Fraction

import numpy as np
import pytest

import inarlim.model
from inarlim import (
    Bernoulli,
    ConfigError,
    Constant,
    ExplicitOffspring,
    FiniteDecay,
    Geometric,
    GeometricDecay,
    InarModel,
    MdpSchedule,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    cesaro_check,
    critical_tilt,
    gbar_tables,
    limit_cgf,
    log_mgf_by_horizon,
    log_mgf_exact,
    mdp_mgf_curve,
    mdp_scaled_limit,
    oracle_log_mgf,
    tilt_fixed_point,
    tilt_recursion,
)
from inarlim.model import hurwitz_zeta
from tilt_reference import tilt_recursion_reference

THETAS = (-1.0, -0.3, 0.0, 0.4, math.log(2))


def test_zero_tilt_recursion(hawkes):
    rec = tilt_recursion(hawkes, 0.0, 7)
    assert (rec.values == 0.0).all()
    assert rec.log_mgf_total == 0.0


def test_hand_recursion_single_lag(bernoulli_ar1):
    rec = tilt_recursion(bernoulli_ar1, math.log(2), 2)
    assert rec.values[0] == math.log(2)
    assert rec.values[1] == pytest.approx(math.log(2.8), abs=1e-14)
    assert rec.log_mgf_total == pytest.approx(math.log(2.85), abs=1e-13)


def test_no_offspring_keeps_tilt_constant(pure_immigration):
    rec = tilt_recursion(pure_immigration, 0.7, 5)
    assert (rec.values == 0.7).all()


def test_pure_immigration_poisson_sum(pure_immigration):
    assert log_mgf_exact(pure_immigration, 1.0, 10) == pytest.approx(10 * (math.e - 1), rel=1e-12)


@pytest.mark.parametrize("fixture", ["bernoulli_ar1", "two_lag", "finite_mix"])
def test_oracle_equivalence(fixture, request):
    m = request.getfixturevalue(fixture)
    for n in range(1, 7):
        for theta in THETAS:
            assert abs(log_mgf_exact(m, theta, n) - oracle_log_mgf(m, theta, n)) < 1e-10


def test_divergent_tilt_reported_as_infinity():
    # geometric offspring law: the log-MGF blows up past its domain
    m = InarModel(Bernoulli(0.5), ExplicitOffspring((Geometric(2 / 3),)))
    assert log_mgf_exact(m, 1.2, 4) == math.inf
    rec = tilt_recursion(m, 1.2, 4)
    assert rec.log_mgf_total == math.inf
    assert len(rec.values) < 4
    assert rec.diverged_at == len(rec.values) + 1


@pytest.mark.parametrize("fixture", ["bernoulli_ar1", "two_lag", "hawkes", "pure_immigration"])
def test_log_mgf_by_horizon_is_log_mgf_exact_at_every_horizon(fixture, request):
    m = request.getfixturevalue(fixture)
    # 2.0 and 5.0 lie past every critical tilt; the Hawkes tilts diverge at steps 5 and 4
    for theta in THETAS + (-0.0, 2.0, 5.0):
        got = log_mgf_by_horizon(m, theta, 12)
        assert [v.hex() for v in got] == [log_mgf_exact(m, theta, k).hex() for k in range(1, 13)]


def test_two_lag_divergence_is_quiet(two_lag):
    # theta_c = 0.177; past it the tilts grow like Fibonacci numbers until a sum overflows
    rec = tilt_recursion(two_lag, 0.3, 2000)
    assert rec.log_mgf_total == math.inf
    assert rec.diverged_at == len(rec.values) + 1
    # a horizon ending just before that step: every tilt is finite, the immigration sum is not
    short = tilt_recursion(two_lag, 0.3, rec.diverged_at - 1)
    assert short.diverged_at is None
    assert np.isfinite(short.values).all()
    assert short.log_mgf_total == math.inf


def test_immigration_sum_overflow_takes_the_sign_of_the_tilt():
    # immigration of 2 per step: each term is about 2 theta, and their sum passes -max float
    m = InarModel(Constant(2), ExplicitOffspring((Bernoulli(0.3),)))
    rec = tilt_recursion(m, -1e306, 1000)
    assert rec.diverged_at is None
    assert rec.log_mgf_total == -math.inf


@pytest.mark.parametrize(
    "decay", [GeometricDecay(0.0, 0.5), PowerLawDecay(0.0, 2.0), FiniteDecay((0.0, 0.0))],
    ids=["geometric", "power_law", "finite"],
)
def test_zero_mass_poisson_family_keeps_the_tilt(decay):
    # expm1(800) overflows; without offspring it must never be multiplied by a zero mass
    m = InarModel(Bernoulli(0.5), PoissonOffspring(decay))
    rec = tilt_recursion(m, 800.0, 50)
    assert (rec.values == 800.0).all()
    assert rec.diverged_at is None
    assert rec.log_mgf_total == 50 * Bernoulli(0.5).log_mgf(800.0)


def test_recursion_reports_its_window_and_truncation(hawkes, bernoulli_ar1):
    # every kernel keeps its whole history, so only a divergence is left to report
    for m in (hawkes, bernoulli_ar1):
        assert tilt_recursion(m, 0.1, 500).diverged_at is None
    # a steep power law, once cut at 138 lags, now sums all 999
    steep = InarModel(Poisson(1.0), PoissonOffspring(PowerLawDecay(c=0.3, a=6.0)))
    rec = tilt_recursion(steep, 0.1, 1000)
    values, total, diverged_at = tilt_recursion_reference(steep, 0.1, 1000)
    assert rec.diverged_at is None and diverged_at is None
    assert np.array_equal(rec.values, values)
    assert rec.log_mgf_total == total


def test_hawkes_log_mgf_exact_at_a_million_steps(hawkes):
    theta = 0.5 * critical_tilt(hawkes)[0]
    n = 10**6
    assert abs(log_mgf_exact(hawkes, theta, n) / n - limit_cgf(hawkes, theta)) < 1e-3


def test_recursions_report_where_they_settle(hawkes, bernoulli_ar1):
    rec = tilt_recursion(hawkes, 0.5 * critical_tilt(hawkes)[0], 10**6)
    assert rec.settled_at is not None and rec.settled_at < 1000
    # the first step of the settled tail: the tilt before it differs
    k = rec.settled_at - 1
    assert rec.values[k - 1] != rec.values[k]
    assert (rec.values[k:] == rec.values[k]).all()
    # near the critical tilt the contraction is too slow to settle within 2000 steps
    near = tilt_recursion(bernoulli_ar1, 0.999 * critical_tilt(bernoulli_ar1)[0], 2000)
    assert near.settled_at is None
    assert near.diverged_at is None


def test_tilt_values_increase_and_converge(hawkes, bernoulli_ar1):
    n = 10**5
    for m in (hawkes, bernoulli_ar1):
        tc, _ = critical_tilt(m)
        theta = tc - 0.05
        rec = tilt_recursion(m, theta, n)
        assert (np.diff(rec.values) >= -1e-15).all()
        assert abs(rec.values[-1] - tilt_fixed_point(m, theta)) < 1e-6


def test_gbar_hand_values(bernoulli_ar1):
    tables = gbar_tables(bernoulli_ar1, 3)
    assert tables.g1 == pytest.approx([1.0, 1.4, 1.56], abs=1e-14)
    assert tables.g2 == pytest.approx([0.0, 0.12, 0.2832], abs=1e-14)


def test_gbar_closed_form_single_lag(bernoulli_ar1):
    n = 50
    tables = gbar_tables(bernoulli_ar1, n)
    k = np.arange(1, n + 1)
    assert tables.g1 == pytest.approx((1 - 0.4**k) / 0.6, rel=1e-13)


def test_gbar_bounds_hold_entrywise(hawkes, bernoulli_ar1):
    for m, mean_l1, var_l1 in ((hawkes, 0.5, 0.5), (bernoulli_ar1, 0.4, 0.24)):
        tables = gbar_tables(m, 20000)
        assert (tables.g1 <= 1 / (1 - mean_l1)).all()
        assert (tables.g2 <= var_l1 / (2 * (1 - mean_l1) ** 3)).all()


def test_cesaro_limits(bernoulli_ar1, hawkes):
    chk = cesaro_check(bernoulli_ar1, 30000)
    assert chk.g1_limit == pytest.approx(5 / 3)
    assert chk.g1_sq_limit == pytest.approx(25 / 9)
    assert chk.g2_limit == pytest.approx(5 / 9)
    for empirical, limit in chk.pairs():
        assert empirical == pytest.approx(limit, rel=1e-3)
    chk = cesaro_check(hawkes, 30000)
    assert (chk.g1_limit, chk.g1_sq_limit, chk.g2_limit) == (2.0, 4.0, 2.0)
    for empirical, limit in chk.pairs():
        assert empirical == pytest.approx(limit, rel=1e-3)


@pytest.mark.parametrize("mass", [0.05, 0.3, 0.9])
@pytest.mark.parametrize("a", [1.6, 3.0, 6.0, 12.0])
def test_power_law_tables_keep_their_bounds_at_1e5(mass, a):
    # the FFT series carry each entry's rounding from its table's largest entry;
    # gbar_tables raises if that takes any entry past BOUND_ROUNDING_ULPS
    m = InarModel(Poisson(1.0), PoissonOffspring(PowerLawDecay(c=mass / hurwitz_zeta(a, 1.0), a=a)))
    gbar_tables(m, 10**5)


# g2 converges to its limit and passes it by one ulp through rounding alone
ROUNDING_EDGE = InarModel(Bernoulli(0.7311837167794242), ExplicitOffspring((Bernoulli(0.3557678206729456),)))


@pytest.mark.parametrize("n", [51, 2000])
def test_tables_within_rounding_of_their_limits(n):
    tables = cesaro_check(ROUNDING_EDGE, n)
    assert tables.g2_limit < tables.g2.max() <= tables.g2_limit * (1 + 4 * math.ulp(1.0))
    assert (tables.g1 <= tables.g1_limit).all()


def test_cesaro_exact_without_offspring(pure_immigration):
    chk = cesaro_check(pure_immigration, 100)
    assert chk.pairs() == [(1.0, 1.0), (1.0, 1.0), (0.0, 0.0)]


# Cesaro means and limits at n = 2000, pinned bitwise
CESARO_PAIRS_2000 = {
    "bernoulli_ar1": [(1.6661111111111113, 1.6666666666666667), (2.776190476190476, 2.7777777777777777),
                      (0.5547751322751321, 0.5555555555555556)],
    "hawkes": [(1.998, 2.0), (3.993142857142857, 4.0), (1.9925714285714284, 2.0)],
    "two_lag": [(2.49734375, 2.5), (6.239115767045451, 6.249999999999999),
                (3.2307429643110774, 3.242187499999999)],
    "finite_mix": [(1.6661111111111113, 1.6666666666666667), (2.776190476190476, 2.7777777777777777),
                   (1.0170877425044094, 1.0185185185185188)],
    "pure_immigration": [(1.0, 1.0), (1.0, 1.0), (0.0, 0.0)],
}


@pytest.mark.parametrize("name", sorted(CESARO_PAIRS_2000))
def test_cesaro_pairs_pinned(name, request):
    assert cesaro_check(request.getfixturevalue(name), 2000).pairs() == CESARO_PAIRS_2000[name]


def test_hawkes_cesaro_means_within_4_ulps_of_exact_arithmetic(hawkes):
    # c = 1/4 and r = 1/2 are exact binary fractions, so the running sums of
    # g1(k) = 1 + s1_k, g2(k) = s2_k + v_k / 2 run exactly in rationals, with
    # s_k = r s_{k-1} + c (entry k - 1) for g1 and g2 and, over g1^2, for v
    n, c, r = 2000, Fraction(1, 4), Fraction(1, 2)
    g1, g1_sq, g2 = Fraction(1), Fraction(1), Fraction(0)
    s1 = s2 = v = Fraction(0)
    sums = [g1, g1_sq, g2]
    for _ in range(1, n):
        s1, s2, v = r * s1 + c * g1, r * s2 + c * g2, r * v + c * g1_sq
        g1, g2 = 1 + s1, s2 + v / 2
        g1_sq = g1 * g1
        for i, entry in enumerate((g1, g1_sq, g2)):
            sums[i] += entry
    for (mean, _), exact in zip(cesaro_check(hawkes, n).pairs(), sums):
        exact /= n
        assert abs(Fraction(mean) - exact) <= 4 * Fraction(math.ulp(float(exact)))


def test_mdp_schedule_validation():
    with pytest.raises(ConfigError):
        MdpSchedule(beta=0.5, horizons=(100,))
    with pytest.raises(ConfigError):
        MdpSchedule(beta=1.0, horizons=(100,))
    with pytest.raises(ConfigError):
        MdpSchedule(beta=0.75, horizons=())
    with pytest.raises(ConfigError):
        MdpSchedule(beta=0.75, horizons=(1,))
    with pytest.raises(ConfigError, match="whole number"):
        MdpSchedule(beta=0.7, horizons=(10.5,))
    assert MdpSchedule(beta=0.7, horizons=(10.0,)).horizons == (10,)


def test_mdp_curve_zero_tilt(hawkes):
    pts = mdp_mgf_curve(hawkes, 0.0, MdpSchedule(beta=0.75, horizons=(100, 1000)))
    assert all(p.value == 0.0 for p in pts)


def test_mdp_limits(bernoulli_ar1, hawkes):
    assert mdp_scaled_limit(bernoulli_ar1, 1.0) == pytest.approx(0.625, abs=1e-14)
    assert mdp_scaled_limit(hawkes, 1.0) == pytest.approx(4.0, abs=1e-14)


def test_mdp_curve_checks_the_assumptions_once(hawkes, monkeypatch):
    calls = []
    real = inarlim.model.validate
    monkeypatch.setattr(inarlim.model, "validate", lambda m: calls.append(m) or real(m))
    pts = mdp_mgf_curve(hawkes, 0.5, MdpSchedule(beta=0.75, horizons=(100, 1000)))
    assert len(calls) == 1
    assert all(p.limit == mdp_scaled_limit(hawkes, 0.5) for p in pts)


def test_mdp_curve_approaches_limit(bernoulli_ar1):
    pts = mdp_mgf_curve(bernoulli_ar1, 1.0, MdpSchedule(beta=0.75, horizons=(10**3, 10**4, 10**5)))
    gaps = [abs(p.value - p.limit) for p in pts]
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] / pts[2].limit < 0.2


def test_mdp_curve_divergence_reported_per_point():
    m = InarModel(Bernoulli(0.5), ExplicitOffspring((Geometric(2 / 3),)))
    # at n = 4 the rescaled tilt lands past the offspring log-MGF domain;
    # by n = 10**6 it has shrunk below the critical tilt and is finite
    pts = mdp_mgf_curve(m, 2.0, MdpSchedule(beta=0.75, horizons=(4, 10**6)))
    assert pts[0].value == math.inf
    assert math.isfinite(pts[1].value)


def test_scaled_log_mgf_converges_to_limit(bernoulli_ar1):
    theta = 0.2
    target = limit_cgf(bernoulli_ar1, theta)
    gaps = [abs(log_mgf_exact(bernoulli_ar1, theta, n) / n - target) for n in (10**2, 10**3, 10**4)]
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-2
