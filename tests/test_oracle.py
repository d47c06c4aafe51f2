import math

import pytest
from hypothesis import given, reject, strategies as st

from inarlim import (
    Bernoulli,
    Binomial,
    Constant,
    EnumerationError,
    ExplicitOffspring,
    FiniteSupport,
    InarModel,
    Poisson,
    RandomStream,
    enumerate_sum_distribution,
    gbar_tables,
    log_mgf_exact,
    oracle_log_mgf,
    oracle_moments,
    simulate,
)


def test_iid_bernoulli_sum():
    m = InarModel(Bernoulli(0.5), ExplicitOffspring(()))
    law = enumerate_sum_distribution(m, 2)
    assert law.probs == {0: 0.25, 1: 0.5, 2: 0.25}


def test_single_lag_zero_probability(bernoulli_ar1):
    law = enumerate_sum_distribution(bernoulli_ar1, 2)
    assert law.probs[0] == pytest.approx(0.25, abs=1e-14)


def test_staircase_point_mass():
    m = InarModel(Constant(1), ExplicitOffspring((Constant(1),)))
    law = enumerate_sum_distribution(m, 3)
    assert law.probs == {6: 1.0}


def test_oracle_log_mgf_values(bernoulli_ar1):
    assert oracle_log_mgf(bernoulli_ar1, 0.0, 3) == pytest.approx(0.0, abs=1e-14)
    assert oracle_log_mgf(bernoulli_ar1, math.log(2), 2) == pytest.approx(math.log(2.85), abs=1e-13)
    m = InarModel(Bernoulli(0.5), ExplicitOffspring(()))
    assert oracle_log_mgf(m, 1.0, 2) == pytest.approx(2 * math.log(0.5 + 0.5 * math.e), abs=1e-13)


def test_oracle_moments(bernoulli_ar1):
    m = InarModel(Constant(2), ExplicitOffspring(()))
    assert oracle_moments(m, 3) == (6.0, 0.0)
    mean, var = oracle_moments(bernoulli_ar1, 2)
    assert mean == pytest.approx(1.2, abs=1e-13)
    assert var > 0


def test_scaled_mean_trends_to_lln_limit(bernoulli_ar1):
    # mean of S_n / n creeps toward the long-run mean 5/6 as n grows
    gaps = []
    for n in (2, 4, 6):
        mean, _ = oracle_moments(bernoulli_ar1, n)
        gaps.append(abs(mean / n - 5 / 6))
    assert gaps[2] < gaps[0]


def test_unbounded_immigration_rejected():
    m = InarModel(Poisson(1.0), ExplicitOffspring((Bernoulli(0.4),)))
    with pytest.raises(EnumerationError):
        enumerate_sum_distribution(m, 2)


def test_unbounded_offspring_rejected():
    m = InarModel(Bernoulli(0.5), ExplicitOffspring((Poisson(0.4),)))
    with pytest.raises(EnumerationError):
        enumerate_sum_distribution(m, 2)


def test_poisson_family_rejected(hawkes):
    with pytest.raises(EnumerationError):
        enumerate_sum_distribution(hawkes, 2)


def test_state_explosion_rejected():
    m = InarModel(
        FiniteSupport((0.2,) * 5),
        ExplicitOffspring((Binomial(3, 0.2), Binomial(3, 0.2))),
    )
    with pytest.raises(EnumerationError):
        enumerate_sum_distribution(m, 8)


def test_law_is_normalized_and_nonnegative(two_lag):
    law = enumerate_sum_distribution(two_lag, 5)
    assert abs(math.fsum(law.probs.values()) - 1.0) <= 1e-12
    assert all(p >= 0 for p in law.probs.values())


def test_simulator_agrees_in_total_variation(bernoulli_ar1):
    n, reps = 3, 100_000
    law = enumerate_sum_distribution(bernoulli_ar1, n)
    counts = {}
    for r in range(reps):
        s = int(simulate(bernoulli_ar1, n, RandomStream(seed=1234, stream=r)).counts.sum())
        counts[s] = counts.get(s, 0) + 1
    empirical = {k: v / reps for k, v in counts.items()}
    assert law.total_variation(empirical) < 0.01


@st.composite
def bounded_lag(draw, mean):
    """A Bernoulli, binomial or three-point law on {0, 1, 2} with the given mean."""
    kind = draw(st.sampled_from(("bernoulli", "binomial", "three_point")))
    if kind == "bernoulli":
        return Bernoulli(mean)
    if kind == "binomial":
        m = draw(st.integers(2, 3))
        return Binomial(m, mean / m)
    two = draw(st.floats(0.0, 0.5)) * mean  # P(2); P(1) = mean - 2 P(2)
    return FiniteSupport((1.0 - mean + two, mean - 2.0 * two, two))


@st.composite
def bounded_models(draw):
    """1-3 lags with total offspring mean in (0, 0.95) and immigration on {0, 1, 2, 3}."""
    total = draw(st.floats(0.01, 0.94))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3))
    laws = tuple(draw(bounded_lag(total * w / sum(weights))) for w in weights)
    # subnormal probabilities carry too few digits for a 1e-12 comparison
    prob = st.floats(0.0, 1.0, allow_subnormal=False)
    immigration = draw(st.one_of(
        st.builds(Bernoulli, prob),
        st.builds(Binomial, st.integers(1, 3), prob),
        st.builds(Constant, st.integers(0, 2)),
        st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3).map(
            lambda w: FiniteSupport(tuple(v / math.fsum(w) for v in w))
        ),
    ))
    return InarModel(immigration, ExplicitOffspring(laws))


@given(m=bounded_models(), n=st.integers(1, 5))
def test_recursions_match_the_oracle_on_random_bounded_models(m, n):
    """The tilt recursion's log-MGF and the g-table moment identity against exact enumeration:
    E S_n = E[eps] sum g1 and Var S_n = Var[eps] sum g1^2 + 2 E[eps] sum g2."""
    try:
        oracle = [oracle_log_mgf(m, theta, n) for theta in (-0.7, 0.3)]
        mean, var = oracle_moments(m, n)
    except EnumerationError:
        reject()
    for theta, exact in zip((-0.7, 0.3), oracle):
        assert abs(log_mgf_exact(m, theta, n) - exact) <= 1e-12
    tables = gbar_tables(m, n)
    eps_mean, eps_var = m.immigration.mean(), m.immigration.variance()
    assert eps_mean * tables.sum_g1 == pytest.approx(mean, rel=1e-12, abs=1e-300)
    # the oracle's variance is E[S_n^2] - (E S_n)^2, so it is exact only to rounding of E[S_n^2]
    assert eps_var * tables.sum_g1_sq + 2.0 * eps_mean * tables.sum_g2 == pytest.approx(
        var, rel=1e-12, abs=1e-12 * (var + mean**2)
    )
