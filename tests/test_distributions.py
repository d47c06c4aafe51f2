import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from inarlim import (
    Bernoulli,
    Binomial,
    ConfigError,
    Constant,
    FiniteSupport,
    Geometric,
    Poisson,
    RandomStream,
    dist_from_spec,
)

ALL_DISTS = [
    Constant(3),
    Constant(0),
    Bernoulli(0.4),
    Bernoulli(0.0),
    Binomial(5, 0.3),
    Poisson(1.5),
    Poisson(0.0),
    Geometric(0.5),
    Geometric(1.0),
    FiniteSupport((0.25, 0.75)),
    FiniteSupport((0.1, 0.0, 0.9)),
]

BOUNDED_DISTS = [d for d in ALL_DISTS if d.support_max() is not None]


def test_means():
    assert Poisson(1.5).mean() == 1.5
    assert Bernoulli(0.4).mean() == 0.4
    assert Geometric(0.5).mean() == pytest.approx(1.0, abs=1e-15)


def test_variances():
    assert Poisson(1.5).variance() == 1.5
    assert Bernoulli(0.4).variance() == pytest.approx(0.24, abs=1e-15)
    assert Constant(3).variance() == 0.0


def test_log_mgf_values():
    assert Poisson(0.5).log_mgf(math.log(2)) == pytest.approx(0.5, abs=1e-14)
    for d in ALL_DISTS:
        assert d.log_mgf(0.0) == 0.0
    assert Geometric(0.5).log_mgf(math.log(2)) == math.inf


def test_log_mgf_domain_sup():
    assert Poisson(2.0).log_mgf_domain_sup() == math.inf
    assert Geometric(0.5).log_mgf_domain_sup() == pytest.approx(math.log(2), abs=1e-15)
    assert FiniteSupport((0.25, 0.75)).log_mgf_domain_sup() == math.inf


BERNOULLI_PS = (0.0, 1e-9, 0.05, 0.3, 0.5, 0.77, 0.999, 1.0)
GRID_TS = (-30.0, -5.0, -1.0, -1e-3, 0.0, 1e-3, 0.7, 5.0, 30.0, 300.0)


def test_bernoulli_is_binomial_with_one_trial_bitwise():
    for p in BERNOULLI_PS:
        b, bin1 = Bernoulli(p), Binomial(1, p)
        assert b.mean() == bin1.mean()
        assert b.variance() == bin1.variance()
        assert b.support_max() == bin1.support_max()
        for t in GRID_TS:
            assert b.log_mgf(t) == bin1.log_mgf(t), (p, t)
            assert b.log_mgf_prime(t) == bin1.log_mgf_prime(t), (p, t)


def test_bernoulli_pmf_and_draws_pinned():
    b = Bernoulli(0.3)
    assert [b.pmf(k) for k in (-1, 0, 1, 2)] == [0.0, 0.7, 0.3, 0.0]
    assert Bernoulli(0.7).pmf(0) == 0.30000000000000004
    draws = b.sample(RandomStream(seed=2024).generator(), size=20)
    assert draws.dtype == np.int64
    assert draws.tolist() == [0, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_point_mass_binomial_at_very_negative_tilts():
    # p = 1 is the point mass at m: log-MGF m t and slope m, even where e^t underflows
    for d, m in ((Binomial(2, 1.0), 2), (Bernoulli(1.0), 1)):
        for t in (-40.0, -800.0):
            assert d.log_mgf(t) == m * t
            assert d.log_mgf_prime(t) == m
        assert d.support_min() == d.support_max() == m


def test_support_min():
    assert Constant(3).support_min() == 3
    assert Binomial(5, 0.3).support_min() == 0
    assert Bernoulli(0.4).support_min() == 0
    assert FiniteSupport((0.0, 0.0, 0.4, 0.6)).support_min() == 2
    assert Poisson(1.5).support_min() == 0
    assert Geometric(0.5).support_min() == 0


INFINITE_TILT_LAWS = [
    Constant(0),
    Constant(2),
    Bernoulli(0.4),
    Bernoulli(0.0),
    Binomial(5, 0.3),
    Binomial(2, 1.0),
    Binomial(3, 0.0),
    Poisson(1.5),
    Poisson(0.0),
    Geometric(0.5),
    Geometric(1.0),
    FiniteSupport((0.3, 0.5, 0.2)),
    FiniteSupport((0.0, 0.5, 0.5)),
    FiniteSupport((1.0,)),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", INFINITE_TILT_LAWS, ids=repr)
def test_log_mgf_limits_at_infinite_tilts(d):
    lo, hi = d.support_min(), d.support_max()
    assert d.log_mgf(-math.inf) == (math.log(d.pmf(0)) if lo == 0 else -math.inf)
    assert d.log_mgf(math.inf) == (0.0 if hi == 0 else math.inf)
    assert d.log_mgf_prime(-math.inf) == lo
    assert d.log_mgf_prime(math.inf) == (math.inf if hi is None else hi)
    for t, k in ((-800.0, lo), (800.0, hi)):
        if k is None:
            assert d.log_mgf(t) == d.log_mgf_prime(t) == math.inf
        else:
            # all but about exp(-800) of the tilted mass sits on the extreme support point k
            assert d.log_mgf(t) == pytest.approx(t * k + math.log(d.pmf(k)), rel=1e-12, abs=1e-300)
            assert d.log_mgf_prime(t) == pytest.approx(k, rel=1e-12, abs=1e-300)


def test_pmf_values():
    assert Bernoulli(0.4).pmf(1) == 0.4
    assert Poisson(1.0).pmf(0) == pytest.approx(math.exp(-1), abs=1e-15)
    assert FiniteSupport((0.25, 0.75)).pmf(5) == 0.0


@pytest.mark.parametrize("d", ALL_DISTS, ids=repr)
def test_log_mgf_derivatives_match_moments(d):
    # central differences at 0 recover the exact mean and variance
    h = 1e-5
    first = (d.log_mgf(h) - d.log_mgf(-h)) / (2 * h)
    second = (d.log_mgf(h) - 2 * d.log_mgf(0.0) + d.log_mgf(-h)) / h**2
    assert first == pytest.approx(d.mean(), abs=1e-6)
    assert second == pytest.approx(d.variance(), abs=1e-4)


@pytest.mark.parametrize("d", ALL_DISTS, ids=repr)
def test_closed_form_prime_matches_differences(d):
    h = 1e-6
    for t in (-0.7, 0.0, 0.3):
        if t + h >= d.log_mgf_domain_sup():
            continue
        num = (d.log_mgf(t + h) - d.log_mgf(t - h)) / (2 * h)
        assert d.log_mgf_prime(t) == pytest.approx(num, abs=1e-5, rel=1e-5)


@given(
    t1=st.floats(-5, 0.5),
    t2=st.floats(-5, 0.5),
    lam=st.floats(0.01, 0.99),
    idx=st.integers(0, len(ALL_DISTS) - 1),
)
def test_log_mgf_convex(t1, t2, lam, idx):
    d = ALL_DISTS[idx]
    if t1 > t2:
        t1, t2 = t2, t1
    if t2 >= d.log_mgf_domain_sup():
        return
    mid = lam * t1 + (1 - lam) * t2
    assert d.log_mgf(mid) <= lam * d.log_mgf(t1) + (1 - lam) * d.log_mgf(t2) + 1e-12


@pytest.mark.parametrize("d", BOUNDED_DISTS, ids=repr)
def test_bounded_support_pmf_consistency(d):
    support = range(d.support_max() + 1)
    total = math.fsum(d.pmf(k) for k in support)
    assert abs(total - 1.0) <= 1e-12
    for t in (-1.0, 0.3, 1.2):
        direct = math.fsum(math.exp(t * k) * d.pmf(k) for k in support)
        assert math.exp(d.log_mgf(t)) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("d", ALL_DISTS, ids=repr)
def test_sampling_reproducible(d):
    a = d.sample(RandomStream(seed=123).generator())
    b = d.sample(RandomStream(seed=123).generator())
    assert a == b
    va = d.sample(RandomStream(seed=5, stream=2).generator(), size=50)
    vb = d.sample(RandomStream(seed=5, stream=2).generator(), size=50)
    assert (va == vb).all()
    assert (va >= 0).all()


def test_fixed_samples():
    rng = RandomStream(seed=0).generator()
    assert Constant(3).sample(rng) == 3
    assert Bernoulli(0.0).sample(rng) == 0
    assert Geometric(1.0).sample(rng) == 0


def test_poisson_sampling_mean():
    draws = Poisson(4.0).sample(RandomStream(seed=99).generator(), size=10**6)
    assert abs(draws.mean() - 4.0) < 0.01


def test_sample_sum_matches_law():
    # Poisson shortcut and the generic route agree in distribution
    rng = RandomStream(seed=3).generator()
    shortcut = np.array([Poisson(0.7).sample_sum(rng, 5) for _ in range(20000)])
    rng = RandomStream(seed=4).generator()
    direct = np.array([int(Poisson(0.7).sample(rng, size=5).sum()) for _ in range(20000)])
    assert abs(shortcut.mean() - 3.5) < 0.06
    assert abs(direct.mean() - 3.5) < 0.06
    assert abs(shortcut.var() - direct.var()) < 0.2


def test_sample_sum_zero_count_draws_nothing():
    rng = RandomStream(seed=8).generator()
    state = rng.bit_generator.state
    assert Bernoulli(0.4).sample_sum(rng, 0) == 0
    assert rng.bit_generator.state == state


def test_spec_round_trip():
    for d in ALL_DISTS:
        assert dist_from_spec(d.to_spec()) == d


def test_spec_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        dist_from_spec({"type": "poisson", "lambda": 1.0, "mean": 1.0})
    with pytest.raises(ConfigError):
        dist_from_spec({"type": "zeta", "s": 2.0})
    with pytest.raises(ConfigError):
        dist_from_spec({"type": "bernoulli"})
    with pytest.raises(ConfigError):
        dist_from_spec([1, 2])


def test_invalid_parameters_rejected():
    with pytest.raises(ConfigError):
        Bernoulli(1.5)
    with pytest.raises(ConfigError):
        Geometric(0.0)
    with pytest.raises(ConfigError):
        Binomial(0, 0.5)
    with pytest.raises(ConfigError):
        Constant(-1)
    with pytest.raises(ConfigError):
        FiniteSupport((0.5, 0.4))
