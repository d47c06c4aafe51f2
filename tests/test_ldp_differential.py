"""Differential checks of the theory layer on random small models.

``ldp_rate`` solves the Legendre transform in the fixed-point variable with
one bracketed solve; ``theta_reference.ldp_rate_theta`` solves it in the tilt
with nested bisections.  The offspring CGF methods are checked against their
direct per-lag definitions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import zeta

from inarlim import (
    Bernoulli,
    Binomial,
    Constant,
    ExplicitOffspring,
    FiniteSupport,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    inar1_ldp_rate,
    ldp_rate,
    lln_mean,
)
from theta_reference import ldp_rate_theta

LDP_TOL = 1e-10


def _lag_law(kind: int, mean: float, split: float):
    """A lag law with the given mean: Bernoulli, Binomial(2 or 3) or a three-point law."""
    if kind == 0:
        return Bernoulli(mean)
    if kind in (1, 2):
        return Binomial(kind + 1, mean / (kind + 1))
    p2 = split * mean / 2.0
    p1 = mean - 2.0 * p2
    return FiniteSupport((1.0 - p1 - p2, p1, p2))


immigration = st.one_of(
    st.floats(0.2, 0.8).map(Bernoulli),
    st.floats(0.5, 2.0).map(Poisson),
    st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)).map(
        lambda w: FiniteSupport((1.0 - (w[1] + w[2]) / sum(w), w[1] / sum(w), w[2] / sum(w)))
    ),
)


@st.composite
def explicit_models(draw):
    """1-3 lags of Bernoulli, Binomial or three-point laws with mean_l1 in [0.05, 0.9]."""
    mean_l1 = draw(st.floats(0.05, 0.9))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
    laws = tuple(
        _lag_law(draw(st.integers(0, 3)), mean_l1 * w / sum(weights), draw(st.floats(0.0, 1.0)))
        for w in weights
    )
    return InarModel(draw(immigration), ExplicitOffspring(laws))


@st.composite
def poisson_family_models(draw):
    """Geometric or power-law Poisson families with total mass in [0.05, 0.9]."""
    mass = draw(st.floats(0.05, 0.9))
    if draw(st.booleans()):
        r = draw(st.floats(0.2, 0.8))
        decay = GeometricDecay(c=mass * (1.0 - r), r=r)
    else:
        a = draw(st.floats(1.6, 3.0))
        decay = PowerLawDecay(c=mass / float(zeta(a, 1)), a=a)
    return InarModel(Poisson(draw(st.floats(0.5, 2.0))), PoissonOffspring(decay))


models = st.one_of(explicit_models(), poisson_family_models())


@given(m=models, below=st.floats(0.2, 0.95), above=st.floats(1.05, 2.5))
def test_ldp_rate_matches_theta_space_reference(m, below, above):
    mu = lln_mean(m)
    for x in (below * mu, above * mu):
        assert abs(ldp_rate(m, x) - ldp_rate_theta(m, x)) <= LDP_TOL


@given(m=models, x=st.floats(-3.0, 3.0))
def test_offspring_cgf_matches_direct_sum(m, x):
    off = m.offspring
    if isinstance(off, PoissonOffspring):
        total = off.decay.total()
        assert off.cgf(x) == total * math.expm1(x)
        assert off.cgf_prime(x) == total * math.exp(x)
    else:
        assert off.cgf(x) == math.fsum(law.log_mgf(x) for law in off.laws)
        assert off.cgf_prime(x) == math.fsum(law.log_mgf_prime(x) for law in off.laws)


@pytest.mark.parametrize(
    "name", ["hawkes", "bernoulli_ar1", "two_lag", "finite_mix", "pure_immigration"]
)
def test_ldp_rate_matches_reference_on_fixtures(name, request):
    m = request.getfixturevalue(name)
    mu = lln_mean(m)
    for x in [-0.5, 0.0, mu] + [float(f) * mu for f in np.linspace(0.1, 3.0, 12)]:
        a, b = ldp_rate(m, x), ldp_rate_theta(m, x)
        assert a == b or abs(a - b) <= LDP_TOL, (name, x, a, b)


def test_single_lag_rate_unreachable_mean_is_infinite():
    # no offspring and immigration bounded by 1: means above 1 cannot occur
    assert inar1_ldp_rate(Bernoulli(0.5), Constant(0), 1.5) == math.inf
    assert ldp_rate(InarModel(Bernoulli(0.5), ExplicitOffspring((Constant(0),))), 1.5) == math.inf
