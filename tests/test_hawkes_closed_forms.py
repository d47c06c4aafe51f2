"""The discrete Hawkes process against its closed forms.

With Poisson offspring of total mass a and Poisson(nu) immigration, every
limit quantity of the paper is explicit (Wang's Hawkes deviation results):

* critical tilt theta_c = a - 1 - log a, attained;
* fixed point f(theta) = theta - a - W0(-a e^(theta - a)), W0 the principal
  Lambert W branch, since f = theta + a (e^f - 1);
* limiting CGF nu (e^f - 1), long-run mean nu / (1 - a), CLT variance
  nu / (1 - a)^3;
* large-deviation rate I(x) = x log(x / (nu + a x)) - x + a x + nu.

The decay kind (geometric, power law, finite list) changes none of them; a
is read from the model, so the zeta sums of the power law are not under
test.  Each tolerance follows from the solver's contract: roots are located
to ``ROOT_XTOL`` in the argument, and optima to ``OPT_XTOL``, whose error
in the optimal value is second order and far below rounding.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import lambertw, zeta

from inarlim import (
    FiniteDecay,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    clt_variance,
    critical_tilt,
    ldp_rate,
    limit_cgf,
    lln_mean,
    tilt_fixed_point,
)
from inarlim.asymptotics import ROOT_XTOL

ROUNDING = 64 * 2.0**-52  # a few dozen ulps of the terms of a closed form


@st.composite
def hawkes_models(draw):
    """(model, nu): Poisson(nu) immigration and a Poisson family of mass in [0.05, 0.9]."""
    mass = draw(st.floats(0.05, 0.9))
    kind = draw(st.sampled_from(["geometric", "power_law", "finite_list"]))
    if kind == "geometric":
        r = draw(st.floats(0.05, 0.95))
        decay = GeometricDecay(c=mass * (1.0 - r), r=r)
    elif kind == "power_law":
        exponent = draw(st.floats(1.5, 4.0))
        decay = PowerLawDecay(c=mass / float(zeta(exponent)), a=exponent)
    else:
        weights = [draw(st.floats(0.01, 1.0))]
        weights += draw(st.lists(st.floats(0.0, 1.0), max_size=4))
        decay = FiniteDecay(tuple(mass * w / sum(weights) for w in weights))
    nu = draw(st.floats(0.1, 5.0))
    return InarModel(Poisson(nu), PoissonOffspring(decay)), nu


@settings(max_examples=60, derandomize=True, deadline=None)
@given(drawn=hawkes_models())
def test_hawkes_limits_match_their_closed_forms(drawn):
    m, nu = drawn
    a = m.offspring.mean_l1()

    theta_c, attained = critical_tilt(m)
    assert attained
    assert theta_c == pytest.approx(a - 1.0 - math.log(a), rel=0, abs=ROUNDING)

    for frac in (-1.0, 0.3, 0.9):
        theta = frac * theta_c
        f = theta - a - lambertw(-a * math.exp(theta - a), 0).real
        assert tilt_fixed_point(m, theta) == pytest.approx(f, rel=0, abs=ROOT_XTOL)
        # f's error, scaled by the slope nu e^f of the CGF, plus as much again for rounding
        assert limit_cgf(m, theta) == pytest.approx(
            nu * math.expm1(f), rel=0, abs=2.0 * ROOT_XTOL * nu * math.exp(f)
        )

    mu = nu / (1.0 - a)
    assert lln_mean(m) == pytest.approx(mu, rel=ROUNDING)
    assert clt_variance(m) == pytest.approx(nu / (1.0 - a) ** 3, rel=ROUNDING)

    for frac in (0.5, 1.5, 3.0):
        x = frac * mu
        rate = x * math.log(x / (nu + a * x)) - x + a * x + nu
        # the rate is a difference of terms of size x and nu
        assert ldp_rate(m, x) == pytest.approx(rate, rel=0, abs=ROUNDING * (x + nu))
