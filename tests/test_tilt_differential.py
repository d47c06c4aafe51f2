"""Differential checks of the tilt recursion against the quadratic reference loop.

``tilt_recursion`` runs the offspring sequence's loop: one running sum for
a geometric Poisson kernel, a dot product over the whole history for other
decay laws, and each lag's log-MGF for explicit laws.  ``tilt_reference``
keeps the loop these replaced, run over the whole history.  Explicit laws and non-geometric Poisson families must match it
bitwise; the geometric running sum rounds differently, so it must match to
1e-11.  On the Hawkes fixture it also agrees to 1e-11 with the reference
cut at 39 lags, where the package once cut that history.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta

from inarlim import (
    Bernoulli,
    Binomial,
    Constant,
    ExplicitOffspring,
    FiniteDecay,
    FiniteSupport,
    Geometric,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    critical_tilt,
    tilt_recursion,
)
from tilt_reference import tilt_recursion_reference

VALUE_TOL = 1e-11
TOTAL_REL_TOL = 1e-10
# above the critical tilt the values grow without bound before they overflow
BLOWUP_VALUE = 30.0
BLOWUP_TOL = 1e-9


def _lag_law(kind: int, mean: float, split: float):
    """A lag law with the given mean: Bernoulli, Binomial(2), a three-point law or Geometric."""
    if kind == 0:
        return Bernoulli(mean)
    if kind == 1:
        return Binomial(2, mean / 2.0)
    if kind == 2:
        p2 = split * mean / 2.0
        p1 = mean - 2.0 * p2
        return FiniteSupport((1.0 - p1 - p2, p1, p2))
    return Geometric(1.0 / (1.0 + mean))


immigration = st.one_of(
    st.floats(0.2, 0.8).map(Bernoulli),
    st.floats(0.5, 2.0).map(Poisson),
    st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)).map(
        lambda w: FiniteSupport((1.0 - (w[1] + w[2]) / sum(w), w[1] / sum(w), w[2] / sum(w)))
    ),
)


@st.composite
def explicit_models(draw):
    """1-3 lags of Bernoulli, Binomial, three-point or Geometric laws with mean_l1 in [0.05, 0.9]."""
    mean_l1 = draw(st.floats(0.05, 0.9))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
    laws = tuple(
        _lag_law(draw(st.integers(0, 3)), mean_l1 * w / sum(weights), draw(st.floats(0.0, 1.0)))
        for w in weights
    )
    return InarModel(draw(immigration), ExplicitOffspring(laws))


@st.composite
def windowed_models(draw):
    """Power-law or finite-list Poisson families with total mass in [0.05, 0.9]."""
    mass = draw(st.floats(0.05, 0.9))
    if draw(st.booleans()):
        a = draw(st.floats(1.6, 6.0))
        decay = PowerLawDecay(c=mass / float(zeta(a, 1)), a=a)
    else:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(any))
        decay = FiniteDecay(tuple(mass * (w / sum(weights)) for w in weights))
    return InarModel(draw(immigration), PoissonOffspring(decay))


@st.composite
def geometric_models(draw):
    mass = draw(st.floats(0.05, 0.9))
    r = draw(st.floats(0.05, 0.95))
    return InarModel(draw(immigration), PoissonOffspring(GeometricDecay(c=mass * (1.0 - r), r=r)))


AR1 = InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.4),)))
TWO_LAG = InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.35), Bernoulli(0.25))))
HAWKES = InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(c=0.25, r=0.5)))
ONE_LAG_POISSON = InarModel(Poisson(1.0), PoissonOffspring(FiniteDecay((0.6,))))
# expm1(710) overflows at the zero-mean lag 1, so f_2 = 710 and the tilts diverge at step 3
ZERO_FIRST_LAG = InarModel(Poisson(1.0), PoissonOffspring(FiniteDecay((0.0, 0.5))))
ZERO_FIRST_LAG_FRAC = 710.0 / critical_tilt(ZERO_FIRST_LAG)[0]
# f_2 = f_1 and then the tilts move again: one repeated tilt is not a repeated state
ZERO_FIRST_LAG_LIST = InarModel(Bernoulli(0.5), ExplicitOffspring((Constant(0), Bernoulli(0.5))))

# fractions of the critical tilt: below it the values converge, above it they blow up
tilt_fractions = st.one_of(st.floats(-3.0, 0.9), st.floats(1.1, 3.0))
horizons = st.one_of(st.integers(1, 3000), st.integers(3000, 30_000))


def _same_as_reference(m, theta, n):
    rec = tilt_recursion(m, theta, n)
    values, total, diverged_at = tilt_recursion_reference(m, theta, n)
    assert rec.diverged_at == diverged_at
    assert np.array_equal(rec.values, values)
    assert rec.log_mgf_total == total


@settings(max_examples=40)
@given(m=explicit_models(), frac=tilt_fractions, n=horizons)
@example(m=AR1, frac=0.5, n=2000)
@example(m=AR1, frac=0.5, n=1)
@example(m=TWO_LAG, frac=2.0, n=2)
@example(m=ZERO_FIRST_LAG_LIST, frac=0.5, n=2000)
def test_explicit_laws_match_the_reference_bitwise(m, frac, n):
    _same_as_reference(m, frac * critical_tilt(m)[0], n)


# one law of each kind the lag lists draw, each of mean 0.4
ONE_LAG_LAWS = [Bernoulli(0.4), Binomial(2, 0.2), Poisson(0.4), Geometric(1.0 / 1.4),
                FiniteSupport((0.7, 0.2, 0.1)), Constant(0)]


@pytest.mark.parametrize("law", ONE_LAG_LAWS, ids=lambda law: type(law).__name__)
def test_one_lag_loop_keeps_the_general_loops_bits(law):
    """A one-lag list's tilts and total, bytes and signed zeros included, equal its twin's.

    The twin adds a Constant(0) lag 2, so it runs the general loop.
    ``np.array_equal`` counts -0.0 equal to 0.0, so the bytes are compared:
    at a tilt of -0.0 a Bernoulli, Binomial or Poisson log-MGF is -0.0.
    """
    one = InarModel(Bernoulli(0.5), ExplicitOffspring((law,)))
    twin = InarModel(Bernoulli(0.5), ExplicitOffspring((law, Constant(0))))
    tc, _ = critical_tilt(one)
    half = 0.5 * tc if math.isfinite(tc) else 0.5
    for theta in (-0.0, 0.0, half, -half):
        for n in (1, 2, 300):
            rec, ref = tilt_recursion(one, theta, n), tilt_recursion(twin, theta, n)
            assert rec.values.tobytes() == ref.values.tobytes(), (theta, n)
            assert repr(rec.log_mgf_total) == repr(ref.log_mgf_total), (theta, n)


@settings(max_examples=25)
@given(m=windowed_models(), frac=tilt_fractions, n=horizons)
@example(m=ONE_LAG_POISSON, frac=0.5, n=2000)
@example(m=ZERO_FIRST_LAG, frac=ZERO_FIRST_LAG_FRAC, n=5)
@example(m=ZERO_FIRST_LAG, frac=0.5, n=1)
@example(m=ONE_LAG_POISSON, frac=2.0, n=2)
@example(m=ZERO_FIRST_LAG, frac=0.5, n=2000)
def test_windowed_poisson_families_match_the_reference_bitwise(m, frac, n):
    _same_as_reference(m, frac * critical_tilt(m)[0], n)


@settings(max_examples=40)
@given(m=geometric_models(), frac=tilt_fractions, n=horizons)
@example(m=HAWKES, frac=2.0, n=2000)
@example(m=HAWKES, frac=0.5, n=1)
@example(m=HAWKES, frac=2.0, n=2)
def test_geometric_kernels_match_the_reference(m, frac, n):
    theta = frac * critical_tilt(m)[0]
    rec = tilt_recursion(m, theta, n)
    values, total, diverged_at = tilt_recursion_reference(m, theta, n)
    assert rec.diverged_at == diverged_at
    if frac < 1.0:
        assert diverged_at is None
        assert np.abs(rec.values - values).max() <= VALUE_TOL
        assert abs(rec.log_mgf_total - total) <= TOTAL_REL_TOL * abs(total)
    else:
        # past BLOWUP_VALUE each step multiplies the relative rounding error by about the
        # tilt itself, so the last tilts before the overflow agree to few digits
        sane = np.abs(values) <= BLOWUP_VALUE
        assert np.abs(rec.values - values)[sane].max(initial=0.0) <= BLOWUP_TOL
        if math.isinf(total):
            assert rec.log_mgf_total == math.inf
        else:
            assert abs(rec.log_mgf_total - total) <= TOTAL_REL_TOL * abs(total)


@pytest.mark.parametrize(
    "offspring",
    [
        ExplicitOffspring((Bernoulli(0.35), Binomial(2, 0.1), Geometric(1 / 1.05))),
        PoissonOffspring(PowerLawDecay(c=0.3, a=2.0)),
        PoissonOffspring(FiniteDecay((0.2, 0.0, 0.3))),
    ],
    ids=["explicit", "power_law", "finite_decay"],
)
def test_longest_reference_horizon_bitwise(offspring):
    m = InarModel(Poisson(1.0), offspring)
    _same_as_reference(m, 0.5 * critical_tilt(m)[0], 30_000)


# 39 lags: the mass of the Hawkes kernel past them is below 1e-12
@pytest.mark.parametrize("window", [39, None], ids=["usual_window", "whole_history"])
def test_geometric_kernel_at_the_longest_reference_horizon(hawkes, window):
    theta = 0.5 * critical_tilt(hawkes)[0]
    rec = tilt_recursion(hawkes, theta, 30_000)
    values, total, _ = tilt_recursion_reference(hawkes, theta, 30_000, window=window)
    assert np.abs(rec.values - values).max() <= VALUE_TOL
    assert abs(rec.log_mgf_total - total) <= TOTAL_REL_TOL * total
