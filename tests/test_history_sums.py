"""Differential checks of the whole-history sums against the loops they replaced.

Each decay law sums its history exactly.  The history sums of a known
sequence (a running sum, an FFT or a direct convolution) are checked
against a direct dot over the whole history, the expansion tables against
the windowed loop of ``history_reference`` run over the whole history, and
the martingale's conditional means against the per-lag loop.  The tables
of lag lists of several lags take the same dot products as the windowed
loop, and a one-lag list the same products, so their tables match it
bitwise.  A running sum rounds differently from a dot, and a power law's
tables come from FFT series products, so geometric and power-law tables
match it to TABLE_RTOL.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta

from inarlim import (
    FiniteDecay,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    RandomStream,
    gbar_tables,
    martingale_diagnostic,
    simulate,
    tilt_recursion,
)
from history_reference import conditional_means_reference, gbar_tables_reference
from test_tilt_differential import (
    AR1,
    HAWKES,
    ONE_LAG_POISSON,
    TWO_LAG,
    ZERO_FIRST_LAG_LIST,
    explicit_models,
    geometric_models,
    windowed_models,
)

# relative to the sum of the absolute terms; a running sum with ratio r
# gathers about 2 / (1 - r) ulps, 40 at r = 0.95
HISTORY_SUM_RTOL = 1e-13
# relative to each table's limit; on 210 random geometric kernels at n = 3000
# (mass up to 0.9, r up to 0.95) the largest gap was 2.9e-14, and on 300
# random power laws (mass 0.05 to 0.95, a 1.6 to 12, n up to 3000) 5.6e-14
TABLE_RTOL = 1e-12


@st.composite
def decays(draw):
    """Geometric (r up to 0.95), power-law (a in [1.6, 6]) or finite decays of mass in [0.05, 0.9]."""
    mass = draw(st.floats(0.05, 0.9))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        r = draw(st.floats(0.05, 0.95))
        return GeometricDecay(c=mass * (1.0 - r), r=r)
    if kind == 1:
        a = draw(st.floats(1.6, 6.0))
        return PowerLawDecay(c=mass / float(zeta(a, 1)), a=a)
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(any))
    return FiniteDecay(tuple(mass * (w / sum(weights)) for w in weights))


@settings(max_examples=60)
@given(decay=decays(), u=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=400))
def test_history_sums_match_a_direct_dot_over_the_whole_history(decay, u):
    u = np.array(u)
    n = len(u)
    alpha = decay.coefficients(n)
    whole = decay.history_sums(u)
    assert whole[0] == 0.0
    for k in range(1, n):
        terms = alpha[:k] * u[:k][::-1]
        assert abs(whole[k] - terms.sum()) <= HISTORY_SUM_RTOL * (1.0 + np.abs(terms).sum())


def _poisson_family(decay):
    return InarModel(Poisson(1.0), PoissonOffspring(decay))


def test_infinite_value_at_a_lag_with_zero_mean_adds_nothing():
    # expm1(710) overflows: its +inf meets the zero means of lags 1 and 2, then the mean of lag 3
    rec = tilt_recursion(_poisson_family(FiniteDecay((0.0, 0.0, 0.3))), 710.0, 5)
    assert rec.values.tolist() == [710.0] * 3
    assert rec.diverged_at == 4
    # a positive mean at lag 1 makes f_2 infinite
    assert tilt_recursion(_poisson_family(FiniteDecay((0.2, 0.0, 0.3))), 710.0, 5).diverged_at == 2
    assert tilt_recursion(_poisson_family(GeometricDecay(0.25, 0.5)), 710.0, 3).diverged_at == 2
    rec = tilt_recursion(_poisson_family(GeometricDecay(0.0, 0.5)), 710.0, 3)
    assert rec.values.tolist() == [710.0] * 3
    assert rec.diverged_at is None


def _same_tables(m, n):
    tables = gbar_tables(m, n)
    g1, g1sq, g2 = gbar_tables_reference(m, n)
    assert np.array_equal(tables.g1, g1)
    assert np.array_equal(tables.g2, g2)
    assert tables.sum_g1_sq == float(g1sq.sum())


def _close_tables(m, n):
    tables = gbar_tables(m, n)
    g1, _, g2 = gbar_tables_reference(m, n)
    assert np.abs(tables.g1 - g1).max() <= TABLE_RTOL * tables.g1_limit
    assert np.abs(tables.g2 - g2).max() <= TABLE_RTOL * tables.g2_limit


@st.composite
def finite_list_models(draw):
    """Poisson families over 1 to 6 listed lags of total mass in [0.05, 0.9]."""
    mass = draw(st.floats(0.05, 0.9))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(any))
    return _poisson_family(FiniteDecay(tuple(mass * (w / sum(weights)) for w in weights)))


def _power_law_family(mass, a):
    return _poisson_family(PowerLawDecay(c=mass / float(zeta(a, 1)), a=a))


@st.composite
def power_law_models(draw):
    """Power-law Poisson families with total mass in [0.05, 0.95] and a in [1.6, 12]."""
    return _power_law_family(draw(st.floats(0.05, 0.95)), draw(st.floats(1.6, 12.0)))


@settings(max_examples=40)
@given(m=explicit_models(), n=st.integers(1, 2000))
@example(m=AR1, n=2000)
@example(m=AR1, n=1)
@example(m=TWO_LAG, n=2)
@example(m=ZERO_FIRST_LAG_LIST, n=2000)
def test_lag_list_tables_match_the_windowed_loop_bitwise(m, n):
    _same_tables(m, n)


@settings(max_examples=25)
@given(m=finite_list_models(), n=st.integers(1, 2000))
@example(m=ONE_LAG_POISSON, n=2000)
@example(m=_poisson_family(FiniteDecay((0.0, 0.5))), n=1)
@example(m=_poisson_family(FiniteDecay((0.0, 0.5))), n=2000)
def test_finite_list_tables_match_the_windowed_loop_bitwise(m, n):
    _same_tables(m, n)


@settings(max_examples=25)
@given(m=power_law_models(), n=st.integers(1, 3000))
@example(m=_poisson_family(PowerLawDecay(0.3, 2.0)), n=1000)
@example(m=_poisson_family(PowerLawDecay(0.0, 2.0)), n=1000)
@example(m=_poisson_family(PowerLawDecay(0.3, 2.0)), n=1)
@example(m=_poisson_family(PowerLawDecay(0.3, 2.0)), n=2)
@example(m=_power_law_family(0.05, 12.0), n=3000)
@example(m=_power_law_family(0.95, 12.0), n=3000)
def test_power_law_tables_match_the_windowed_loop(m, n):
    _close_tables(m, n)


@settings(max_examples=40)
@given(m=geometric_models(), n=st.integers(1, 3000))
@example(m=HAWKES, n=1)
@example(m=HAWKES, n=2)
def test_geometric_tables_match_the_windowed_loop(m, n):
    _close_tables(m, n)


any_model = st.one_of(explicit_models(), windowed_models(), geometric_models())


@settings(max_examples=40)
@given(m=any_model, n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_martingale_matches_the_per_lag_reference(m, n, seed):
    traj = simulate(m, n, RandomStream(seed=seed))
    ref = np.cumsum(traj.counts - conditional_means_reference(m, traj.counts))
    got = martingale_diagnostic(traj, m).m_path
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * n)


@pytest.mark.parametrize(
    "decay", [GeometricDecay(0.0, 0.5), PowerLawDecay(0.0, 2.0), FiniteDecay(())],
    ids=["geometric", "power_law", "finite"],
)
def test_history_sums_without_mass_are_zero(decay):
    assert decay.history_sums(np.arange(5.0)).tolist() == [0.0] * 5
    # every history sum of the recursions is 0 too: the tilts stay at theta, the tables at 1 and 0
    m = _poisson_family(decay)
    assert tilt_recursion(m, 1.0, 5).values.tolist() == [1.0] * 5
    tables = gbar_tables(m, 5)
    assert tables.g1.tolist() == [1.0] * 5
    assert tables.g2.tolist() == [0.0] * 5
