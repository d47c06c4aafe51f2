"""Differential checks of the whole-history sums against the loops they replaced.

Each decay law sums its history exactly: a geometric kernel in one running
sum, a power law and a finite list in one dot product per step.  The sums
are checked against a direct dot over the whole history, the expansion
tables against the windowed loop of ``history_reference`` run over the
whole history, and the martingale's conditional means against the per-lag
loop.  Lag lists and power laws take the same dot products as the windowed
loop, so their tables match it bitwise.  A running sum rounds differently
from a dot, so geometric tables match it to GEOMETRIC_TABLE_RTOL.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta

from inarlim import (
    FiniteDecay,
    GeometricDecay,
    PowerLawDecay,
    RandomStream,
    gbar_tables,
    martingale_diagnostic,
    simulate,
)
from history_reference import conditional_means_reference, gbar_tables_reference
from test_tilt_differential import explicit_models, geometric_models, windowed_models

# relative to the sum of the absolute terms; a running sum with ratio r
# gathers about 2 / (1 - r) ulps, 40 at r = 0.95
HISTORY_SUM_RTOL = 1e-13
# relative to each table's limit; on 210 random kernels at n = 3000 (mass up
# to 0.9, r up to 0.95) the largest gap was 2.9e-14
GEOMETRIC_TABLE_RTOL = 1e-12


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
    return FiniteDecay(tuple(mass * w / sum(weights) for w in weights))


@settings(max_examples=60)
@given(decay=decays(), u=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=400))
def test_history_sums_match_a_direct_dot_over_the_whole_history(decay, u):
    u = np.array(u)
    n = len(u)
    alpha = decay.coefficients(n)
    step = decay.history_stepper(n)
    stepped = np.array([0.0] + [step(k, u[k - 1]) for k in range(1, n)])
    for k in range(1, n):
        terms = alpha[:k] * u[:k][::-1]
        assert abs(stepped[k] - terms.sum()) <= HISTORY_SUM_RTOL * np.abs(terms).sum()
    whole = decay.history_sums(u)
    assert whole[0] == 0.0
    assert np.all(np.abs(whole - stepped) <= HISTORY_SUM_RTOL * (1.0 + np.abs(stepped)))


def test_infinite_value_at_a_lag_with_zero_mean_adds_nothing():
    step = FiniteDecay((0.2, 0.0, 0.3)).history_stepper(5)
    # y_k = 0.2 u_{k-1} + 0.3 u_{k-3}; u_1 = inf meets the zero coefficient at k = 3
    assert [step(k, u) for k, u in enumerate((1.0, math.inf, 2.0, 3.0), start=1)] == [
        0.2, math.inf, 0.2 * 2.0 + 0.3 * 1.0, math.inf,
    ]
    assert GeometricDecay(0.25, 0.5).history_stepper(3)(1, math.inf) == math.inf
    assert GeometricDecay(0.0, 0.5).history_stepper(3)(1, math.inf) == 0.0


def _same_tables(m, n):
    tables = gbar_tables(m, n)
    g1, g1sq, g2 = gbar_tables_reference(m, n)
    assert np.array_equal(tables.g1, g1)
    assert np.array_equal(tables.g2, g2)
    assert tables.sum_g1_sq == float(g1sq.sum())


@settings(max_examples=40)
@given(m=explicit_models(), n=st.integers(1, 2000))
def test_lag_list_tables_match_the_windowed_loop_bitwise(m, n):
    _same_tables(m, n)


@settings(max_examples=25)
@given(m=windowed_models(), n=st.integers(1, 2000))
def test_power_law_and_finite_tables_match_the_windowed_loop_bitwise(m, n):
    _same_tables(m, n)


@settings(max_examples=40)
@given(m=geometric_models(), n=st.integers(1, 3000))
def test_geometric_tables_match_the_windowed_loop(m, n):
    tables = gbar_tables(m, n)
    g1, g1sq, g2 = gbar_tables_reference(m, n)
    assert np.abs(tables.g1 - g1).max() <= GEOMETRIC_TABLE_RTOL * tables.g1_limit
    assert np.abs(tables.g2 - g2).max() <= GEOMETRIC_TABLE_RTOL * tables.g2_limit


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
    step = decay.history_stepper(5)
    assert [step(k, 1.0) for k in range(1, 5)] == [0.0] * 4
