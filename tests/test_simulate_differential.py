"""Differential checks of ``simulate`` against the per-step reference loop.

``simulate_reference`` keeps the loop the package used before Poisson
families were drawn by generations and every lag list was drawn from a
tape of uniforms.  Lag lists of Bernoulli, finite-support and Constant
laws still draw the same numbers in the package, from the tape (where a
Constant reads no uniform), so they must match it bit for bit, stream by
stream.  Other lag lists and Poisson families
draw other numbers from the same law, so they must match it in law: by a
two-sample KS test on S_n, and by the exact mean and variance of S_n and
the exact mean of X_n from the expansion tables,

    E S_n = E[eps] sum_k g1(k),   Var S_n = Var[eps] sum_k g1(k)^2 + 2 E[eps] sum_k g2(k),
    E X_n = E[eps] g1(n).

The in-law checks run on a fixed set of examples (``derandomize``) with
fixed seeds, so each verdict is the same on every run.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy.special import zeta
from scipy.stats import ks_2samp

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
    RandomStream,
    gbar_tables,
    simulate,
)
from simulate_reference import simulate_reference

KS_LEVEL = 0.001
MOMENT_SIGMAS = 4.0


def _lag_law(kind: int, mean: float, split: float, trials: int):
    """A law with the given mean: Bernoulli, Binomial, Poisson, Geometric, three-point, or Constant(0)."""
    if kind == 0:
        return Bernoulli(mean)
    if kind == 1:
        return Binomial(trials, mean / trials)
    if kind == 2:
        return Poisson(mean)
    if kind == 3:
        return Geometric(1.0 / (1.0 + mean))
    if kind == 4:
        p2 = split * mean / 2.0
        p1 = mean - 2.0 * p2
        return FiniteSupport((1.0 - p1 - p2, p1, p2))
    return Constant(0)


# the kinds whose variates read the uniforms the reference loop reads: Bernoulli, three-point,
# and Constant(0), which reads none in either
TAPE_KINDS = (0, 4, 5)


@st.composite
def count_laws(draw, mean: float, kinds=tuple(range(6))):
    return _lag_law(draw(st.sampled_from(kinds)), mean, draw(st.floats(0.0, 1.0)), draw(st.integers(1, 3)))


@st.composite
def lag_list_models(draw, kinds=tuple(range(6))):
    """1-4 lags of the given kinds of count laws, with mean_l1 below 1.

    The immigration may also be Constant(0), Constant(1) or Constant(2).
    """
    mean_l1 = draw(st.floats(0.05, 0.95))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=4))
    laws = tuple(draw(count_laws(mean_l1 * w / sum(weights), kinds)) for w in weights)
    immigration = st.floats(0.01, 0.95).flatmap(lambda mean: count_laws(mean, kinds))
    immigration = st.one_of(immigration, st.integers(0, 2).map(Constant))
    return InarModel(draw(immigration), ExplicitOffspring(laws))


def _reads_old_draws(m: InarModel) -> bool:
    laws = (m.immigration, *m.offspring.laws)
    return all(isinstance(law, (Bernoulli, FiniteSupport, Constant)) for law in laws)


@settings(max_examples=60)
@given(m=lag_list_models(TAPE_KINDS), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
# mean_l1 = 0.9: 2,500-2,900 uniforms a path, over four or five blocks of the tape
@example(
    m=InarModel(FiniteSupport((0.5, 0.3, 0.2)), ExplicitOffspring((FiniteSupport((0.3, 0.5, 0.2)),))),
    n=300,
    seed=0,
)
# supercritical (mean 1.6): late steps each need more than a block; counts stay below 5,000
@example(
    m=InarModel(FiniteSupport((0.1, 0.2, 0.7)), ExplicitOffspring((FiniteSupport((0.1, 0.2, 0.7)),))),
    n=15,
    seed=0,
)
# Constant immigration and a Constant lag read no uniform, also in the steps past a block
@example(
    m=InarModel(Constant(1), ExplicitOffspring((FiniteSupport((0.1, 0.2, 0.7)), Constant(1)))),
    n=15,
    seed=0,
)
# Constant immigration and one drawn lag: the one-lag loop reads no uniform for the immigration,
# across a block refill and then in steps past a block
@example(
    m=InarModel(Constant(1), ExplicitOffspring((FiniteSupport((0.1, 0.2, 0.7)),))),
    n=15,
    seed=0,
)
@example(m=InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.4),))), n=1, seed=0)
@example(m=InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.35), Bernoulli(0.25)))), n=2, seed=0)
def test_lag_lists_draw_the_reference_numbers_bitwise(m, n, seed):
    assert _reads_old_draws(m)
    for r in range(3):
        stream = RandomStream(seed=seed, stream=r)
        assert np.array_equal(simulate(m, n, stream).counts, simulate_reference(m, n, stream).counts)


@st.composite
def one_lag_models(draw):
    """One lag of any kind, mean 0.05-0.95, and immigration of any kind or Constant(0), (1) or (2)."""
    lag = draw(count_laws(draw(st.floats(0.05, 0.95))))
    immigration = st.floats(0.01, 0.95).flatmap(count_laws)
    return InarModel(draw(st.one_of(immigration, st.integers(0, 2).map(Constant))), ExplicitOffspring((lag,)))


def _with_point_lag(m: InarModel) -> InarModel:
    """The same list with a Constant(0) lag 2: drawn by the general tape loop, from the same uniforms."""
    return InarModel(m.immigration, ExplicitOffspring((*m.offspring.laws, Constant(0))))


@settings(max_examples=60)
@given(m=one_lag_models(), n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
# mean 0.9 at lag 1: over 2,000 uniforms a path, across several block refills
@example(m=InarModel(Poisson(0.5), ExplicitOffspring((Poisson(0.9),))), n=300, seed=0)
@example(m=InarModel(Geometric(0.6), ExplicitOffspring((Geometric(1.0 / 1.9),))), n=300, seed=1)
@example(m=InarModel(Binomial(3, 0.3), ExplicitOffspring((Binomial(2, 0.45),))), n=300, seed=2)
# supercritical (mean 1.6 to 2): late steps each need more than a block
@example(m=InarModel(Poisson(1.0), ExplicitOffspring((Poisson(1.6),))), n=15, seed=0)
@example(m=InarModel(Geometric(0.5), ExplicitOffspring((Geometric(1.0 / 2.6),))), n=15, seed=0)
@example(m=InarModel(Constant(1), ExplicitOffspring((Binomial(3, 2.0 / 3.0),))), n=15, seed=0)
def test_one_lag_loop_draws_the_general_loops_numbers_bitwise(m, n, seed):
    general = _with_point_lag(m)
    for r in range(3):
        stream = RandomStream(seed=seed, stream=r)
        assert np.array_equal(simulate(m, n, stream).counts, simulate(general, n, stream).counts)


@st.composite
def poisson_family_models(draw):
    """Geometric (r <= 0.9), power-law (a in [1.6, 6]) or finite decays with mass at most 0.8.

    The immigration reaches a Poisson mean of 10, so that some first
    generations are drawn by child time rather than child by child.
    """
    mass = draw(st.floats(0.05, 0.8))
    kind = draw(st.integers(0, 2))
    if kind == 0:
        r = draw(st.floats(0.05, 0.9))
        decay = GeometricDecay(c=mass * (1.0 - r), r=r)
    elif kind == 1:
        a = draw(st.floats(1.6, 6.0))
        decay = PowerLawDecay(c=mass / float(zeta(a, 1)), a=a)
    else:
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).filter(any))
        decay = FiniteDecay(tuple(mass * (w / sum(weights)) for w in weights))
    imm = draw(
        st.one_of(
            st.floats(0.1, 0.9).map(Bernoulli),
            st.floats(0.2, 10.0).map(Poisson),
            st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)).map(
                lambda w: FiniteSupport(tuple(v / sum(w) for v in w))
            ),
        )
    )
    return InarModel(imm, PoissonOffspring(decay))


def _sums_and_lasts(sim, m, n, reps, seed):
    """S_n and X_n of each replication, as floats; replication r uses stream r."""
    paths = [sim(m, n, RandomStream(seed=seed, stream=r)).counts for r in range(reps)]
    return np.array([[x.sum(), x[-1]] for x in paths], dtype=np.float64).T


def _assert_exact_moments(sums, lasts, m, n):
    """The mean and variance of S_n and the mean of X_n, within MOMENT_SIGMAS standard errors."""
    reps = len(sums)
    tables = gbar_tables(m, n)
    imm = m.immigration
    mean = imm.mean() * tables.sum_g1
    var = imm.variance() * tables.sum_g1_sq + 2.0 * imm.mean() * tables.sum_g2
    assert abs(sums.mean() - mean) <= MOMENT_SIGMAS * math.sqrt(var / reps)
    # E X_n = E[eps] g1(n): the last step, where a lag drawn past the horizon would land
    assert abs(lasts.mean() - imm.mean() * tables.g1[-1]) <= MOMENT_SIGMAS * lasts.std() / math.sqrt(reps)
    # standard error of the sample variance, from the sample's fourth central moment
    centred = (sums - sums.mean()) ** 2
    assert abs(centred.mean() * reps / (reps - 1) - var) <= MOMENT_SIGMAS * centred.std() / math.sqrt(reps)


@settings(max_examples=30, derandomize=True)
@given(m=lag_list_models().filter(lambda m: not _reads_old_draws(m)), n=st.integers(1, 120))
# Binomial, Poisson and Geometric lags: each variate reads one uniform by inverse CDF
@example(m=InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.3), Binomial(2, 0.2)))), n=120)
@example(m=InarModel(Poisson(1.0), ExplicitOffspring((Poisson(0.3), Geometric(1.0 / 1.4)))), n=120)
def test_other_lag_lists_match_the_reference_in_law(m, n):
    reps = 400
    ours, lasts = _sums_and_lasts(simulate, m, n, reps, 1)
    theirs = _sums_and_lasts(simulate_reference, m, n, reps, 2)[0]
    assert ks_2samp(ours, theirs, method="asymp").pvalue > KS_LEVEL
    _assert_exact_moments(ours, lasts, m, n)


# mass 0.95 with Poisson(10) immigration: the first generations go by child time, later ones child by
# child, and now and then one of those is followed by one by child time again
NEAR_CRITICAL_FAMILY = InarModel(Poisson(10.0), PoissonOffspring(GeometricDecay(c=0.475, r=0.5)))
HAWKES = InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(c=0.25, r=0.5)))


@settings(max_examples=30, derandomize=True)
@given(m=poisson_family_models(), n=st.integers(2, 120))
@example(m=NEAR_CRITICAL_FAMILY, n=120)
@example(m=HAWKES, n=2)
def test_poisson_families_match_the_reference_in_law(m, n):
    reps = 400
    ours = _sums_and_lasts(simulate, m, n, reps, 1)[0]
    theirs = _sums_and_lasts(simulate_reference, m, n, reps, 2)[0]
    assert ks_2samp(ours, theirs, method="asymp").pvalue > KS_LEVEL


@settings(max_examples=30, derandomize=True)
@given(m=poisson_family_models(), n=st.integers(1, 300))
@example(m=NEAR_CRITICAL_FAMILY, n=120)
@example(m=HAWKES, n=2)
def test_poisson_families_have_the_exact_mean_and_variance(m, n):
    reps = 1000
    _assert_exact_moments(*_sums_and_lasts(simulate, m, n, reps, 3), m, n)
