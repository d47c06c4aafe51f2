import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from inarlim import (
    Bernoulli,
    Binomial,
    ConfigError,
    Constant,
    ExplicitOffspring,
    FingerprintMismatch,
    FiniteDecay,
    Geometric,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    RandomStream,
    martingale_diagnostic,
    simulate,
    simulate_batch,
)
from history_reference import conditional_means_reference


def test_no_immigration_gives_all_zeros():
    m = InarModel(Constant(0), ExplicitOffspring((Bernoulli(0.4),)))
    traj = simulate(m, 50, RandomStream(seed=1))
    assert (traj.counts == 0).all()


def test_staircase_counts():
    # one immigrant per step, each existing count reproduces exactly once
    m = InarModel(Constant(1), ExplicitOffspring((Constant(1),)))
    traj = simulate(m, 10, RandomStream(seed=1))
    assert (traj.counts == np.arange(1, 11)).all()


def test_empty_lag_list_gives_iid_immigration(pure_immigration):
    traj = simulate(pure_immigration, 50, RandomStream(seed=1))
    gen = RandomStream(seed=1).generator()
    # every lag list reads its immigration from the tape, one uniform per step
    assert traj.counts.tolist() == Poisson(1.0).from_uniforms(gen.random(50)).tolist()
    diag = martingale_diagnostic(traj, pure_immigration)
    assert diag.m_path.tolist() == np.cumsum(traj.counts - 1.0).tolist()
    assert simulate_batch(pure_immigration, 50, 1, RandomStream(seed=1))[0].s_n == traj.counts.sum()


def test_reproducibility(hawkes):
    a = simulate(hawkes, 300, RandomStream(seed=42))
    b = simulate(hawkes, 300, RandomStream(seed=42))
    assert (a.counts == b.counts).all()
    c = simulate(hawkes, 300, RandomStream(seed=42, stream=1))
    assert not (a.counts == c.counts).all()


def test_batch_reproducible_and_stream_indexed(bernoulli_ar1):
    r1 = simulate_batch(bernoulli_ar1, 100, 5, RandomStream(seed=9))
    r2 = simulate_batch(bernoulli_ar1, 100, 5, RandomStream(seed=9))
    assert r1 == r2
    # replication r reproduces a standalone run on stream index r
    lone = simulate(bernoulli_ar1, 100, RandomStream(seed=9, stream=3))
    assert r1[3].s_n == int(lone.counts.sum())
    assert r1[3].x_n == int(lone.counts[-1])


def test_batch_single_rep_matches_simulate(hawkes):
    rep = simulate_batch(hawkes, 200, 1, RandomStream(seed=5))[0]
    lone = simulate(hawkes, 200, RandomStream(seed=5, stream=0))
    assert rep.s_n == int(lone.counts.sum())


def test_first_count_depends_only_on_immigration():
    imm = Bernoulli(0.5)
    m1 = InarModel(imm, ExplicitOffspring((Bernoulli(0.4),)))
    m2 = InarModel(imm, ExplicitOffspring((Bernoulli(0.1), Bernoulli(0.2))))
    for seed in range(20):
        a = simulate(m1, 5, RandomStream(seed=seed))
        b = simulate(m2, 5, RandomStream(seed=seed))
        assert a.counts[0] == b.counts[0]


def test_poisson_total_collapse_matches_per_lag_draws():
    # same law through the collapsed Poisson route and the per-lag explicit route
    imm = Poisson(1.0)
    collapsed = InarModel(imm, PoissonOffspring(FiniteDecay((0.3, 0.2))))
    per_lag = InarModel(imm, ExplicitOffspring((Poisson(0.3), Poisson(0.2))))
    n, reps = 30, 2000
    s_a = np.array([r.s_n for r in simulate_batch(collapsed, n, reps, RandomStream(seed=21))])
    s_b = np.array([r.s_n for r in simulate_batch(per_lag, n, reps, RandomStream(seed=22))])
    stat = ks_2samp(s_a, s_b).statistic
    critical = 1.95 * math.sqrt(2 / reps)  # two-sample, level 0.001
    assert stat < critical


def test_mean_stability(hawkes):
    reps, n = 400, 150
    mat = np.zeros((reps, n))
    for r in range(reps):
        mat[r] = simulate(hawkes, n, RandomStream(seed=77, stream=r)).counts
    sup_mean = mat.mean(axis=0).max()
    assert sup_mean <= 2.0 * (1 + 5 / math.sqrt(reps)) * 1.1


def test_lln_trend(bernoulli_ar1):
    res = simulate_batch(bernoulli_ar1, 2000, 200, RandomStream(seed=31))
    mean = np.mean([r.s_n for r in res]) / 2000
    band = 4 * math.sqrt(1.25 / (2000 * 200))
    assert abs(mean - 5 / 6) <= band


# mean_l1 = 1.8: past 2**20 uniforms a step, the lag sums are drawn from their own laws
EXPLODING_BERNOULLI_LIST = InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.9), Bernoulli(0.9))))


def test_overflow_raises():
    # five supercritical lag lists, and three supercritical Poisson families whose means pass
    # numpy's Poisson range
    cases = [
        (InarModel(Constant(1), ExplicitOffspring((Constant(20),))), 20),
        (EXPLODING_BERNOULLI_LIST, 200),
        (InarModel(Poisson(1.0), ExplicitOffspring((Poisson(1.0), Poisson(1.0)))), 200),
        (InarModel(Poisson(1.0), ExplicitOffspring((Geometric(0.3),))), 200),
        (InarModel(Constant(1), ExplicitOffspring((Geometric(1e-18),))), 5),
        (InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(0.6, 0.5))), 1000),
        (InarModel(Poisson(1.0), PoissonOffspring(FiniteDecay((3.0,)))), 60),
        (InarModel(Poisson(1.0), PoissonOffspring(PowerLawDecay(0.9, 2.0))), 2000),
    ]
    for m, n in cases:
        with pytest.raises(OverflowError):
            simulate(m, n, RandomStream(seed=0))


def test_lag_laws_with_giant_variates_draw_exact_sums():
    # 2**59 offspring at lag 17: a Constant lag reads no uniform, and adds c * value in Python ints
    m = InarModel(Constant(1), ExplicitOffspring((Constant(0),) * 16 + (Constant(2**59),)))
    assert simulate(m, 18, RandomStream(seed=0)).counts.tolist() == [1] * 17 + [1 + 2**59]


def test_lag_laws_too_wide_for_a_table_draw_sum_laws():
    # a Binomial(1e9, 5e-10) lag (mean 0.5) or Poisson(1e9) immigration would need a table of
    # about 1e9 entries: such a list draws sum laws at every step and builds no table
    lag, imm = Binomial(10**9, 5e-10), Poisson(1e9)
    counts = simulate(InarModel(Bernoulli(0.5), ExplicitOffspring((lag,))), 2000, RandomStream(seed=0)).counts
    assert abs(counts.mean() - 1.0) < 0.2  # the stationary mean, 0.5 / (1 - 0.5)
    counts = simulate(InarModel(imm, ExplicitOffspring(())), 50, RandomStream(seed=0)).counts
    assert (abs(counts - 1e9) < 6.0 * math.sqrt(1e9)).all()
    assert "_cdf" not in vars(lag) and "_cdf" not in vars(imm)


def test_exploding_path_keeps_memory_bounded():
    # mass 1.2: counts reach about 1e13 by n = 300, yet a generation holds O(n) entries
    m = InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(0.6, 0.5)))
    tracemalloc.start()
    try:
        counts = simulate(m, 300, RandomStream(seed=0)).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts[-1] > 10**9
    assert peak < 32 * 2**20
    # a lag list reads at most 2**20 uniforms a step, so it reaches the typed overflow
    tracemalloc.start()
    try:
        with pytest.raises(OverflowError):
            simulate(EXPLODING_BERNOULLI_LIST, 200, RandomStream(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_martingale_zero_for_deterministic_model():
    m = InarModel(Constant(1), ExplicitOffspring((Constant(1),)))
    traj = simulate(m, 10, RandomStream(seed=0))
    diag = martingale_diagnostic(traj, m)
    assert np.allclose(diag.m_path, 0.0, atol=0)
    assert diag.second_moment_bound == 0.0


def test_martingale_decomposition_identity(hawkes):
    # M_n equals (1 - p_total) S_n - n E[imm] + remainder, where p_total is
    # the offspring mean mass within the n - 1 lags of the whole history
    n = 400
    traj = simulate(hawkes, n, RandomStream(seed=13))
    diag = martingale_diagnostic(traj, hawkes)
    # prefix[t] = sum of the first min(t, n - 1) offspring means
    coeffs = hawkes.offspring.mean_decay().coefficients(n - 1)
    w = len(coeffs)
    prefix = np.zeros(n)
    prefix[1 : w + 1] = np.cumsum(coeffs)
    prefix[w + 1 :] = prefix[w]
    p_total = prefix[-1]
    x = traj.counts.astype(float)
    remainder = float(
        np.dot(p_total - prefix[1:][::-1], x[: n - 1])
    ) + p_total * x[-1]
    identity = (1 - p_total) * x.sum() - n * 1.0 + remainder
    assert abs(diag.m_path[-1] - identity) < 1e-9


@pytest.mark.parametrize("name", ["hawkes", "bernoulli_ar1", "two_lag", "finite_mix"])
def test_martingale_path_matches_per_lag_reference(name, request):
    m = request.getfixturevalue(name)
    for n in (1, 2, 60, 400):
        traj = simulate(m, n, RandomStream(seed=31))
        ref = np.cumsum(traj.counts - conditional_means_reference(m, traj.counts))
        got = martingale_diagnostic(traj, m).m_path
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * n)


def test_martingale_mean_zero_band(bernoulli_ar1):
    reps, n = 400, 500
    terminal = np.array([r.m_n for r in simulate_batch(bernoulli_ar1, n, reps, RandomStream(seed=17))])
    bound = n * 0.25 + 0.24 * n * (5 / 6)
    assert abs(terminal.mean()) <= 4 * math.sqrt(bound / reps)


def test_batch_m_n_matches_diagnostic(bernoulli_ar1):
    n = 200
    summaries = simulate_batch(bernoulli_ar1, n, 3, RandomStream(seed=23))
    for r, s in enumerate(summaries):
        traj = simulate(bernoulli_ar1, n, RandomStream(seed=23, stream=r))
        diag = martingale_diagnostic(traj, bernoulli_ar1)
        assert s.m_n == pytest.approx(diag.m_path[-1], abs=1e-9)


def test_single_step_batch_and_diagnostic(hawkes):
    # at n = 1 there is no history: M_1 = X_1 - E[immigration]
    summaries = simulate_batch(hawkes, 1, 3, RandomStream(seed=5))
    assert [(s.s_n, s.x_n, s.m_n) for s in summaries] == [(1, 1, 0.0), (0, 0, -1.0), (1, 1, 0.0)]
    traj = simulate(hawkes, 1, RandomStream(seed=5, stream=1))
    diag = martingale_diagnostic(traj, hawkes)
    assert diag.m_path.tolist() == [-1.0]
    assert diag.second_moment_bound == 2.0
    assert diag.realized_m_squared == 1.0


def test_fingerprint_mismatch_rejected(hawkes, bernoulli_ar1):
    traj = simulate(hawkes, 10, RandomStream(seed=1))
    with pytest.raises(FingerprintMismatch):
        martingale_diagnostic(traj, bernoulli_ar1)


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1), (-5, 3)])
def test_random_stream_rejects_negative_seeds_and_streams(seed, stream):
    # numpy's SeedSequence would refuse them only when the first path is drawn
    with pytest.raises(ConfigError, match="nonnegative"):
        RandomStream(seed=seed, stream=stream)
