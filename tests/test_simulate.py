import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from inarlim import (
    Bernoulli,
    Constant,
    ExplicitOffspring,
    FingerprintMismatch,
    FiniteDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    RandomStream,
    martingale_diagnostic,
    simulate,
    simulate_batch,
)
from inarlim.model import history_window


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
    assert traj.counts.tolist() == [Poisson(1.0).sample(gen) for _ in range(50)]
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


def test_overflow_raises():
    m = InarModel(Constant(1), ExplicitOffspring((Constant(20),)))
    with pytest.raises(OverflowError):
        simulate(m, 20, RandomStream(seed=0))


def test_martingale_zero_for_deterministic_model():
    m = InarModel(Constant(1), ExplicitOffspring((Constant(1),)))
    traj = simulate(m, 10, RandomStream(seed=0))
    diag = martingale_diagnostic(traj, m)
    assert np.allclose(diag.m_path, 0.0, atol=0)
    assert diag.second_moment_bound == 0.0


def test_martingale_decomposition_identity(hawkes):
    # M_n equals (1 - mean_l1) S_n - n E[imm] + remainder, with the same
    # truncated coefficients the simulator used
    n = 400
    traj = simulate(hawkes, n, RandomStream(seed=13))
    diag = martingale_diagnostic(traj, hawkes)
    # prefix[t] = sum of the first min(t, window) truncated offspring means
    coeffs = hawkes.offspring.mean_coefficients(history_window(hawkes, n))
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


def _per_lag_conditional_means(m, counts):
    """Reference: E[X_t | past] accumulated lag by lag, as the diagnostic once did."""
    n = len(counts)
    coeffs = m.offspring.mean_coefficients(history_window(m, n))
    xf = counts.astype(float)
    cond = np.full(n, m.immigration.mean())
    for k in range(1, min(len(coeffs), n - 1) + 1):
        cond[k:] += coeffs[k - 1] * xf[: n - k]
    return cond


@pytest.mark.parametrize("name", ["hawkes", "bernoulli_ar1", "two_lag", "finite_mix"])
def test_martingale_path_matches_per_lag_reference(name, request):
    m = request.getfixturevalue(name)
    for n in (1, 2, 60, 400):
        traj = simulate(m, n, RandomStream(seed=31))
        ref = np.cumsum(traj.counts - _per_lag_conditional_means(m, traj.counts))
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
