"""Trajectory simulation for the empty-history process.

The process starts from nothing: the first count is pure immigration, and
each later count adds immigration to the offspring produced by all earlier
counts.  History is truncated at the effective horizon (total offspring
mean beyond it below 1e-12), which biases the running mean by far less
than any test tolerance.

Reproducibility contract: a ``RandomStream`` is an immutable descriptor
(seed, stream index); the same descriptor always reproduces the same
trajectory within one released version.  Batch replication r uses stream
index r, so replications are independent and order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import FingerprintMismatch
from .model import InarModel, PoissonOffspring, history_window, validate

__all__ = [
    "RandomStream",
    "Trajectory",
    "BatchSummary",
    "MartingaleDiagnostic",
    "simulate",
    "simulate_batch",
    "martingale_diagnostic",
]

_I64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class RandomStream:
    """Descriptor of a reproducible random stream: (seed, stream index)."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def with_stream(self, index: int) -> "RandomStream":
        return replace(self, stream=index)


@dataclass(frozen=True, eq=False)
class Trajectory:
    counts: np.ndarray
    stream: RandomStream
    model_fingerprint: str

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class BatchSummary:
    rep: int
    s_n: int
    x_n: int
    m_n: float


@dataclass(frozen=True, eq=False)
class MartingaleDiagnostic:
    """Centered-increment path from the conditional-mean decomposition.

    ``second_moment_bound`` is n * Var[immigration] plus the offspring
    variance l1 norm times n times the long-run mean, an upper bound on
    E[M_n^2] for the simulated dynamics.
    """

    m_path: np.ndarray
    second_moment_bound: float
    realized_m_squared: float


def simulate(m: InarModel, n: int, stream: RandomStream) -> Trajectory:
    """Simulate counts X_1..X_n from empty history.

    Immigration is drawn first at each step, then offspring lag by lag.
    For Poisson offspring the per-step offspring total is drawn as a single
    Poisson variate with rate sum_k alpha_k * X_{t-k} (exact, by additivity
    of independent Poissons); otherwise each contributing count draws its
    variates individually.

    Subcriticality is not enforced here: finite-horizon paths are well
    defined at and above the critical boundary (counts just explode, and
    the 64-bit overflow guard then fires).  The limit-theory modules are
    where the standing assumptions are required.
    """
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    gen = stream.generator()
    window = history_window(m, n)

    poisson_family = isinstance(m.offspring, PoissonOffspring)
    if poisson_family:
        alpha_rev = np.ascontiguousarray(m.offspring.decay.coefficients(window)[::-1])
    else:
        laws = m.offspring.laws[:window]
        window = len(laws)  # below the history window only for an empty lag list

    imm = m.immigration
    x = np.zeros(n, dtype=np.int64)
    xf = np.zeros(n, dtype=np.float64)
    for t in range(n):
        total = imm.sample(gen)
        w = min(t, window)
        if w:
            if poisson_family:
                rate = float(np.dot(xf[t - w : t], alpha_rev[window - w :]))
                if rate > 0.0:
                    total += int(gen.poisson(rate))
            else:
                for lag in range(1, w + 1):
                    cnt = int(x[t - lag])
                    if cnt:
                        total += laws[lag - 1].sample_sum(gen, cnt)
        if total > _I64_MAX:
            raise OverflowError(f"count at step {t + 1} exceeds the 64-bit integer maximum")
        x[t] = total
        xf[t] = total
    return Trajectory(counts=x, stream=stream, model_fingerprint=m.fingerprint())


def simulate_batch(m: InarModel, n: int, reps: int, master: RandomStream) -> list:
    """Independent replications; replication r uses stream index r.

    Returns per-replication summaries (S_n, X_n, M_n).  Replications may
    run in any order; results depend only on (master seed, r).
    """
    if reps < 1:
        raise ValueError(f"replication count must be at least 1, got {reps}")
    out = []
    for r in range(reps):
        traj = simulate(m, n, master.with_stream(r))
        m_n = float(martingale_diagnostic(traj, m).m_path[-1])
        out.append(
            BatchSummary(rep=r, s_n=int(traj.counts.sum()), x_n=int(traj.counts[-1]), m_n=m_n)
        )
    return out


def martingale_diagnostic(traj: Trajectory, m: InarModel) -> MartingaleDiagnostic:
    """Centered path M_i = sum_{j<=i} (X_j - E[X_j | past]) plus its moment bound.

    Conditional means use the same truncated offspring coefficients as the
    simulator, so M is exactly a martingale for the simulated dynamics.
    """
    if traj.model_fingerprint != m.fingerprint():
        raise FingerprintMismatch(
            f"trajectory fingerprint {traj.model_fingerprint} does not match model {m.fingerprint()}"
        )
    xf = traj.counts.astype(np.float64)
    n = len(xf)
    coeffs = m.offspring.mean_coefficients(history_window(m, n))

    # E[X_t | past] = E[eps] + sum_k coeffs[k-1] X_{t-k}: one full convolution
    cond = np.full(n, m.immigration.mean(), dtype=np.float64)
    cond[1:] += np.convolve(xf, coeffs)[: n - 1]
    m_path = np.cumsum(xf - cond)

    report = validate(m)
    # var_l1 == 0 makes the offspring term vanish even when mu is infinite
    offspring_term = report.var_l1 * n * report.mu if report.var_l1 > 0.0 else 0.0
    bound = n * m.immigration.variance() + offspring_term
    return MartingaleDiagnostic(
        m_path=m_path,
        second_moment_bound=bound,
        realized_m_squared=float(m_path[-1] ** 2),
    )
