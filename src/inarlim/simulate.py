"""Trajectory simulation for the empty-history process.

The process starts from nothing: the first count is pure immigration, and
each later count adds immigration to the offspring produced by all earlier
counts.  No lag is dropped.  The offspring sequence draws the counts
(``sample_counts``), each kind in its own way:

* a lag list walks the path one step at a time, drawing the immigration
  and then each lag's offspring sum in lag order; every variate is one
  uniform from a tape, drawn in blocks, put through the law's inverse
  CDF, so each step costs a few table lookups, and a Constant reads
  none; a list of one drawn lag (an INAR(1)) runs the same steps in a
  tight loop; a step that would read more than 2**20 uniforms, or any
  step of a list with a law whose variates may pass 2**16, draws each
  lag's sum from the sum's own law;
* a Poisson family draws all the immigration in one call and then one
  generation at a time: each immigrant time's children within the
  horizon, and after that each child's own children, then each child's
  lag by inverse CDF on the cumulative lag means; a generation with many
  expected children is drawn by child time instead.

Reproducibility contract: a ``RandomStream`` is an immutable descriptor
(seed, stream index); the same descriptor always reproduces the same
trajectory within one released version.  Batch replication r uses stream
index r, so replications are independent and order-insensitive.  Every
lag list draws, bit for bit, what it drew at the previous version, the
one-lag loop included; those of Bernoulli, finite-support and Constant
laws still draw the numbers of the per-step loop of earlier versions,
and other lag lists (since every law reads the tape) other numbers from
the same law.  Poisson families draw new numbers from the same law at
this version, since later generations are drawn child by child.  The
generator's state after the draws is not part of the contract: the tape
draws uniforms it may leave unread, and ``simulate`` discards the
generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, FingerprintMismatch
from .model import InarModel, validate

__all__ = [
    "RandomStream",
    "Trajectory",
    "BatchSummary",
    "MartingaleDiagnostic",
    "simulate",
    "simulate_batch",
    "martingale_diagnostic",
]


@dataclass(frozen=True)
class RandomStream:
    """Descriptor of a reproducible random stream: (seed, stream index)."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ConfigError(f"seed and stream must be nonnegative, got {self.seed}, {self.stream}")

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
    """Simulate counts X_1..X_n from empty history; the offspring sequence draws them.

    Subcriticality is not enforced here: finite-horizon paths are well
    defined at and above the critical boundary (counts just explode, and
    OverflowError is raised before a count or a Poisson mean passes the
    64-bit range).  The limit-theory modules are where the standing
    assumptions are required.
    """
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    counts = m.offspring.sample_counts(m.immigration, n, stream.generator())
    return Trajectory(counts=counts, stream=stream, model_fingerprint=m.fingerprint())


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

    Conditional means are the history sums of the lag means over the whole
    past, so M is exactly a martingale for the simulated dynamics.
    """
    if traj.model_fingerprint != m.fingerprint():
        raise FingerprintMismatch(
            f"trajectory fingerprint {traj.model_fingerprint} does not match model {m.fingerprint()}"
        )
    xf = traj.counts.astype(np.float64)
    n = len(xf)
    # E[X_t | past] = E[eps] + sum_k E[xi_k] X_{t-k}
    cond = m.immigration.mean() + m.offspring.mean_decay().history_sums(xf)
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
