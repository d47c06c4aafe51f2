"""Brute-force exact laws for tiny bounded models.

Unrolls the empty-history dynamics by dynamic programming over the joint
state (last-window counts, running sum) rather than a naive outcome tree,
which is the only way a handful of steps stays feasible for two-valued
laws.  Ground truth for the simulator and the exact MGF recursion.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .distributions import log_sum_exp
from .errors import EnumerationError
from .model import ExplicitOffspring, InarModel

__all__ = ["ExactLaw", "enumerate_sum_distribution", "oracle_log_mgf", "oracle_moments"]

STATE_WORK_CAP = 10_000_000
NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class ExactLaw:
    """Exact pmf of the partial sum, as a {value: probability} map."""

    probs: dict

    def __post_init__(self):
        total = math.fsum(self.probs.values())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise RuntimeError(f"enumerated probabilities sum to {total}, not 1")

    def support(self) -> np.ndarray:
        return np.array(sorted(self.probs), dtype=np.int64)

    def prob_array(self) -> tuple:
        support = self.support()
        return support, np.array([self.probs[int(s)] for s in support])

    def total_variation(self, other: dict) -> float:
        keys = set(self.probs) | set(other)
        return 0.5 * math.fsum(abs(self.probs.get(k, 0.0) - other.get(k, 0.0)) for k in keys)


def _bounded_laws(m: InarModel):
    imm_max = m.immigration.support_max()
    if imm_max is None:
        raise EnumerationError("immigration law has unbounded support")
    if not isinstance(m.offspring, ExplicitOffspring):
        raise EnumerationError("offspring sequence is not an explicit bounded list")
    laws = []
    for law in m.offspring.laws:
        s = law.support_max()
        if s is None:
            raise EnumerationError("an offspring law has unbounded support")
        laws.append((law, s))
    # trailing lags that produce nothing do not enlarge the state
    while laws and laws[-1][1] == 0:
        laws.pop()
    return imm_max, laws


def _work_estimate(imm_max: int, laws, n: int) -> tuple:
    """Upper bound on DP work: states times branches, summed over steps."""
    window = min(len(laws), max(n - 1, 1))
    xmax = []
    for t in range(n):
        v = imm_max
        for k, (_, smax) in enumerate(laws[: min(t, window)], start=1):
            v += smax * xmax[t - k]
        xmax.append(v)
    work = 0
    sum_cap = 0  # largest running sum possible before step t
    for t in range(n):
        states = 1
        for k in range(1, min(t, window) + 1):
            states *= xmax[t - k] + 1
        states *= sum_cap + 1
        work += states * (xmax[t] + 1)
        sum_cap += xmax[t]
        if work > STATE_WORK_CAP:
            break
    return work, xmax, window


def _pmf_array(law) -> np.ndarray:
    smax = law.support_max()
    return np.array([law.pmf(k) for k in range(smax + 1)], dtype=np.float64)


def enumerate_sum_distribution(m: InarModel, n: int) -> ExactLaw:
    """Exact distribution of X_1 + ... + X_n under the empty-history dynamics.

    Requires bounded immigration and offspring laws, and refuses up front
    when the dynamic-programming state space would explode.
    """
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    imm_max, laws = _bounded_laws(m)
    work, _, window = _work_estimate(imm_max, laws, n)
    if work > STATE_WORK_CAP:
        raise EnumerationError(
            f"state-space work estimate {work} exceeds the cap {STATE_WORK_CAP}"
        )

    imm_pmf = _pmf_array(m.immigration)
    base_pmfs = [_pmf_array(law) for law, _ in laws]

    conv_cache: dict = {}

    def iid_sum_pmf(lag_idx: int, count: int) -> np.ndarray:
        """pmf of the sum of `count` i.i.d. draws from the lag's law."""
        key = (lag_idx, count)
        if key not in conv_cache:
            if count == 0:
                conv_cache[key] = np.array([1.0])
            else:
                conv_cache[key] = np.convolve(iid_sum_pmf(lag_idx, count - 1), base_pmfs[lag_idx])
        return conv_cache[key]

    # DP over (history tuple of last-window counts, running sum) -> probability.
    states = {((), 0): 1.0}
    for t in range(n):
        w = min(t, window)
        acc = defaultdict(list)
        for (hist, s), p in states.items():
            step_pmf = imm_pmf
            for k in range(1, w + 1):
                cnt = hist[-k]
                if cnt:
                    step_pmf = np.convolve(step_pmf, iid_sum_pmf(k - 1, cnt))
            for v, q in enumerate(step_pmf):
                if q > 0.0:
                    new_hist = (hist + (v,))[-window:] if window else ()
                    acc[(new_hist, s + v)].append(p * q)
        states = {key: math.fsum(vals) for key, vals in acc.items()}

    by_sum = defaultdict(list)
    for (_, s), p in states.items():
        by_sum[s].append(p)
    return ExactLaw(probs={s: math.fsum(vals) for s, vals in sorted(by_sum.items())})


def oracle_log_mgf(m: InarModel, theta: float, n: int) -> float:
    """log E[exp(theta * S_n)] from the enumerated exact law."""
    law = enumerate_sum_distribution(m, n)
    support, probs = law.prob_array()
    return log_sum_exp(theta * support.astype(np.float64), probs)


def oracle_moments(m: InarModel, n: int) -> tuple:
    """Exact (mean, variance) of S_n from the enumerated law."""
    law = enumerate_sum_distribution(m, n)
    mean = math.fsum(s * p for s, p in law.probs.items())
    second = math.fsum(s * s * p for s, p in law.probs.items())
    return mean, second - mean * mean
