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

__all__ = [
    "ExactLaw",
    "enumerate_sum_distribution",
    "enumerate_sum_distributions",
    "oracle_log_mgf",
    "oracle_moments",
]

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

    def log_mgf(self, theta: float) -> float:
        """log E[exp(theta * S)] under this law."""
        support = sorted(self.probs)
        probs = np.array([self.probs[s] for s in support])
        return log_sum_exp(theta * np.array(support, dtype=np.float64), probs)

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


def _work_estimate(imm_max: int, laws, n: int) -> int:
    """Upper bound on DP work: states times branches, summed over steps."""
    xmax = []
    for t in range(n):
        v = imm_max
        for k, (_, smax) in enumerate(laws[:t], start=1):
            v += smax * xmax[t - k]
        xmax.append(v)
    work = 0
    sum_cap = 0  # largest running sum possible before step t
    for t in range(n):
        states = 1
        for k in range(1, min(t, len(laws)) + 1):
            states *= xmax[t - k] + 1
        states *= sum_cap + 1
        work += states * (xmax[t] + 1)
        sum_cap += xmax[t]
        if work > STATE_WORK_CAP:
            break
    return work


def _pmf_array(law) -> np.ndarray:
    smax = law.support_max()
    return np.array([law.pmf(k) for k in range(smax + 1)], dtype=np.float64)


def enumerate_sum_distribution(m: InarModel, n: int) -> ExactLaw:
    """Exact distribution of X_1 + ... + X_n under the empty-history dynamics.

    Requires bounded immigration and offspring laws, and refuses up front
    when the dynamic-programming state space would explode.
    """
    for states in _dp_states(m, n):
        pass
    return _law_of_sums(states)


def enumerate_sum_distributions(m: InarModel, n: int) -> list:
    """The exact laws of S_1, ..., S_n, in that order, from one dynamic-programming pass."""
    return [_law_of_sums(states) for states in _dp_states(m, n)]


def _dp_states(m: InarModel, n: int):
    """The DP states {(last counts, running sum): probability} after each of the n steps.

    The history tuple keeps the last count for each lag of the list.
    """
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    imm_max, laws = _bounded_laws(m)
    work = _work_estimate(imm_max, laws, n)
    if work > STATE_WORK_CAP:
        raise EnumerationError(
            f"state-space work estimate {work} exceeds the cap {STATE_WORK_CAP}"
        )

    imm_pmf = _pmf_array(m.immigration)
    base_pmfs = [_pmf_array(law) for law, _ in laws]
    window = len(laws)

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

    outcome_cache: dict = {}

    def step_outcomes(hist: tuple) -> list:
        """(next history, count, probability > 0) for each count a step can take after `hist`.

        The step's law depends on the history alone, so each history's list is built once.
        """
        if hist not in outcome_cache:
            step_pmf = imm_pmf
            for k, cnt in enumerate(reversed(hist), start=1):
                if cnt:
                    step_pmf = np.convolve(step_pmf, iid_sum_pmf(k - 1, cnt))
            outcome_cache[hist] = [
                ((hist + (v,))[-window:] if window else (), v, q)
                for v, q in enumerate(step_pmf.tolist())
                if q > 0.0
            ]
        return outcome_cache[hist]

    # DP over (history tuple of last-window counts, running sum) -> probability.
    states = {((), 0): 1.0}
    for _ in range(n):
        acc = defaultdict(list)
        for (hist, s), p in states.items():
            for new_hist, v, q in step_outcomes(hist):
                acc[(new_hist, s + v)].append(p * q)
        states = {key: math.fsum(vals) for key, vals in acc.items()}
        yield states


def _law_of_sums(states: dict) -> ExactLaw:
    by_sum = defaultdict(list)
    for (_, s), p in states.items():
        by_sum[s].append(p)
    return ExactLaw(probs={s: math.fsum(vals) for s, vals in sorted(by_sum.items())})


def oracle_log_mgf(m: InarModel, theta: float, n: int) -> float:
    """log E[exp(theta * S_n)] from the enumerated exact law."""
    return enumerate_sum_distribution(m, n).log_mgf(theta)


def oracle_moments(m: InarModel, n: int) -> tuple:
    """Exact (mean, variance) of S_n from the enumerated law."""
    law = enumerate_sum_distribution(m, n)
    mean = math.fsum(s * p for s, p in law.probs.items())
    # centred, so a law near a point mass keeps its small variance
    return mean, math.fsum((s - mean) ** 2 * p for s, p in law.probs.items())
