"""Exact finite-horizon recursions.

Three deterministic computations drive the noise-free checks:

* the tilt recursion f_1 = theta, f_k = theta + sum over earlier steps of
  the offspring log-MGF evaluated at those steps' tilts, whose product
  over immigration gives the exact log-MGF of the partial sum;
* the first/second-order expansion tables g1, g2 of the tilted recursion,
  with their uniform bounds and Cesaro limits;
* the moderate-deviation scaled log-MGF curve along a horizon grid.

All offspring sums are truncated at the effective horizon; the discarded
tail mass is below 1e-12 and far below every test tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _safe_expm1
from .errors import ConfigError
from .model import InarModel, PoissonOffspring, history_window, require_assumptions

__all__ = [
    "MgfRecursion",
    "GbarTables",
    "CesaroCheck",
    "MdpSchedule",
    "MdpCurvePoint",
    "tilt_recursion",
    "log_mgf_exact",
    "gbar_tables",
    "cesaro_check",
    "mdp_mgf_curve",
    "mdp_scaled_limit",
]


@dataclass(frozen=True, eq=False)
class MgfRecursion:
    """Tilt sequence f_1..f_n and the resulting exact log-MGF of the sum.

    ``values`` is truncated at the step where an offspring log-MGF term
    diverges; ``log_mgf_total`` is +inf in that case.
    """

    theta: float
    values: np.ndarray
    log_mgf_total: float


def tilt_recursion(m: InarModel, theta: float, n: int) -> MgfRecursion:
    """Run the tilt recursion for n steps.

    For Poisson offspring the per-step sum collapses to a dot product of
    the decay coefficients with expm1 of the earlier tilts.
    """
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    w = history_window(m, n)
    f = np.empty(n, dtype=np.float64)
    f[0] = theta
    diverged_at = None

    poisson_family = isinstance(m.offspring, PoissonOffspring)
    if poisson_family:
        alpha_rev = np.ascontiguousarray(m.offspring.decay.coefficients(w)[::-1])
        no_offspring = not alpha_rev.any()
        e1 = np.empty(n, dtype=np.float64)
        e1[0] = _safe_expm1(theta)
    else:
        laws = m.offspring.laws[:w]
        no_offspring = not laws

    if no_offspring:
        f[:] = theta
    else:
        for k in range(1, n):
            wk = min(k, w)
            if poisson_family:
                s = float(np.dot(e1[k - wk : k], alpha_rev[w - wk :]))
            else:
                s = 0.0
                for lag in range(1, wk + 1):
                    s += laws[lag - 1].log_mgf(f[k - lag])
                    if s == math.inf:
                        break
            val = theta + s
            if not math.isfinite(val):
                diverged_at = k
                break
            f[k] = val
            if poisson_family:
                e1[k] = _safe_expm1(val)

    if diverged_at is not None:
        return MgfRecursion(
            theta=theta, values=f[:diverged_at].copy(), log_mgf_total=math.inf
        )

    # fsum is +inf as soon as one immigration term is
    total = math.fsum(map(m.immigration.log_mgf, f))
    return MgfRecursion(theta=theta, values=f, log_mgf_total=total)


def log_mgf_exact(m: InarModel, theta: float, n: int) -> float:
    """Exact log E[exp(theta * S_n)] for the empty-history process."""
    if theta == 0.0:
        return 0.0
    return tilt_recursion(m, theta, n).log_mgf_total


@dataclass(frozen=True, eq=False)
class GbarTables:
    """First/second-order expansion tables of the tilted recursion.

    g1 solves g1(k) = 1 + sum_i E[xi_i] g1(k-i) with g1(1) = 1; g2 solves
    g2(k) = sum_i E[xi_i] g2(k-i) + (1/2) sum_i Var[xi_i] g1(k-i)^2 with
    g2(1) = 0.  Both are uniformly bounded by their Cesaro limits, g1_limit
    = 1/(1 - mean_l1) and g2_limit = var_l1 / (2 (1 - mean_l1)^3), and g1^2
    tends to g1_sq_limit = g1_limit^2; the constructor asserts the bounds on
    every entry (a violation is an implementation bug, not data).
    """

    g1: np.ndarray
    g2: np.ndarray
    sum_g1: float
    sum_g1_sq: float
    sum_g2: float
    g1_limit: float
    g1_sq_limit: float
    g2_limit: float


def gbar_tables(m: InarModel, n: int) -> GbarTables:
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    report = require_assumptions(m, labels=("a",))
    w = history_window(m, n)
    mean_rev = np.ascontiguousarray(m.offspring.mean_coefficients(w)[::-1])
    var_rev = np.ascontiguousarray(m.offspring.var_coefficients(w)[::-1])

    g1 = np.empty(n, dtype=np.float64)
    g1sq = np.empty(n, dtype=np.float64)
    g2 = np.empty(n, dtype=np.float64)
    g1[0] = 1.0
    g1sq[0] = 1.0
    g2[0] = 0.0
    for k in range(1, n):
        wk = min(k, w)
        lo = k - wk
        g1[k] = 1.0 + float(np.dot(g1[lo:k], mean_rev[w - wk :]))
        g1sq[k] = g1[k] * g1[k]
        g2[k] = float(np.dot(g2[lo:k], mean_rev[w - wk :])) + 0.5 * float(
            np.dot(g1sq[lo:k], var_rev[w - wk :])
        )

    one_minus = 1.0 - report.mean_l1
    g1_limit = 1.0 / one_minus
    g2_limit = report.var_l1 / (2.0 * one_minus**3)
    if not (g1 > 0.0).all() or not (g1 <= g1_limit).all():
        raise RuntimeError("first-order table escaped its uniform bound (implementation bug)")
    if not (g2 >= 0.0).all() or not (g2 <= g2_limit).all():
        raise RuntimeError("second-order table escaped its uniform bound (implementation bug)")

    return GbarTables(
        g1=g1,
        g2=g2,
        sum_g1=float(g1.sum()),
        sum_g1_sq=float(g1sq.sum()),
        sum_g2=float(g2.sum()),
        g1_limit=g1_limit,
        g1_sq_limit=1.0 / one_minus**2,
        g2_limit=g2_limit,
    )


@dataclass(frozen=True)
class CesaroCheck:
    g1_mean: float
    g1_limit: float
    g1_sq_mean: float
    g1_sq_limit: float
    g2_mean: float
    g2_limit: float

    def pairs(self) -> list:
        return [
            (self.g1_mean, self.g1_limit),
            (self.g1_sq_mean, self.g1_sq_limit),
            (self.g2_mean, self.g2_limit),
        ]


def cesaro_check(m: InarModel, n: int) -> CesaroCheck:
    """Cesaro means of g1, g1^2, g2 against their closed-form limits."""
    tables = gbar_tables(m, n)
    return CesaroCheck(
        g1_mean=tables.sum_g1 / n,
        g1_limit=tables.g1_limit,
        g1_sq_mean=tables.sum_g1_sq / n,
        g1_sq_limit=tables.g1_sq_limit,
        g2_mean=tables.sum_g2 / n,
        g2_limit=tables.g2_limit,
    )


@dataclass(frozen=True)
class MdpSchedule:
    """Moderate-deviation speed c(n) = n**beta on a grid of horizons."""

    beta: float
    horizons: tuple

    def __post_init__(self):
        if not 0.5 < self.beta < 1.0:
            raise ConfigError(f"beta must lie strictly between 0.5 and 1, got {self.beta}")
        horizons = tuple(int(n) for n in self.horizons)
        if not horizons:
            raise ConfigError("horizon grid must be nonempty")
        for n in horizons:
            if n < 2:
                raise ConfigError(f"every horizon must be at least 2, got {n}")
        object.__setattr__(self, "horizons", horizons)

    def c(self, n: int) -> float:
        return float(n) ** self.beta


@dataclass(frozen=True)
class MdpCurvePoint:
    n: int
    value: float
    limit: float


def mdp_scaled_limit(m: InarModel, theta: float) -> float:
    """Limit of the scaled, centered log-MGF: theta^2 * sigma^2 / 2."""
    return theta**2 * require_assumptions(m, labels=("a", "c")).sigma2 / 2.0


def mdp_mgf_curve(m: InarModel, theta: float, sched: MdpSchedule) -> list:
    """(n / c(n)^2) * (log E[exp((c(n)/n) theta S_n)] - c(n) theta mu) along the grid.

    The exact finite-n log-MGF makes this check noise-free.  A divergent
    tilted MGF at some grid point (theta too large for small n) is
    reported as an infinite value for that point only.
    """
    report = require_assumptions(m, labels=("a", "c"))
    limit = theta**2 * report.sigma2 / 2.0
    points = []
    for n in sched.horizons:
        c = sched.c(n)
        theta_n = c * theta / n
        lm = log_mgf_exact(m, theta_n, n)
        value = (n / c**2) * (lm - c * theta * report.mu) if math.isfinite(lm) else math.inf
        points.append(MdpCurvePoint(n=n, value=value, limit=limit))
    return points
