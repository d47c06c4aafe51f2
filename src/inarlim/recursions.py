"""Exact finite-horizon recursions.

Three deterministic computations drive the noise-free checks:

* the tilt recursion f_1 = theta, f_k = theta + sum over earlier steps of
  the offspring log-MGF evaluated at those steps' tilts, whose product
  over immigration gives the exact log-MGF of the partial sum;
* the first/second-order expansion tables g1, g2 of the tilted recursion,
  with their uniform bounds and Cesaro limits;
* the moderate-deviation scaled log-MGF curve along a horizon grid.

Every sum over the history is exact: no lag is dropped.  Each recursion
runs as one loop over the whole horizon, one loop per kernel kind, in
``model``: the offspring sequence's ``tilts`` and the lag means'
``expansion_tables``.  A geometric kernel carries each history sum in one
running sum, in O(1) work per step; a lag list takes each lag's log-MGF
in the tilt recursion, a one-lag list one product per table entry, and
power laws and longer lists one dot product over the lags they have.  A
power law's tables are the exception: they solve linear renewal
equations, so they come from their generating functions by FFT series
inversion, in O(n log n), within a few ulps of their limits.
Below the critical tilt both recursions contract toward a fixed point,
which they mostly reach in floats, and each loop stops where its state
repeats bit for bit: each step is a fixed float function of the state,
so the filled-in rest is exactly what the full loop computes.  This module adds what all kinds
share: the immigration's exactly rounded sum of log-MGFs and the tables'
bound checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .distributions import exact_sum
from .errors import ConfigError
from .model import InarModel, require_assumptions

__all__ = [
    "MgfRecursion",
    "GbarTables",
    "MdpSchedule",
    "MdpCurvePoint",
    "tilt_recursion",
    "log_mgf_exact",
    "log_mgf_by_horizon",
    "gbar_tables",
    "cesaro_check",
    "mdp_mgf_curve",
    "mdp_scaled_limit",
]

# Relative margin of the tables' bound checks, in ulps of 1.0 per unit of 1/(1 - mean_l1)
BOUND_ROUNDING_ULPS = 32


@dataclass(frozen=True, eq=False)
class MgfRecursion:
    """Tilt sequence f_1..f_n and the resulting exact log-MGF of the sum.

    Each step sums over the whole history.  ``diverged_at`` is the
    first step k whose f_k is infinite, or None; ``values`` then stops
    before it and ``log_mgf_total`` is +inf.  The total is also +inf when
    the immigration log-MGF diverges, or overflows, at finite tilts.
    ``settled_at`` is the first step from which every later tilt is the
    same float, found where the recursion's state repeated bit for bit, or
    None when it did not repeat within n steps (near the critical tilt).
    """

    theta: float
    values: np.ndarray
    log_mgf_total: float
    diverged_at: int | None
    settled_at: int | None


def tilt_recursion(m: InarModel, theta: float, n: int) -> MgfRecursion:
    """Run the tilt recursion for n steps, in the offspring sequence's loop.

    Each step adds to theta the decay law's history sum of expm1(f) for a
    Poisson family, and each lag's log-MGF for explicit laws.  Past
    ``settled_at`` the sum repeats one immigration log-MGF: the same terms
    in the same order, at the cost of one call.
    """
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"tilt must be finite, got {theta}")
    f = np.empty(n, dtype=np.float64)
    k, settled = m.offspring.tilts(theta, f)
    if k < n:
        return MgfRecursion(theta, f[:k].copy(), math.inf, k + 1, None)
    log_mgf, tilts = m.immigration.log_mgf, memoryview(f)  # item access in Python floats
    if settled is None:
        return MgfRecursion(theta, f, exact_sum(map(log_mgf, tilts), theta), None, None)
    terms = chain(map(log_mgf, tilts[:settled]), repeat(log_mgf(tilts[settled]), n - settled))
    return MgfRecursion(theta, f, exact_sum(terms, theta), None, settled + 1)


def log_mgf_exact(m: InarModel, theta: float, n: int) -> float:
    """Exact log E[exp(theta * S_n)] for the empty-history process."""
    if theta == 0.0:
        return 0.0
    return tilt_recursion(m, theta, n).log_mgf_total


def log_mgf_by_horizon(m: InarModel, theta: float, n: int) -> list:
    """``log_mgf_exact(m, theta, k)`` for k = 1..n, bit for bit, from one tilt recursion.

    The tilts f_1..f_k do not depend on the horizon past k, and ``fsum`` is
    exactly rounded, so horizon k's log-MGF is the sum of the first k
    immigration log-MGFs.  From the step where the tilts diverge on, it is
    +inf.  The n sums take O(n**2) work: this serves the short horizons of
    the exact oracle.
    """
    if theta == 0.0:
        return [0.0] * n
    rec = tilt_recursion(m, theta, n)
    terms = [m.immigration.log_mgf(f) for f in rec.values.tolist()]
    finite = [exact_sum(terms[:k], theta) for k in range(1, len(terms) + 1)]
    return finite + [math.inf] * (n - len(terms))


@dataclass(frozen=True, eq=False)
class GbarTables:
    """First/second-order expansion tables of the tilted recursion.

    g1 solves g1(k) = 1 + sum_i E[xi_i] g1(k-i) with g1(1) = 1; g2 solves
    g2(k) = sum_i E[xi_i] g2(k-i) + (1/2) sum_i Var[xi_i] g1(k-i)^2 with
    g2(1) = 0.  Both are uniformly bounded by their Cesaro limits, g1_limit
    = 1/(1 - mean_l1) and g2_limit = var_l1 / (2 (1 - mean_l1)^3), and g1^2
    tends to g1_sq_limit = g1_limit^2; ``gbar_tables`` asserts the bounds on
    every entry (a violation is an implementation bug, not data).

    Rounding alone can carry a converged entry a few ulps past its limit:
    the limits inherit the rounding of 1 - mean_l1, and the renewal sums
    amplify each step's rounding by up to 1/(1 - mean_l1).  The bounds are
    therefore checked with a relative margin of BOUND_ROUNDING_ULPS ulps of
    1.0 divided by 1 - mean_l1; on random subcritical models entries were
    seen up to 3 ulps past their limits, and up to 12.4 from a power law's
    FFT series at n = 1e6, while a wrong table escapes them by far more.
    """

    g1: np.ndarray
    g2: np.ndarray
    sum_g1: float
    sum_g1_sq: float
    sum_g2: float
    g1_limit: float
    g1_sq_limit: float
    g2_limit: float

    def pairs(self) -> list:
        """(Cesaro mean, limit) for g1, g1^2 and g2."""
        n = len(self.g1)
        return [
            (self.sum_g1 / n, self.g1_limit),
            (self.sum_g1_sq / n, self.g1_sq_limit),
            (self.sum_g2 / n, self.g2_limit),
        ]


def gbar_tables(m: InarModel, n: int) -> GbarTables:
    if n < 1:
        raise ConfigError(f"horizon must be at least 1, got {n}")
    report = require_assumptions(m, labels=("a",))
    # g1 and g2 each sum their own history through the lag means, g1^2 through the lag variances
    g1, g1sq, g2 = m.offspring.mean_decay().expansion_tables(m.offspring.var_decay(), n)

    one_minus = 1.0 - report.mean_l1
    g1_limit = 1.0 / one_minus
    g2_limit = report.var_l1 / (2.0 * one_minus**3)
    slack = 1.0 + BOUND_ROUNDING_ULPS * math.ulp(1.0) / one_minus
    if not (g1 > 0.0).all() or not (g1 <= g1_limit * slack).all():
        raise RuntimeError("first-order table escaped its uniform bound (implementation bug)")
    if not (g2 >= 0.0).all() or not (g2 <= g2_limit * slack).all():
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


# The tables carry their own Cesaro pairs; this name is kept for callers of the check.
cesaro_check = gbar_tables


@dataclass(frozen=True)
class MdpSchedule:
    """Moderate-deviation speed c(n) = n**beta on a grid of horizons."""

    beta: float
    horizons: tuple

    def __post_init__(self):
        if not 0.5 < self.beta < 1.0:
            raise ConfigError(f"beta must lie strictly between 0.5 and 1, got {self.beta}")
        horizons = tuple(self.horizons)
        if not horizons:
            raise ConfigError("horizon grid must be nonempty")
        for n in horizons:
            if n < 2:
                raise ConfigError(f"every horizon must be at least 2, got {n}")
            if not n < math.inf or n != int(n):
                raise ConfigError(f"every horizon must be a whole number, got {n}")
        object.__setattr__(self, "horizons", tuple(int(n) for n in horizons))

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
