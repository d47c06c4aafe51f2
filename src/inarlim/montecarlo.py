"""Empirical validation of the limit theorems from simulated batches.

Each check simulates a seeded batch, compares an empirical statistic with
its theoretical target, and returns a self-auditing report: the verdict is
re-derivable from the stored numbers alone.

Deep large-deviation tails are deliberately NOT estimated by naive Monte
Carlo (they decay exponentially in n and are unreachable at desk scale);
the large-deviation side is validated through the deterministic limiting
CGF checks and the Legendre-transform identities instead.  The
moderate-deviation band is a wide engineering choice, flagged in the
report notes, because the convergence is logarithmic; the deterministic
scaled-MGF curve carries the precise check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import clt_variance, critical_tilt, limit_cgf, lln_mean, mdp_rate
from .distributions import log_sum_exp
from .errors import InsufficientTailMass
from .model import InarModel, require_assumptions
from .recursions import log_mgf_exact
from .simulate import RandomStream, simulate

__all__ = [
    "ValidationReport",
    "validate_lln",
    "validate_clt",
    "validate_mdp",
    "validate_gamma",
    "KS_CRITICAL_SCALE",
    "MDP_BAND",
]

KS_CRITICAL_SCALE = 1.95  # asymptotic one-sample critical value at level 0.001
MIN_KS_REPS = 500  # keeps the asymptotic critical value applicable
MDP_BAND = (0.6, 1.4)  # wide band: tail log-asymptotics converge logarithmically
MDP_MIN_EXPECTED_TAIL = 50.0
GAMMA_DETERMINISTIC_N = 100_000
GAMMA_DETERMINISTIC_TOL = 1e-3


@dataclass
class ValidationReport:
    theorem: str
    model_fingerprint: str
    n: int
    reps: int
    seed: int
    statistics: dict
    targets: dict
    passed: bool
    runtime_seconds: float
    notes: dict = field(default_factory=dict)


def normal_sf(z: float) -> float:
    """P(Z > z) for a standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def ks_statistic_normal(z_sorted: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance of ascending data from the standard normal."""
    cdf = np.array([normal_sf(-v) for v in z_sorted])
    steps = np.arange(len(cdf) + 1) / len(cdf)
    return float(max((steps[1:] - cdf).max(), (cdf - steps[:-1]).max()))


def _batch_sums(m: InarModel, n: int, reps: int, seed: int) -> np.ndarray:
    """S_n of each replication; replication r uses stream r, as in ``simulate_batch``."""
    if reps < 1:
        raise ValueError(f"replication count must be at least 1, got {reps}")
    master = RandomStream(seed=seed)
    return np.array(
        [simulate(m, n, master.with_stream(r)).counts.sum() for r in range(reps)],
        dtype=np.float64,
    )


def validate_lln(m: InarModel, n: int, reps: int, seed: int, mu_override=None) -> ValidationReport:
    """Mean of S_n/n against the long-run mean, within a 4-sigma band."""
    start = time.perf_counter()
    report = require_assumptions(m, labels=("a", "c"))
    mu = report.mu if mu_override is None else mu_override
    sigma2 = report.sigma2
    sums = _batch_sums(m, n, reps, seed)
    mean = float(sums.mean()) / n
    band = 4.0 * math.sqrt(sigma2 / (n * reps))
    passed = abs(mean - mu) <= band
    return ValidationReport(
        theorem="lln",
        model_fingerprint=m.fingerprint(),
        n=n,
        reps=reps,
        seed=seed,
        statistics={"mean_sn_over_n": mean, "abs_error": abs(mean - mu), "band": band},
        targets={"mu": mu},
        passed=bool(passed),
        runtime_seconds=time.perf_counter() - start,
    )


def validate_clt(
    m: InarModel, n: int, reps: int, seed: int, sigma2_override=None
) -> ValidationReport:
    """One-sample KS test of the standardized sums against the standard normal."""
    if reps < MIN_KS_REPS:
        raise ValueError(f"need at least {MIN_KS_REPS} replications for the asymptotic KS test")
    start = time.perf_counter()
    report = require_assumptions(m, labels=("a", "c"))
    mu = report.mu
    sigma2 = report.sigma2 if sigma2_override is None else sigma2_override
    if sigma2 <= 0.0:
        raise ValueError("degenerate model: the limiting variance vanishes")
    sums = _batch_sums(m, n, reps, seed)
    z = (sums - n * mu) / math.sqrt(n * sigma2)
    ks = ks_statistic_normal(np.sort(z))
    threshold = KS_CRITICAL_SCALE / math.sqrt(reps)
    return ValidationReport(
        theorem="clt",
        model_fingerprint=m.fingerprint(),
        n=n,
        reps=reps,
        seed=seed,
        statistics={"ks_statistic": ks, "threshold": threshold},
        targets={"mu": mu, "sigma2": sigma2},
        passed=bool(ks < threshold),
        runtime_seconds=time.perf_counter() - start,
    )


def predicted_tail_probability(m: InarModel, x: float, beta: float, n: int) -> float:
    """Normal approximation of P((S_n - n mu)/c(n) >= x), used to size batches."""
    sigma2 = clt_variance(m)
    c = float(n) ** beta
    return normal_sf(x * c / math.sqrt(n * sigma2))


def validate_mdp(
    m: InarModel, x: float, beta: float, n: int, reps, seed: int
) -> ValidationReport:
    """Empirical tail log-asymptotics at the moderate-deviation scale.

    Estimates p = P((S_n - n mu)/c(n) >= x) with c(n) = n**beta and reports
    -(n/c(n)^2) log p against the quadratic rate.  ``reps=None`` sizes the
    batch so the expected tail count comfortably exceeds the minimum.
    """
    if not 0.5 < beta < 1.0:
        raise ValueError(f"beta must lie strictly between 0.5 and 1, got {beta}")
    if x <= 0.0:
        raise ValueError(f"tail threshold must be positive, got {x}")
    start = time.perf_counter()
    p_pred = predicted_tail_probability(m, x, beta, n)
    if reps is None:
        if p_pred <= 0.0:
            raise InsufficientTailMass("predicted tail probability underflows to zero")
        reps = int(math.ceil(1.2 * MDP_MIN_EXPECTED_TAIL / p_pred))
    if reps * p_pred < MDP_MIN_EXPECTED_TAIL:
        raise InsufficientTailMass(
            f"expected tail count {reps * p_pred:.1f} below {MDP_MIN_EXPECTED_TAIL:.0f}; "
            f"increase reps (predicted tail probability {p_pred:.2e})"
        )
    mu = lln_mean(m)
    target = mdp_rate(m, x)
    c = float(n) ** beta
    sums = _batch_sums(m, n, reps, seed)
    tail_count = int(((sums - n * mu) / c >= x).sum())
    p_hat = tail_count / reps
    r_hat = -(n / c**2) * math.log(p_hat) if p_hat > 0.0 else math.inf
    lo, hi = MDP_BAND[0] * target, MDP_BAND[1] * target
    return ValidationReport(
        theorem="mdp",
        model_fingerprint=m.fingerprint(),
        n=n,
        reps=reps,
        seed=seed,
        statistics={
            "x": x,
            "beta": beta,
            "c_n": c,
            "tail_count": tail_count,
            "p_hat": p_hat,
            "p_predicted": p_pred,
            "r_hat": r_hat,
            "band_low": lo,
            "band_high": hi,
        },
        targets={"rate": target},
        passed=bool(lo <= r_hat <= hi),
        runtime_seconds=time.perf_counter() - start,
        notes={
            "band": "the [0.6, 1.4] acceptance band is an engineering choice; "
            "finite-horizon tail log-asymptotics converge only logarithmically"
        },
    )


def validate_gamma(
    m: InarModel, theta_grid, n: int, reps: int, seed: int, bootstrap: int = 200
) -> ValidationReport:
    """Empirical scaled log-MGF against the limiting CGF on a tilt grid.

    Every grid tilt must stay at or below half the critical tilt, which
    keeps the empirical MGF estimable.  Each point also carries the
    noise-free cross-check: the exact scaled log-MGF at a long horizon
    against the same limit.
    """
    start = time.perf_counter()
    theta_grid = [float(t) for t in theta_grid]
    tc, _ = critical_tilt(m)
    for theta in theta_grid:
        if theta > 0.5 * tc:
            raise ValueError(
                f"tilt {theta} exceeds half the critical tilt {tc}; the empirical MGF "
                "is not estimable there"
            )
    sums = _batch_sums(m, n, reps, seed)
    ones = np.ones(reps)
    boot_rng = RandomStream(seed=seed, stream=reps).generator()

    points = []
    all_ok = True
    for theta in theta_grid:
        emp = (log_sum_exp(theta * sums, ones) - math.log(reps)) / n
        target = limit_cgf(m, theta)
        boot = np.empty(bootstrap)
        for b in range(bootstrap):
            idx = boot_rng.integers(0, reps, size=reps)
            boot[b] = (log_sum_exp(theta * sums[idx], ones) - math.log(reps)) / n
        se = float(boot.std(ddof=1))
        tol = max(0.02, 3.0 * se)
        exact_gap = abs(
            log_mgf_exact(m, theta, GAMMA_DETERMINISTIC_N) / GAMMA_DETERMINISTIC_N - target
        )
        ok = abs(emp - target) <= tol and exact_gap < GAMMA_DETERMINISTIC_TOL
        all_ok = all_ok and ok
        points.append(
            {
                "theta": theta,
                "empirical": emp,
                "target": target,
                "tolerance": tol,
                "bootstrap_se": se,
                "exact_vs_limit_gap": exact_gap,
                "passed": bool(ok),
            }
        )
    return ValidationReport(
        theorem="gamma",
        model_fingerprint=m.fingerprint(),
        n=n,
        reps=reps,
        seed=seed,
        statistics={"points": points},
        targets={"deterministic_tolerance": GAMMA_DETERMINISTIC_TOL},
        passed=bool(all_ok),
        runtime_seconds=time.perf_counter() - start,
        notes={
            "deterministic_crosscheck": f"exact scaled log-MGF at n={GAMMA_DETERMINISTIC_N} "
            "compared with the limit at every grid tilt"
        },
    )
