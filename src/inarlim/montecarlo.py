"""The six checks of the limit theory, each returning a ``ValidationReport``.

Four are empirical: ``validate_lln``, ``validate_clt``, ``validate_mdp`` and
``validate_gamma`` simulate a seeded batch and compare a statistic with its
theoretical target.  Two are deterministic and draw nothing:
``validate_cesaro`` compares the Cesaro means of the expansion tables with
their closed-form limits, and ``validate_oracle`` compares the tilt
recursion with the exact enumerated law.  Every report is self-auditing:
the verdict is re-derivable from the stored numbers alone.

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

from .asymptotics import clt_variance, critical_tilt, limit_cgf, quadratic_rate
from .distributions import log_sum_exp
from .errors import InsufficientTailMass
from .model import InarModel, require_assumptions
from .oracle import enumerate_sum_distributions
from .recursions import gbar_tables, log_mgf_by_horizon, log_mgf_exact
from .simulate import RandomStream, simulate

__all__ = [
    "ValidationReport",
    "validate_lln",
    "validate_clt",
    "validate_mdp",
    "validate_gamma",
    "validate_cesaro",
    "validate_oracle",
    "KS_CRITICAL_SCALE",
    "MDP_BAND",
    "CESARO_REL_TOL",
    "ORACLE_TOL",
    "ORACLE_THETA_GRID",
]

KS_CRITICAL_SCALE = 1.95  # asymptotic one-sample critical value at level 0.001
MIN_KS_REPS = 500  # keeps the asymptotic critical value applicable
MDP_BAND = (0.6, 1.4)  # wide band: tail log-asymptotics converge logarithmically
MDP_MIN_EXPECTED_TAIL = 50.0
GAMMA_DETERMINISTIC_N = 100_000
GAMMA_DETERMINISTIC_TOL = 1e-3
CESARO_REL_TOL = 0.01
ORACLE_TOL = 1e-10
ORACLE_THETA_GRID = (-1.0, -0.3, 0.0, 0.4, math.log(2.0))


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


def _report(
    theorem: str, m: InarModel, n: int, reps: int, seed: int, start: float,
    statistics: dict, targets: dict, passed: bool, notes: dict | None = None,
) -> ValidationReport:
    """The one place reports are built; the runtime is measured from ``start``."""
    return ValidationReport(
        theorem=theorem,
        model_fingerprint=m.fingerprint(),
        n=n,
        reps=reps,
        seed=seed,
        statistics=statistics,
        targets=targets,
        passed=bool(passed),
        runtime_seconds=time.perf_counter() - start,
        notes=notes or {},
    )


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
    return _report(
        "lln", m, n, reps, seed, start,
        statistics={"mean_sn_over_n": mean, "abs_error": abs(mean - mu), "band": band},
        targets={"mu": mu},
        passed=abs(mean - mu) <= band,
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
    return _report(
        "clt", m, n, reps, seed, start,
        statistics={"ks_statistic": ks, "threshold": threshold},
        targets={"mu": mu, "sigma2": sigma2},
        passed=ks < threshold,
    )


def predicted_tail_probability(m: InarModel, x: float, beta: float, n: int) -> float:
    """Normal approximation of P((S_n - n mu)/c(n) >= x), used to size batches."""
    return _normal_tail(x, beta, n, clt_variance(m))


def _normal_tail(x: float, beta: float, n: int, sigma2: float) -> float:
    return normal_sf(x * float(n) ** beta / math.sqrt(n * sigma2))


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
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    start = time.perf_counter()
    report = require_assumptions(m, labels=("a", "c"))
    mu = report.mu
    target = quadratic_rate(x, report.sigma2)
    p_pred = _normal_tail(x, beta, n, report.sigma2)
    if reps is None:
        if p_pred <= 0.0:
            raise InsufficientTailMass("predicted tail probability underflows to zero")
        reps = int(math.ceil(1.2 * MDP_MIN_EXPECTED_TAIL / p_pred))
    if reps * p_pred < MDP_MIN_EXPECTED_TAIL:
        raise InsufficientTailMass(
            f"expected tail count {reps * p_pred:.1f} below {MDP_MIN_EXPECTED_TAIL:.0f}; "
            f"increase reps (predicted tail probability {p_pred:.2e})"
        )
    c = float(n) ** beta
    sums = _batch_sums(m, n, reps, seed)
    tail_count = int(((sums - n * mu) / c >= x).sum())
    p_hat = tail_count / reps
    r_hat = -(n / c**2) * math.log(p_hat) if p_hat > 0.0 else math.inf
    lo, hi = MDP_BAND[0] * target, MDP_BAND[1] * target
    return _report(
        "mdp", m, n, reps, seed, start,
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
        passed=lo <= r_hat <= hi,
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
    if not theta_grid:
        raise ValueError("tilt grid must be nonempty")
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
    return _report(
        "gamma", m, n, reps, seed, start,
        statistics={"points": points},
        targets={"deterministic_tolerance": GAMMA_DETERMINISTIC_TOL},
        passed=all_ok,
        notes={
            "deterministic_crosscheck": f"exact scaled log-MGF at n={GAMMA_DETERMINISTIC_N} "
            "compared with the limit at every grid tilt"
        },
    )


def validate_cesaro(m: InarModel, n: int) -> ValidationReport:
    """Deterministic: Cesaro means of the expansion tables against their closed-form limits."""
    start = time.perf_counter()
    tables = gbar_tables(m, n)
    pairs = tables.pairs()
    rel = [abs(e - lim) / abs(lim) if lim != 0.0 else abs(e) for e, lim in pairs]
    (g1_mean, _), (g1_sq_mean, _), (g2_mean, _) = pairs
    return _report(
        "cesaro", m, n, 0, 0, start,
        statistics={
            "g1_mean": g1_mean,
            "g1_sq_mean": g1_sq_mean,
            "g2_mean": g2_mean,
            "relative_errors": rel,
        },
        targets={
            "g1_limit": tables.g1_limit,
            "g1_sq_limit": tables.g1_sq_limit,
            "g2_limit": tables.g2_limit,
            "relative_tolerance": CESARO_REL_TOL,
        },
        passed=all(r < CESARO_REL_TOL for r in rel),
    )


def validate_oracle(m: InarModel, n: int) -> ValidationReport:
    """Deterministic: the tilt recursion against the enumerated exact law at every horizon up to n.

    Needs a bounded model small enough to enumerate (``EnumerationError`` otherwise).
    """
    return _oracle_report_and_law(m, n)[0]


def _oracle_report_and_law(m: InarModel, n: int) -> tuple:
    """``validate_oracle``'s report, with the exact law of S_n it enumerated last."""
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    start = time.perf_counter()
    # one tilt recursion per theta gives the exact log-MGF at every horizon
    exact = {theta: log_mgf_by_horizon(m, theta, n) for theta in ORACLE_THETA_GRID}
    points = []
    for k, law in enumerate(enumerate_sum_distributions(m, n), start=1):
        for theta in ORACLE_THETA_GRID:
            gap = abs(law.log_mgf(theta) - exact[theta][k - 1])
            points.append({"n": k, "theta": theta, "gap": gap})
    worst = max(p["gap"] for p in points)
    report = _report(
        "oracle", m, n, 0, 0, start,
        statistics={"worst_gap": worst, "points": points},
        targets={"tolerance": ORACLE_TOL},
        passed=worst < ORACLE_TOL,
    )
    return report, law
