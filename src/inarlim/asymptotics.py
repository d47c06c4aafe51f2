"""Closed-form and numerically solved asymptotic quantities.

The long-run mean, the limiting Gaussian variance, the concave map
F(x) = x - sum_k log E[exp(x xi_k)] whose level sets define the critical
tilt and the fixed-point tilt, the limiting scaled cumulant generating
function, and the large/moderate-deviation rate functions.

Every root is bracketed first: concavity guarantees a sign change, and
one bracket walk finds it.  One bracketed solver (``_solve``, ITP steps
on the values the walk already has) then keeps bisection's worst case
while converging superlinearly on these smooth roots.  Derivatives use
the catalog's closed forms.  Fixed-point roots are located to 1e-12 in
the argument, transform optima to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .distributions import CountDistribution
from .model import ExplicitOffspring, InarModel, require_assumptions

__all__ = [
    "TheorySummary",
    "theory_summary",
    "lln_mean",
    "clt_variance",
    "mdp_rate",
    "tilt_gap",
    "critical_tilt",
    "tilt_fixed_point",
    "limit_cgf",
    "ldp_rate",
    "inar1_ldp_rate",
]

ROOT_XTOL = 1e-12
OPT_XTOL = 1e-10
_MAX_GROW = 200
# ITP constants: the truncation is _ITP_K1 * (bracket width)**2 / (initial
# width), and a solve may take _ITP_N0 steps beyond bisection's count.
_ITP_K1 = 0.2
_ITP_N0 = 1


def _bracket(value, bound: float, at_zero: float) -> tuple:
    """Walk from 0 toward ``bound`` until a probe lands across the root.

    ``value`` is positive left of the root and not positive right of it
    (0 counts as right); ``at_zero`` is its value at 0.  Probes double
    from +-1 when the bound is infinite and halve their gap to it
    otherwise.  Returns (lo, hi, value at lo, value at hi) around the
    root, with None for the far side and its value when no probe crossed.
    """
    rightward = bound > 0.0
    near, v_near = 0.0, at_zero
    for j in range(1, _MAX_GROW):
        if math.isinf(bound):
            probe = math.copysign(2.0 ** (j - 1), bound)
        else:
            probe = bound * (1.0 - 0.5**j)
        if probe == near:
            continue
        v = value(probe)
        if (v > 0.0) != rightward:
            return (near, probe, v_near, v) if rightward else (probe, near, v, v_near)
        near, v_near = probe, v
    return (near, None, v_near, None) if rightward else (None, near, None, v_near)


def _solve(value, lo: float, hi: float, v_lo: float, v_hi: float, xtol: float) -> float:
    """Root of ``value`` (as for ``_bracket``) in [lo, hi], given its values at the ends.

    Each step is ITP's (Oliveira & Takahashi 2020, ACM Trans. Math.
    Softw. 47(1)): the regula falsi point, moved toward the midpoint by
    the truncation, then projected to within the distance of the
    midpoint that keeps bisection's worst case.  A bisection step
    replaces it while an end value is not finite.  Returns the midpoint
    of a final bracket no wider than xtol, or of one its midpoint can no
    longer split, after at most ceil(log2((hi - lo) / xtol)) + _ITP_N0
    evaluations.
    """
    width = hi - lo
    kappa1 = _ITP_K1 / width
    # The widest bracket the next step may leave; it halves every step.  It
    # keeps 4 ulps of the larger end free at the last step, room for the
    # rounding that every step adds, so rounding costs no extra step.
    spare = 4.0 * math.ulp(max(abs(lo), abs(hi)))
    cap = (xtol - spare) * 2.0 ** (math.ceil(math.log2(width / xtol)) + _ITP_N0 - 1)
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        x = mid
        if math.isfinite(v_lo) and math.isfinite(v_hi):
            offset = lo + (hi - lo) * (v_lo / (v_lo - v_hi)) - mid
            shift = min(abs(offset) - kappa1 * (hi - lo) ** 2, cap - 0.5 * (hi - lo))
            itp = mid + math.copysign(max(shift, 0.0), offset)
            if lo < itp < hi:  # not when rounding puts the point on an end
                x = itp
        v = value(x)
        if v > 0.0:
            lo, v_lo = x, v
        else:
            hi, v_hi = x, v
        cap *= 0.5
    return 0.5 * (lo + hi)


def tilt_gap(m: InarModel, x: float) -> float:
    """F(x) = x minus the summed offspring log-MGF at tilt x.

    Concave, F(0) = 0, and F'(0) = 1 - mean_l1 > 0 under subcriticality.
    Returns -inf when the offspring log-MGF diverges at x.
    """
    g = m.offspring.cgf(x)
    return -math.inf if g == math.inf else x - g


def _tilt_gap_prime(m: InarModel, x: float) -> float:
    g = m.offspring.cgf_prime(x)
    return -math.inf if g == math.inf else 1.0 - g


@dataclass(frozen=True)
class _CriticalTilt:
    value: float
    attained: bool
    argmax: float


@lru_cache(maxsize=256)
def _critical_tilt(m: InarModel) -> _CriticalTilt:
    """Per model, and only under assumption (a): a violation raises and is not cached."""
    require_assumptions(m, labels=("a",))
    s_total = m.offspring.support_total()
    if s_total < 1.0:
        # no offspring at all: F is the identity, unbounded above
        return _CriticalTilt(value=math.inf, attained=False, argmax=math.nan)
    if s_total == 1.0:
        # F increases to a finite horizontal asymptote
        asymptote = -math.fsum(
            math.log(law.pmf(law.support_max())) for law in m.offspring.laws
        )
        return _CriticalTilt(value=asymptote, attained=False, argmax=math.nan)
    # F' crosses zero at an interior maximizer
    slope = lambda x: _tilt_gap_prime(m, x)
    lo, hi, v_lo, v_hi = _bracket(slope, m.offspring.domain_sup(), slope(0.0))
    if hi is None:
        raise RuntimeError("failed to bracket the maximizer of the tilt gap")
    x_star = _solve(slope, lo, hi, v_lo, v_hi, OPT_XTOL)
    return _CriticalTilt(value=tilt_gap(m, x_star), attained=True, argmax=x_star)


def critical_tilt(m: InarModel) -> tuple:
    """Supremum of the tilt gap and whether a finite maximizer attains it.

    Unattained cases: a strictly increasing F with a finite asymptote
    (bounded offspring whose support maxima sum to exactly 1), reported as
    the limit value, or F unbounded above (no offspring), reported as
    +inf.  The fixed-point solver accepts the critical value itself only
    when it is attained.  Raises AssumptionViolation unless (a) holds.
    """
    ct = _critical_tilt(m)
    return ct.value, ct.attained


def tilt_fixed_point(m: InarModel, theta: float) -> float:
    """Smaller root of F(x) = theta, for theta up to the critical tilt."""
    if math.isnan(theta):
        raise ValueError("no fixed point: the tilt is NaN")
    if theta == 0.0:
        return 0.0
    ct = _critical_tilt(m)
    if theta > ct.value:
        raise ValueError(f"no fixed point: tilt {theta} exceeds the critical value {ct.value}")
    if theta == ct.value:
        if not ct.attained:
            raise ValueError(
                "no fixed point: the critical tilt is an unattained supremum"
            )
        return ct.argmax

    # F is increasing left of its maximizer, so the root is where F crosses theta:
    # theta - F is positive left of it, theta at 0 (F(0) = 0) and
    # theta - ct.value < 0 at the maximizer
    excess = lambda x: theta - tilt_gap(m, x)
    if theta > 0.0 and ct.attained:
        lo, hi, v_lo, v_hi = 0.0, ct.argmax, theta, theta - ct.value
    else:
        lo, hi, v_lo, v_hi = _bracket(excess, math.copysign(math.inf, theta), theta)
        if lo is None or hi is None:
            raise ValueError(f"no fixed point found for tilt {theta}")
    return _solve(excess, lo, hi, v_lo, v_hi, ROOT_XTOL)


def limit_cgf(m: InarModel, theta: float) -> float:
    """Limiting per-step log-MGF of the partial sum: imm log-MGF at the fixed point.

    +inf beyond the critical tilt, and at the critical tilt itself when
    that value is only a supremum.
    """
    ct = _critical_tilt(m)
    if theta > ct.value or (theta == ct.value and not ct.attained):
        return math.inf
    f = tilt_fixed_point(m, theta)
    return m.immigration.log_mgf(f)


def lln_mean(m: InarModel) -> float:
    """Long-run mean of the per-step counts: E[immigration] / (1 - mean_l1)."""
    return require_assumptions(m, labels=("a", "c")).mu


def clt_variance(m: InarModel) -> float:
    """Variance of the Gaussian limit of (S_n - n mu) / sqrt(n)."""
    return require_assumptions(m, labels=("a", "c")).sigma2


def mdp_rate(m: InarModel, x: float) -> float:
    """Moderate-deviation rate x^2 / (2 sigma^2)."""
    return quadratic_rate(x, clt_variance(m))


def quadratic_rate(x: float, sigma2: float) -> float:
    """x^2 / (2 sigma2): the moderate-deviation rate of a model with CLT variance sigma2."""
    if sigma2 == 0.0:
        raise ValueError(
            "degenerate model: immigration and offspring are all constant, "
            "the moderate-deviation rate is undefined"
        )
    return x * x / (2.0 * sigma2)


def _legendre_at_fixed_point(m: InarModel, x: float, f_max: float) -> float:
    """sup over theta of theta x - limit_cgf(theta), parametrized by the fixed point f.

    With theta = F(f) the objective is x F(f) - log E[exp(f eps)] for f up
    to f_max or the edge of the offspring and immigration domains.  Its
    slope x F'(f) - (d/df) log E[exp(f eps)] has the sign of x minus the
    limiting CGF's slope, so one bracketed solve of that slope finds the
    maximizer.  When the slope keeps its sign up to the boundary, the
    supremum is the limit there.
    """
    if math.isnan(x):
        raise ValueError("the mean of the large-deviation rate is NaN")
    a = m.immigration.support_min()
    if x < a:
        # every S_n is at least n a
        return math.inf
    if x == a:
        # S_n = n a: every immigration draw is a and none of its n a individuals has offspring
        return -math.log(m.immigration.pmf(a)) - a * m.offspring.log_no_offspring()
    imm_max = m.immigration.support_max()
    if m.offspring.support_total() < 1.0 and imm_max is not None and x > float(imm_max):
        # no offspring and bounded immigration: means above the max are unreachable
        return math.inf

    def objective(f: float) -> float:
        return x * tilt_gap(m, f) - m.immigration.log_mgf(f)

    def slope(f: float) -> float:
        return x * _tilt_gap_prime(m, f) - m.immigration.log_mgf_prime(f)

    at_zero = slope(0.0)
    if at_zero > 0.0:
        bound = min(f_max, m.offspring.domain_sup(), m.immigration.log_mgf_domain_sup())
    else:
        bound = -math.inf
    lo, hi, v_lo, v_hi = _bracket(slope, bound, at_zero)
    if lo is None or hi is None:
        return max(0.0, objective(hi if lo is None else lo))
    return max(0.0, objective(_solve(slope, lo, hi, v_lo, v_hi, OPT_XTOL)))


def ldp_rate(m: InarModel, x: float) -> float:
    """Large-deviation rate: Legendre transform of the limiting CGF.

    Solved in the fixed-point variable f rather than the tilt, with one
    bracketed solve: as f runs up to the maximizer of F (or to the domain edge
    when F has none) the tilt F(f) runs over its whole range.  Means
    outside the reachable range give +inf.
    """
    if x == require_assumptions(m, labels=("a", "c")).mu:
        return 0.0
    ct = _critical_tilt(m)
    return _legendre_at_fixed_point(m, x, ct.argmax if ct.attained else math.inf)


def inar1_ldp_rate(eps: CountDistribution, xi1: CountDistribution, x: float) -> float:
    """Single-lag large-deviation rate in its direct one-parameter form.

    Maximizes psi -> x (psi - log E[exp(psi xi1)]) - log E[exp(psi eps)],
    which reparameterizes the Legendre transform of the limiting CGF for
    the model with only the first lag active: the same solve as
    ``ldp_rate``, over the whole domain of psi.
    """
    m = InarModel(eps, ExplicitOffspring((xi1,)))
    require_assumptions(m, labels=("a",))
    return _legendre_at_fixed_point(m, x, math.inf)


@dataclass(frozen=True)
class TheorySummary:
    """Asymptotic constants of one model; the rate functions take the model (``ldp_rate``)."""

    mu: float
    sigma2: float
    theta_c: float
    theta_c_attained: bool
    offspring_mean_l1: float
    offspring_var_l1: float


def theory_summary(m: InarModel) -> TheorySummary:
    report = require_assumptions(m, labels=("a", "c"))
    ct = _critical_tilt(m)
    return TheorySummary(
        mu=report.mu,
        sigma2=report.sigma2,
        theta_c=ct.value,
        theta_c_attained=ct.attained,
        offspring_mean_l1=report.mean_l1,
        offspring_var_l1=report.var_l1,
    )
