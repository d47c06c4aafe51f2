"""Bisection reference for the theory layer's root solves.

``asymptotics`` solves each root by ITP steps on the values of its
bracket (``_solve``).  This module keeps the bisection that solve
replaced, as it stood: the bracket walk on a left-of-root predicate,
``_bisect``, and the three solves built on them (the maximizer of the
tilt gap, the fixed point F(f) = theta and the Legendre transform in the
fixed-point variable), with ``limit_cgf`` and ``ldp_rate`` on top.  The
two share only the model's closed forms (``tilt_gap`` and its slope).
"""

import math

from inarlim.asymptotics import OPT_XTOL, ROOT_XTOL, _tilt_gap_prime, tilt_gap
from inarlim.model import require_assumptions

_MAX_GROW = 200


def _bracket(left_of_root, bound: float) -> tuple:
    """Walk from 0 toward ``bound`` until a probe lands across the root.

    Probes double from +-1 when the bound is infinite and halve their gap
    to it otherwise.  Returns (lo, hi) around the root, with None on the
    far side when no probe crossed.
    """
    rightward = bound > 0.0
    near = 0.0
    for j in range(1, _MAX_GROW):
        if math.isinf(bound):
            probe = math.copysign(2.0 ** (j - 1), bound)
        else:
            probe = bound * (1.0 - 0.5**j)
        if probe == near:
            continue
        if left_of_root(probe) != rightward:
            return (near, probe) if rightward else (probe, near)
        near = probe
    return (near, None) if rightward else (None, near)


def _bisect(left_of_root, lo: float, hi: float, xtol: float) -> float:
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if left_of_root(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_tilt(m) -> tuple:
    """(sup F, attained, argmax), as ``asymptotics._critical_tilt`` computes them by bisection."""
    require_assumptions(m, labels=("a",))
    s_total = m.offspring.support_total()
    if s_total < 1.0:
        # no offspring at all: F is the identity, unbounded above
        return math.inf, False, math.nan
    if s_total == 1.0:
        # F increases to a finite horizontal asymptote
        asymptote = -math.fsum(
            math.log(law.pmf(law.support_max())) for law in m.offspring.laws
        )
        return asymptote, False, math.nan
    # F' crosses zero at an interior maximizer
    rising = lambda x: _tilt_gap_prime(m, x) > 0.0
    lo, hi = _bracket(rising, m.offspring.domain_sup())
    if hi is None:
        raise RuntimeError("failed to bracket the maximizer of the tilt gap")
    x_star = _bisect(rising, lo, hi, OPT_XTOL)
    return tilt_gap(m, x_star), True, x_star


def tilt_fixed_point(m, theta: float) -> float:
    """Smaller root of F(x) = theta, for theta up to the critical tilt."""
    if theta == 0.0:
        return 0.0
    value, attained, argmax = critical_tilt(m)
    if theta > value:
        raise ValueError(f"no fixed point: tilt {theta} exceeds the critical value {value}")
    if theta == value:
        if not attained:
            raise ValueError(
                "no fixed point: the critical tilt is an unattained supremum"
            )
        return argmax

    # F is increasing left of its maximizer, so the root is where F crosses theta
    below = lambda x: tilt_gap(m, x) < theta
    if theta > 0.0 and attained:
        if below(argmax):
            # theta within rounding of the critical value
            return argmax
        lo, hi = 0.0, argmax
    else:
        lo, hi = _bracket(below, math.copysign(math.inf, theta))
        if lo is None or hi is None:
            raise ValueError(f"no fixed point found for tilt {theta}")
    return _bisect(below, lo, hi, ROOT_XTOL)


def limit_cgf(m, theta: float) -> float:
    """Immigration log-MGF at the bisected fixed point; +inf past the critical tilt."""
    value, attained, _ = critical_tilt(m)
    if theta > value or (theta == value and not attained):
        return math.inf
    return m.immigration.log_mgf(tilt_fixed_point(m, theta))


def _legendre_at_fixed_point(m, x: float, f_max: float) -> float:
    """sup over theta of theta x - limit_cgf(theta), by one bisection in the fixed point f."""
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

    def rising(f: float) -> bool:
        return x * _tilt_gap_prime(m, f) - m.immigration.log_mgf_prime(f) > 0.0

    if rising(0.0):
        bound = min(f_max, m.offspring.domain_sup(), m.immigration.log_mgf_domain_sup())
    else:
        bound = -math.inf
    lo, hi = _bracket(rising, bound)
    if lo is None or hi is None:
        return max(0.0, objective(hi if lo is None else lo))
    return max(0.0, objective(_bisect(rising, lo, hi, OPT_XTOL)))


def ldp_rate(m, x: float) -> float:
    """Large-deviation rate: the Legendre transform of the limiting CGF, by bisection."""
    if x == require_assumptions(m, labels=("a", "c")).mu:
        return 0.0
    _, attained, argmax = critical_tilt(m)
    return _legendre_at_fixed_point(m, x, argmax if attained else math.inf)
