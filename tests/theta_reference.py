"""Independent large-deviation reference: the Legendre transform solved in the tilt.

The package solves the transform in the fixed-point variable f with one
bisection.  This reference solves it the direct way: an outer bisection on
the tilt theta for the slope of the limiting CGF, where every slope
evaluation solves the fixed point F(f) = theta by its own inner bisection.
The two computations share only the fixed-point solver and the model's
closed forms.
"""

import math

from inarlim import critical_tilt, limit_cgf, lln_mean, tilt_fixed_point

OPT_XTOL = 1e-10
MAX_GROW = 200


def limit_cgf_prime(m, theta: float) -> float:
    """Slope of the limiting CGF: the immigration slope over the tilt gap's slope at f."""
    f = tilt_fixed_point(m, theta)
    slope = 1.0 - m.offspring.cgf_prime(f)
    num = m.immigration.log_mgf_prime(f)
    if slope <= 0.0 or num == math.inf:
        return math.inf
    return num / slope


def ldp_rate_theta(m, x: float) -> float:
    """sup over theta of theta x - limit_cgf(theta), by bisection on the slope in theta."""
    if x < 0.0:
        return math.inf
    if x == 0.0:
        p0 = m.immigration.pmf(0)
        return math.inf if p0 == 0.0 else -math.log(p0)
    mu = lln_mean(m)
    if x == mu:
        return 0.0
    theta_c, _ = critical_tilt(m)
    if x > mu:
        imm_max = m.immigration.support_max()
        if imm_max is not None and m.offspring.support_total() < 1.0 and x > imm_max:
            return math.inf
        lo, hi = 0.0, None
        for j in range(1, MAX_GROW):
            probe = theta_c * (1.0 - 0.5**j) if math.isfinite(theta_c) else float(2 ** (j - 1))
            if probe <= lo:
                continue
            if limit_cgf_prime(m, probe) >= x:
                hi = probe
                break
            lo = probe
        if hi is None:
            return max(0.0, lo * x - limit_cgf(m, lo))
    else:
        lo, hi, probe = None, 0.0, -1.0
        for _ in range(MAX_GROW):
            if limit_cgf_prime(m, probe) <= x:
                lo = probe
                break
            hi = probe
            probe *= 2.0
        if lo is None:
            return max(0.0, hi * x - limit_cgf(m, hi))
    while hi - lo > OPT_XTOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if limit_cgf_prime(m, mid) < x:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return max(0.0, theta * x - limit_cgf(m, theta))
