"""References for the geometric loops: the running sums as they ran before they stopped early.

The package's geometric loops stop once their state repeats bit for bit
and fill the rest of their output.  These are the loops they replaced,
kept verbatim, which compute every step to the horizon:
``poisson_tilts_reference`` runs f_k = theta + y_k with
y_k = r y_{k-1} + c expm1(f_{k-1}), and ``running_tables_reference`` the
three running sums of the expansion tables.
"""

import math

import numpy as np


def poisson_tilts_reference(c: float, r: float, theta: float, f: np.ndarray) -> int:
    """Write the tilts into f; return how many are finite, stopping before the first infinite one."""
    if c == 0.0:
        f[0] = theta
        later = theta + 0.0
        if len(f) > 1 and not math.isfinite(later):
            return 1
        f[1:] = later
        return len(f)
    out = memoryview(f)  # item stores from Python floats
    expm1, isfinite = math.expm1, math.isfinite
    s = 0.0
    f[0] = last = theta
    for k in range(1, len(f)):
        try:
            s = r * s + c * expm1(last)
        except OverflowError:
            return k  # c * inf makes f_k infinite
        last = theta + s
        if not isfinite(last):
            return k
        out[k] = last
    return len(f)


def tilt_recursion_reference(m, theta: float, n: int) -> tuple:
    """(values, log_mgf_total, diverged_at) of a geometric Poisson family, as ``tilt_recursion`` gives them."""
    decay = m.offspring.decay
    f = np.empty(n, dtype=np.float64)
    k = poisson_tilts_reference(decay.c, decay.r, theta, f)
    if k < n:
        return f[:k].copy(), math.inf, k + 1
    try:
        total = math.fsum(map(m.immigration.log_mgf, memoryview(f)))
    except OverflowError:
        total = math.copysign(math.inf, theta)
    return f, total, None


def running_tables_reference(c: float, r: float, c_var: float, r_var: float, n: int) -> tuple:
    """(g1, g1^2, g2) at horizon n, each history sum a running sum y_k = r y_{k-1} + c u_{k-1}."""
    g1, g1sq, g2 = np.empty(n), np.empty(n), np.empty(n)
    g1[0], g1sq[0], g2[0] = 1.0, 1.0, 0.0
    # item stores from Python floats
    out1, out1sq, out2 = memoryview(g1), memoryview(g1sq), memoryview(g2)
    s1 = s1sq = s2 = 0.0
    a, a_sq, b = 1.0, 1.0, 0.0
    for k in range(1, n):
        s2 = r * s2 + c * b
        s1sq = r_var * s1sq + c_var * a_sq
        b = s2 + 0.5 * s1sq
        s1 = r * s1 + c * a
        a = 1.0 + s1
        a_sq = a * a
        out1[k] = a
        out1sq[k] = a_sq
        out2[k] = b
    return g1, g1sq, g2
