"""Reference tilt recursion: the quadratic loop the package used before its loops per kernel kind.

Every step sums the offspring log-MGF over the window directly: a dot
product of the decay coefficients with expm1 of the earlier tilts for a
Poisson family, and each lag's log-MGF in lag order 1..w for explicit
laws, reading the tilts back from the array.  ``window`` defaults to the
whole history (``whole_history``), the exact sum that the package's loops
carry; a shorter window cuts the history as the package once did.
"""

import math

import numpy as np

from inarlim.distributions import _safe_expm1
from inarlim.model import FiniteDecay, PoissonOffspring


def whole_history(m, n: int) -> int:
    """Lags of history at horizon n: all n - 1 earlier steps, or a finite list's length if shorter.

    Past a list's end every coefficient is 0.  Those zeros are left out, as
    the package leaves them out: BLAS groups a dot product's terms by
    position, so padding a short list with zeros can move its last bit.
    """
    decay = m.offspring.mean_decay()
    lags = len(decay.values) if isinstance(decay, FiniteDecay) else n - 1
    return max(min(n - 1, lags), 1)


def tilt_recursion_reference(m, theta: float, n: int, window=None) -> tuple:
    """(values, log_mgf_total, diverged_at), with diverged_at the 1-based step of the first infinite tilt.

    The explicit loop adds ``np.float64`` terms, whose overflow to +inf
    numpy would report as a warning; it is silenced here, as the package's
    Python-float sums never raise one.  Two overflows follow the package,
    where the loop once gave nan or raised: an infinite expm1 at a lag with
    zero mean adds 0 rather than 0 * inf, and an immigration sum that
    overflows is +inf.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _reference(m, theta, n, window)


def _reference(m, theta, n, window):
    w = whole_history(m, n) if window is None else max(window, 1)
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
                x, a = e1[k - wk : k], alpha_rev[w - wk :]
                s = float(np.dot(x, a))
                if s != s:
                    # 0 * inf: the package takes an infinite expm1 at a zero-mean lag as 0
                    hit = x == math.inf
                    s = math.inf if (a[hit] > 0.0).any() else float(np.dot(np.where(hit, 0.0, x), a))
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
        return f[:diverged_at].copy(), math.inf, diverged_at + 1
    try:
        total = math.fsum(map(m.immigration.log_mgf, f))
    except OverflowError:
        # the loop raised here once; the package now returns the +inf it stands for
        total = math.inf
    return f, total, None
