"""References for the history sums: the loops that the package ran before them.

``gbar_tables_reference`` is the windowed loop of the expansion tables.
Each entry takes its dot products directly over the window, first while the
window still reaches back to step 1, then over the whole window.  ``window``
defaults to the whole history (``whole_history``), which the package's
history sums keep exactly.  ``conditional_means_reference`` accumulates
E[X_t | past] lag by lag, as the martingale diagnostic once did.
"""

import numpy as np

from tilt_reference import whole_history


def gbar_tables_reference(m, n: int, window=None) -> tuple:
    """(g1, g1^2, g2) at horizon n, summed over the last ``window`` lags at most."""
    w = whole_history(m, n) if window is None else max(window, 1)
    mean_rev = np.ascontiguousarray(m.offspring.mean_decay().coefficients(w)[::-1])
    var_rev = np.ascontiguousarray(m.offspring.var_decay().coefficients(w)[::-1])

    g1 = np.empty(n, dtype=np.float64)
    g1sq = np.empty(n, dtype=np.float64)
    g2 = np.empty(n, dtype=np.float64)
    g1[0] = 1.0
    g1sq[0] = 1.0
    g2[0] = 0.0
    dot = np.dot
    head = min(w, n)
    # the window still reaches back to step 1: the coefficients' tail end
    for k in range(1, head):
        a = 1.0 + dot(g1[:k], mean_rev[w - k :])
        g1[k] = a
        g1sq[k] = a * a
        g2[k] = dot(g2[:k], mean_rev[w - k :]) + 0.5 * dot(g1sq[:k], var_rev[w - k :])
    # the whole window
    for k in range(head, n):
        lo = k - w
        a = 1.0 + dot(g1[lo:k], mean_rev)
        g1[k] = a
        g1sq[k] = a * a
        g2[k] = dot(g2[lo:k], mean_rev) + 0.5 * dot(g1sq[lo:k], var_rev)
    return g1, g1sq, g2


def conditional_means_reference(m, counts) -> np.ndarray:
    """E[X_t | past] for t = 1..n, accumulated lag by lag over the whole history."""
    n = len(counts)
    coeffs = m.offspring.mean_decay().coefficients(max(n - 1, 1))
    xf = counts.astype(float)
    cond = np.full(n, m.immigration.mean())
    for k in range(1, min(len(coeffs), n - 1) + 1):
        cond[k:] += coeffs[k - 1] * xf[: n - k]
    return cond
