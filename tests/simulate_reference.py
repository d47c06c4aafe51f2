"""Reference simulator: the per-step loop the package used before it drew Poisson families by generations.

Each step draws the immigration, then the offspring of the earlier counts.
A Poisson family draws one Poisson total per step, with the decay law's
history sum as its rate (``_history_stepper``, the package's old per-step
sum); a lag list draws each lag's offspring sum in lag order, by the
package's old sum draw (``_old_sample_sum``).  The package's Bernoulli and
finite-support lag lists, on the tape of uniforms, must match it bit for
bit; its other lag lists and its Poisson families must match it in law.
"""

import numpy as np

from inarlim.distributions import Constant, Poisson
from inarlim.model import GeometricDecay, InarModel, PoissonOffspring
from inarlim.simulate import RandomStream, Trajectory

_I64_MAX = np.iinfo(np.int64).max


def _old_sample_sum(law, gen, count: int) -> int:
    """The sum of count variates: Poisson(count * lam), count * value, or count ``sample`` draws summed."""
    if isinstance(law, Poisson):
        return int(gen.poisson(law.lam * count))
    if isinstance(law, Constant):
        return law.value * count
    return int(law.sample(gen, size=count).sum())


def _history_stepper(decay, n: int):
    """``step(k, u_{k-1})`` gives y_k = sum over i = 1..k of alpha_i u_{k-i}, called for k = 1, 2, ... in order.

    A geometric decay carries y_k = r y_{k-1} + c u_{k-1}; another decay
    law takes one contiguous dot of the kept values with its reversed
    coefficients, over the lags it has.  A law without mass gives 0.
    """
    if isinstance(decay, GeometricDecay):
        c, r = decay.c, decay.r
        s = 0.0

        def running(k: int, last: float) -> float:
            nonlocal s
            s = r * s + c * last
            return s

        return running if c else (lambda k, last: 0.0)
    alpha_rev = np.ascontiguousarray(decay.coefficients(decay._lags(n))[::-1])
    if not alpha_rev.any():
        return lambda k, last: 0.0
    lags = len(alpha_rev)
    u = np.empty(n, dtype=np.float64)

    def dot(k: int, last: float) -> float:
        u[k - 1] = last
        if k >= lags:
            return float(np.dot(u[k - lags : k], alpha_rev))
        return float(np.dot(u[:k], alpha_rev[lags - k :]))

    return dot


def simulate_reference(m: InarModel, n: int, stream: RandomStream) -> Trajectory:
    """Simulate counts X_1..X_n from empty history, one time step at a time."""
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    gen = stream.generator()
    poisson_family = isinstance(m.offspring, PoissonOffspring)
    if poisson_family:
        rate_after = _history_stepper(m.offspring.decay, n)
    else:
        laws = m.offspring.laws

    imm = m.immigration
    x = np.zeros(n, dtype=np.int64)
    total = 0
    for t in range(n):
        last, total = total, imm.sample(gen)
        if poisson_family:
            if t:
                rate = rate_after(t, float(last))
                if rate > 0.0:
                    total += int(gen.poisson(rate))
        else:
            for lag in range(1, min(t, len(laws)) + 1):
                cnt = int(x[t - lag])
                if cnt:
                    total += _old_sample_sum(laws[lag - 1], gen, cnt)
        if total > _I64_MAX:
            raise OverflowError(f"count at step {t + 1} exceeds the 64-bit integer maximum")
        x[t] = total
    return Trajectory(counts=x, stream=stream, model_fingerprint=m.fingerprint())
