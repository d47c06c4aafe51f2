"""Reference simulator: the per-step loop the package used before it drew Poisson families by generations.

Each step draws the immigration, then the offspring of the earlier counts.
A Poisson family draws one Poisson total per step, with the decay law's
history sum as its rate; a lag list draws each lag's ``sample_sum`` in lag
order.  The package's lag lists, on the loop or on the tape of
uniforms, must match it bit for bit; its Poisson families must match it
in law.
"""

import numpy as np

from inarlim.model import InarModel, PoissonOffspring
from inarlim.simulate import RandomStream, Trajectory

_I64_MAX = np.iinfo(np.int64).max


def simulate_reference(m: InarModel, n: int, stream: RandomStream) -> Trajectory:
    """Simulate counts X_1..X_n from empty history, one time step at a time."""
    if n < 1:
        raise ValueError(f"horizon must be at least 1, got {n}")
    gen = stream.generator()
    poisson_family = isinstance(m.offspring, PoissonOffspring)
    if poisson_family:
        rate_after = m.offspring.decay.history_stepper(n)
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
                    total += laws[lag - 1].sample_sum(gen, cnt)
        if total > _I64_MAX:
            raise OverflowError(f"count at step {t + 1} exceeds the 64-bit integer maximum")
        x[t] = total
    return Trajectory(counts=x, stream=stream, model_fingerprint=m.fingerprint())
