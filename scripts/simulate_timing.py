#!/usr/bin/env python3
"""Best-of-k wall time of one ``simulate`` path, per kernel and horizon.

The kernels are the five fixtures of the benchmark's Monte Carlo battery;
four lag lists whose laws read the tape by a table or a closed form
rather than as Bernoulli or finite-support laws: a Binomial(2, 0.2) lag
with Bernoulli(0.5) immigration, pure Poisson(1) immigration without
lags, Poisson(0.3) and Poisson(0.2) lags with Poisson(1) immigration, and
a Geometric(0.6) lag with Bernoulli(0.5) immigration; the critical
staircase, a Constant(1) lag with Constant(1) immigration, whose counts
grow linearly and whose Constant laws read no uniform; two near-critical
geometric Hawkes kernels (mean_l1 = 0.9 and 0.95, ratio 0.5, Poisson(1)
immigration); and a power law of mean_l1 = 0.9 (a = 2) with Poisson(10)
immigration, whose first generations are drawn by child time.  Each time
is the fastest of ``--repeats`` paths, on streams 0, 1, ... of seed 1, in
milliseconds.
Run it against another checkout with PYTHONPATH pointing at its ``src``
to compare two versions on the same machine.
"""

import argparse
import math
import time

from inarlim import (
    Bernoulli,
    Binomial,
    Constant,
    ExplicitOffspring,
    FiniteSupport,
    Geometric,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    RandomStream,
    simulate,
)


def kernels() -> dict:
    hawkes = {
        f"hawkes_{mass}": InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(c=mass * 0.5, r=0.5)))
        for mass in (0.5, 0.9, 0.95)
    }
    return {
        "hawkes": hawkes.pop("hawkes_0.5"),
        "ar1": InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.4),))),
        "two_lag": InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.35), Bernoulli(0.25)))),
        "finite_mix": InarModel(
            FiniteSupport((0.3, 0.5, 0.2)), ExplicitOffspring((FiniteSupport((0.7, 0.2, 0.1)),))
        ),
        "power_law": InarModel(Poisson(1.0), PoissonOffspring(PowerLawDecay(c=0.3, a=2.0))),
        "binomial_lag": InarModel(Bernoulli(0.5), ExplicitOffspring((Binomial(2, 0.2),))),
        "poisson_imm": InarModel(Poisson(1.0), ExplicitOffspring(())),
        "two_poisson_lags": InarModel(Poisson(1.0), ExplicitOffspring((Poisson(0.3), Poisson(0.2)))),
        "geometric_lag": InarModel(Bernoulli(0.5), ExplicitOffspring((Geometric(0.6),))),
        "staircase": InarModel(Constant(1), ExplicitOffspring((Constant(1),))),
        **hawkes,
        # c * zeta(2) = 0.9
        "power_law_0.9_imm10": InarModel(
            Poisson(10.0), PoissonOffspring(PowerLawDecay(c=0.9 * 6.0 / math.pi**2, a=2.0))
        ),
    }


def best_ms(m: InarModel, n: int, repeats: int) -> float:
    best = float("inf")
    for r in range(repeats):
        start = time.perf_counter()
        simulate(m, n, RandomStream(seed=1, stream=r))
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizons", default="500,10000", help="comma-separated path lengths")
    parser.add_argument("--repeats", type=int, default=15, help="paths per cell; the fastest is kept")
    args = parser.parse_args()
    horizons = [int(v) for v in args.horizons.split(",")]

    print("| kernel | " + " | ".join(f"n = {n} (ms)" for n in horizons) + " |")
    print("|---|" + "---:|" * len(horizons))
    for name, m in kernels().items():
        cells = " | ".join(f"{best_ms(m, n, args.repeats):.3f}" for n in horizons)
        print(f"| {name} | {cells} |")


if __name__ == "__main__":
    main()
