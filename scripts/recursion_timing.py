#!/usr/bin/env python3
"""Best-of-k wall time of ``tilt_recursion`` and ``gbar_tables``, per kernel and horizon.

The kernels are the five fixtures of the benchmark: the geometric Hawkes
kernel, the AR(1), the two-lag list, the finite-support mix and the power
law.  Each tilt recursion runs at half the kernel's critical tilt, where
it settles (its tilts stop changing) within a few hundred steps.  One more
row runs the AR(1) at 0.99999 of its critical tilt, where the tilts never
settle within 1e5 steps, so each loop pays its settle check at every
step; its tables are the AR(1)'s.  Each time is the fastest of
``--repeats`` calls, in milliseconds.  ``--table-horizons`` times the
tables at other horizons than the tilts (by default the same), so the
tables can be timed at n = 1e6 without the power law's O(n**2) tilts.
Run it against another checkout with PYTHONPATH pointing at its ``src``
to compare two versions on the same machine.
"""

import argparse
import time

from inarlim import (
    Bernoulli,
    ExplicitOffspring,
    FiniteSupport,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    critical_tilt,
    gbar_tables,
    tilt_recursion,
)


def kernels() -> dict:
    """Each row's model and its tilt as a fraction of the critical tilt."""
    ar1 = InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.4),)))
    return {
        "hawkes": (InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(c=0.25, r=0.5))), 0.5),
        "ar1": (ar1, 0.5),
        "two_lag": (InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.35), Bernoulli(0.25)))), 0.5),
        "finite_mix": (
            InarModel(FiniteSupport((0.3, 0.5, 0.2)), ExplicitOffspring((FiniteSupport((0.7, 0.2, 0.1)),))),
            0.5,
        ),
        "power_law": (InarModel(Poisson(1.0), PoissonOffspring(PowerLawDecay(c=0.3, a=2.0))), 0.5),
        "ar1_0.99999": (ar1, 0.99999),
    }


def best_ms(call, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--horizons", default="2000,20000", help="comma-separated horizons")
    parser.add_argument("--table-horizons", help="comma-separated horizons of the tables (default: --horizons)")
    parser.add_argument("--repeats", type=int, default=5, help="calls per cell; the fastest is kept")
    args = parser.parse_args()
    horizons = [int(v) for v in args.horizons.split(",")]
    table_horizons = [int(v) for v in (args.table_horizons or args.horizons).split(",")]

    header = [f"tilt n = {n} (ms)" for n in horizons] + [f"tables n = {n} (ms)" for n in table_horizons]
    print("| kernel | " + " | ".join(header) + " |")
    print("|---|" + "---:|" * len(header))
    for name, (m, frac) in kernels().items():
        theta = frac * critical_tilt(m)[0]
        cells = [best_ms(lambda: tilt_recursion(m, theta, n), args.repeats) for n in horizons]
        cells += [best_ms(lambda: gbar_tables(m, n), args.repeats) for n in table_horizons]
        print(f"| {name} | " + " | ".join(f"{c:.3f}" for c in cells) + " |")


if __name__ == "__main__":
    main()
