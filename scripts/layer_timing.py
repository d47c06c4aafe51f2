#!/usr/bin/env python3
"""Best-of-k timings of one layer of the package, one table row per kernel or model set.

The subcommand names the layer: ``simulate`` (one path), ``recursion``
(``tilt_recursion`` and ``gbar_tables``) or ``theory`` (the four queries
that solve a root); ``layer_timing.py <layer> --help`` describes each.
The first five rows of every table are the five fixtures of the benchmark
(``bench/workloads.fixtures``): the geometric Hawkes kernel, the AR(1),
the two-lag list, the finite-support mix and the power law.  Each time is
the fastest of ``--repeats`` runs of a cell.
Run it against another checkout with PYTHONPATH pointing at its ``src``
to compare two versions on the same machine.
"""

import argparse
import contextlib
import math
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from inarlim import (
    Bernoulli,
    Binomial,
    Constant,
    ExplicitOffspring,
    Geometric,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    RandomStream,
    asymptotics,
    critical_tilt,
    gbar_tables,
    ldp_rate,
    limit_cgf,
    lln_mean,
    model_from_spec,
    montecarlo,
    simulate,
    tilt_fixed_point,
    tilt_recursion,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (the benchmark's fixtures, model draws and query grids)

QUERIES = ("critical_tilt", "tilt_fixed_point", "limit_cgf", "ldp_rate")


def best_s(call, repeats: int) -> float:
    """The fastest of ``repeats`` calls ``call(r)``, r = 0, 1, ..., in seconds."""
    best = float("inf")
    for r in range(repeats):
        start = time.perf_counter()
        call(r)
        best = min(best, time.perf_counter() - start)
    return best


def simulate_rows(args):
    """Best-of-k wall time of one ``simulate`` path, per kernel and horizon.

    After the five fixtures come four lag lists whose laws read the tape
    by a table or a closed form rather than as Bernoulli or
    finite-support laws: a Binomial(2, 0.2) lag with Bernoulli(0.5)
    immigration, pure Poisson(1) immigration without lags, Poisson(0.3)
    and Poisson(0.2) lags with Poisson(1) immigration, and a
    Geometric(0.6) lag with Bernoulli(0.5) immigration; the critical
    staircase, a Constant(1) lag with Constant(1) immigration, whose
    counts grow linearly and whose Constant laws read no uniform; two
    near-critical geometric Hawkes kernels (mean_l1 = 0.9 and 0.95, ratio
    0.5, Poisson(1) immigration); and a power law of mean_l1 = 0.9 (a = 2)
    with Poisson(10) immigration, whose first generations are drawn by
    child time.  Each time is the fastest of ``--repeats`` paths, on
    streams 0, 1, ... of seed 1, in milliseconds.  With ``--reps R`` above
    1, a cell times instead one batch of R replications as the Monte Carlo
    checks draw it (``montecarlo._batch_sums``, streams 0 .. R - 1 of seed
    1), fastest of ``--repeats`` batches, in microseconds per replication.
    """
    horizons = [int(v) for v in args.horizons.split(",")]
    kernels = {
        **workloads.fixtures(),
        "binomial_lag": InarModel(Bernoulli(0.5), ExplicitOffspring((Binomial(2, 0.2),))),
        "poisson_imm": InarModel(Poisson(1.0), ExplicitOffspring(())),
        "two_poisson_lags": InarModel(Poisson(1.0), ExplicitOffspring((Poisson(0.3), Poisson(0.2)))),
        "geometric_lag": InarModel(Bernoulli(0.5), ExplicitOffspring((Geometric(0.6),))),
        "staircase": InarModel(Constant(1), ExplicitOffspring((Constant(1),))),
        **{
            f"hawkes_{mass}": InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(c=mass * 0.5, r=0.5)))
            for mass in (0.9, 0.95)
        },
        # c * zeta(2) = 0.9
        "power_law_0.9_imm10": InarModel(
            Poisson(10.0), PoissonOffspring(PowerLawDecay(c=0.9 * 6.0 / math.pi**2, a=2.0))
        ),
    }

    def path_ms(m, n):
        seconds = best_s(lambda r: simulate(m, n, RandomStream(seed=1, stream=r)), args.repeats)
        return f"{1e3 * seconds:.3f}"

    def batch_us_per_rep(m, n):
        seconds = best_s(lambda _: montecarlo._batch_sums(m, n, args.reps, 1), args.repeats)
        return f"{1e6 * seconds / args.reps:.1f}"

    cell, unit = (path_ms, "ms") if args.reps == 1 else (batch_us_per_rep, "us/rep")
    rows = ((name, [cell(m, n) for n in horizons]) for name, m in kernels.items())
    return "kernel", [f"n = {n} ({unit})" for n in horizons], rows


def recursion_rows(args):
    """Best-of-k wall time of ``tilt_recursion`` and ``gbar_tables``, per kernel and horizon.

    Each tilt recursion runs at half the kernel's critical tilt, where
    it settles (its tilts stop changing) within a few hundred steps.  One
    more row, after the five fixtures, runs the AR(1) at 0.99999 of its
    critical tilt, where the tilts never settle within 1e5 steps, so each
    loop pays its settle check at every step; its tables are the AR(1)'s.
    Each time is the fastest of ``--repeats`` calls, in milliseconds.
    ``--table-horizons`` times the tables at other horizons than the
    tilts (by default the same), so the tables can be timed at n = 1e6
    without the power law's O(n**2) tilts.
    """
    horizons = [int(v) for v in args.horizons.split(",")]
    table_horizons = [int(v) for v in (args.table_horizons or args.horizons).split(",")]
    fixtures = workloads.fixtures()
    kernels = {name: (m, 0.5) for name, m in fixtures.items()} | {"ar1_0.99999": (fixtures["ar1"], 0.99999)}

    def cells(m, frac):
        theta = frac * critical_tilt(m)[0]
        times = [best_s(lambda _: tilt_recursion(m, theta, n), args.repeats) for n in horizons]
        times += [best_s(lambda _: gbar_tables(m, n), args.repeats) for n in table_horizons]
        return [f"{1e3 * t:.3f}" for t in times]

    header = [f"tilt n = {n} (ms)" for n in horizons] + [f"tables n = {n} (ms)" for n in table_horizons]
    return "kernel", header, ((name, cells(m, frac)) for name, (m, frac) in kernels.items())


def theory_rows(args):
    """Time per call and F/F' evaluations per call of the four theory queries that solve a root.

    ``critical_tilt``, ``tilt_fixed_point``, ``limit_cgf`` and ``ldp_rate``
    each run one bracket walk and one root solve on the tilt gap
    F(f) = f - sum_k log E[exp(f xi_k)] or its slope F'.  After the five
    fixtures come ``--models`` seeded random models of each offspring
    family, drawn by the benchmark's theory workload (mean_l1 in
    [0.2, 0.85]).  Each model is queried on that workload's grids: tilts
    of -0.8, -0.3, 0.3 and 0.8 times the critical tilt, and means of 0.4,
    0.8, 1.3 and 1.8 times the long-run mean.  The critical tilt is
    cached per model, so its timing clears that cache first; the other
    three queries run with it warm.

    The time is the fastest of ``--repeats`` passes over a row's queries,
    divided by the number of queries, in microseconds.  The evaluations
    are calls of ``tilt_gap`` and its slope, the walk's included, per
    query.
    """
    rng = np.random.default_rng(args.seed)
    rows = {name: [m] for name, m in workloads.fixtures().items()}
    for family in workloads.FAMILY_COUNTS:
        drawn = [workloads.draw_model(rng, family, i) for i in range(args.models)]
        rows[f"{family} x{args.models}"] = [model_from_spec(d.spec) for d in drawn]

    def cells(models):
        calls = {q: [] for q in QUERIES}
        for m in models:
            for q, fns in query_calls(m).items():
                calls[q] += fns
        per_call_us, evaluations = [], []
        for fns in calls.values():
            per_call_us.append(1e6 * best_s(lambda _: [fn() for fn in fns], args.repeats) / len(fns))
            with counted_evaluations() as count:
                for fn in fns:
                    fn()
            evaluations.append(count[0] / len(fns))
        return [f"{v:.1f}" for v in per_call_us + evaluations]

    header = [f"{q} (us)" for q in QUERIES] + [f"{q} evals" for q in QUERIES]
    return "models", header, ((name, cells(models)) for name, models in rows.items())


def query_calls(m) -> dict:
    """Each query's calls on one model, as zero-argument functions."""
    tc, _ = critical_tilt(m)
    mu = lln_mean(m)

    def cold_critical_tilt():
        asymptotics._critical_tilt.cache_clear()
        critical_tilt(m)

    return {
        "critical_tilt": [cold_critical_tilt],
        "tilt_fixed_point": [lambda t=f * tc: tilt_fixed_point(m, t) for f in workloads.THETA_GRID],
        "limit_cgf": [lambda t=f * tc: limit_cgf(m, t) for f in workloads.THETA_GRID],
        "ldp_rate": [lambda x=f * mu: ldp_rate(m, x) for f in workloads.X_GRID],
    }


@contextlib.contextmanager
def counted_evaluations():
    """Count calls of the tilt gap and its slope, as the solves in ``asymptotics`` make them."""
    count = [0]

    def counted(fn):
        def wrapper(*args):
            count[0] += 1
            return fn(*args)
        return wrapper

    with mock.patch.object(asymptotics, "tilt_gap", counted(asymptotics.tilt_gap)), \
            mock.patch.object(asymptotics, "_tilt_gap_prime", counted(asymptotics._tilt_gap_prime)):
        yield count


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    layers = parser.add_subparsers(dest="layer", required=True)
    p_sim = layers.add_parser("simulate", description=simulate_rows.__doc__)
    p_sim.set_defaults(rows=simulate_rows)
    p_sim.add_argument("--horizons", default="500,10000", help="comma-separated path lengths")
    p_sim.add_argument("--repeats", type=int, default=15, help="paths per cell; the fastest is kept")
    p_sim.add_argument("--reps", type=int, default=1, help="replications per timed batch (1: one path)")
    p_rec = layers.add_parser("recursion", description=recursion_rows.__doc__)
    p_rec.set_defaults(rows=recursion_rows)
    p_rec.add_argument("--horizons", default="2000,20000", help="comma-separated horizons")
    p_rec.add_argument("--table-horizons", help="comma-separated horizons of the tables (default: --horizons)")
    p_rec.add_argument("--repeats", type=int, default=5, help="calls per cell; the fastest is kept")
    p_theory = layers.add_parser("theory", description=theory_rows.__doc__)
    p_theory.set_defaults(rows=theory_rows)
    p_theory.add_argument("--models", type=int, default=20, help="random models per family")
    p_theory.add_argument("--seed", type=int, default=1, help="seed of the random models")
    p_theory.add_argument("--repeats", type=int, default=5, help="passes per cell; the fastest is kept")
    args = parser.parse_args()

    first, header, rows = args.rows(args)
    print(f"| {first} | " + " | ".join(header) + " |")
    print("|---|" + "---:|" * len(header))
    for name, cells in rows:
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
