#!/usr/bin/env python3
"""Time per call and F/F' evaluations per call of the four theory queries that solve a root.

``critical_tilt``, ``tilt_fixed_point``, ``limit_cgf`` and ``ldp_rate``
each run one bracket walk and one root solve on the tilt gap
F(f) = f - sum_k log E[exp(f xi_k)] or its slope F'.  The rows are the
five fixtures of the benchmark, then ``--models`` seeded random models of
each offspring family, drawn by the benchmark's theory workload
(``bench/workloads.py``, mean_l1 in [0.2, 0.85]).  Each model is queried
on that workload's grids: tilts of -0.8, -0.3, 0.3 and 0.8 times the
critical tilt, and means of 0.4, 0.8, 1.3 and 1.8 times the long-run
mean.  The critical tilt is cached per model, so its timing clears that
cache first; the other three queries run with it warm.

The time is the fastest of ``--repeats`` passes over a row's queries,
divided by the number of queries, in microseconds.  The evaluations are
calls of ``tilt_gap`` and its slope, the walk's included, per query.
Run it against another checkout with PYTHONPATH pointing at its ``src``
to compare two versions on the same machine.
"""

import argparse
import contextlib
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from inarlim import (
    Bernoulli,
    ExplicitOffspring,
    FiniteSupport,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    asymptotics,
    critical_tilt,
    ldp_rate,
    limit_cgf,
    lln_mean,
    model_from_spec,
    tilt_fixed_point,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  (the benchmark's model draws and query grids)

QUERIES = ("critical_tilt", "tilt_fixed_point", "limit_cgf", "ldp_rate")


def fixtures() -> dict:
    return {
        "hawkes": InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(c=0.25, r=0.5))),
        "ar1": InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.4),))),
        "two_lag": InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.35), Bernoulli(0.25)))),
        "finite_mix": InarModel(
            FiniteSupport((0.3, 0.5, 0.2)), ExplicitOffspring((FiniteSupport((0.7, 0.2, 0.1)),))
        ),
        "power_law": InarModel(Poisson(1.0), PoissonOffspring(PowerLawDecay(c=0.3, a=2.0))),
    }


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


def measure(models: list, repeats: int) -> tuple:
    """(microseconds per call, evaluations per call) of each query over the models."""
    calls = {q: [] for q in QUERIES}
    for m in models:
        for q, fns in query_calls(m).items():
            calls[q] += fns
    per_call_us, evaluations = {}, {}
    for q, fns in calls.items():
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for fn in fns:
                fn()
            best = min(best, time.perf_counter() - start)
        per_call_us[q] = 1e6 * best / len(fns)
        with counted_evaluations() as count:
            for fn in fns:
                fn()
        evaluations[q] = count[0] / len(fns)
    return per_call_us, evaluations


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", type=int, default=20, help="random models per family")
    parser.add_argument("--seed", type=int, default=1, help="seed of the random models")
    parser.add_argument("--repeats", type=int, default=5, help="passes per cell; the fastest is kept")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    rows = {name: [m] for name, m in fixtures().items()}
    for family in workloads.FAMILY_COUNTS:
        drawn = [workloads.draw_model(rng, family, i) for i in range(args.models)]
        rows[f"{family} x{args.models}"] = [model_from_spec(d.spec) for d in drawn]

    header = [f"{q} (us)" for q in QUERIES] + [f"{q} evals" for q in QUERIES]
    print("| models | " + " | ".join(header) + " |")
    print("|---|" + "---:|" * len(header))
    for name, models in rows.items():
        per_call_us, evaluations = measure(models, args.repeats)
        cells = [f"{per_call_us[q]:.1f}" for q in QUERIES] + [f"{evaluations[q]:.1f}" for q in QUERIES]
        print(f"| {name} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
