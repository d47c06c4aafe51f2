#!/usr/bin/env python3
"""End-to-end tour on the discrete Hawkes example model.

Prints the asymptotic constants, simulates a seeded batch, and compares
the empirical mean, variance and scaled log-MGF with their limits.
"""

import argparse
import math

import numpy as np

from inarlim import (
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    RandomStream,
    ldp_rate,
    limit_cgf,
    log_mgf_exact,
    simulate_batch,
    theory_summary,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    model = InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(c=0.25, r=0.5)))
    summary = theory_summary(model)
    print(f"mu        = {summary.mu}")
    print(f"sigma^2   = {summary.sigma2}")
    print(f"theta_c   = {summary.theta_c} (attained: {summary.theta_c_attained})")

    sums = np.array(
        [s.s_n for s in simulate_batch(model, args.n, args.reps, RandomStream(seed=args.seed))],
        dtype=float,
    )
    print(f"\nbatch: n={args.n}, reps={args.reps}, seed={args.seed}")
    print(f"mean S_n/n        = {sums.mean() / args.n:.5f}  (limit {summary.mu})")
    print(f"var  S_n/sqrt(n)  = {sums.var() / args.n:.4f}  (limit {summary.sigma2})")

    theta = 0.25 * summary.theta_c
    exact = log_mgf_exact(model, theta, args.n) / args.n
    print(f"\nscaled log-MGF at theta={theta:.4f}")
    print(f"exact (n={args.n})   = {exact:.6f}")
    print(f"limit               = {limit_cgf(model, theta):.6f}")
    print(f"rate at mean + 10%  = {ldp_rate(model, 1.1 * summary.mu):.6f}")


if __name__ == "__main__":
    main()
