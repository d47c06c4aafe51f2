"""The three benchmark workloads: seeded inputs, job lists and output checks.

A job is one call, or one short sequence of calls, into the package
followed by checks on what came back.  Every call goes through
``inarlim.<name>`` or ``inarlim.cli.main`` when the job runs, so a traced
pass sees the wrapped functions.

A workload has timed passes and long checks.  A pass is a list of short
jobs, run again and again for the length of a run.  The long checks are
the same theorems at horizons a pass cannot afford; they run once per
run, untimed, and count only towards correctness.

Why these workloads (the measured layer shares are in ``bench/NOTES.md``):

* ``mc_battery`` runs the seeded Monte Carlo checks, where the per-step
  loop in ``simulate`` does most of the work.  The kernels cover the three
  offspring paths in that loop: one Poisson draw per step (geometric
  Hawkes), per-lag ``sample_sum`` calls (Bernoulli and finite-support
  lags), and a dot product over the whole history (power law).
* ``exact_horizon`` runs the deterministic recursions and no simulation,
  so faster recursions show here and a faster simulator does not.
* ``theory_oracle`` runs many short queries on many distinct small
  models: theory constants, rate functions, the exact oracle and the CLI.
  Each model is queried about fifteen times, so the per-model cache in
  ``asymptotics`` hits within a model and never across models.

Every pass of every workload also runs one small ``inarlim validate`` job
through the CLI, so each layer has a span in each workload's trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import zeta

import inarlim as I
import inarlim.cli

CLT_REPS = 500  # the smallest batch validate_clt accepts
# Horizons of the once-per-run CLT checks.  validate_clt standardizes with
# the asymptotic mean, so the finite-n mean deficit raises its false-alarm
# rate above the nominal 0.1% (bench/NOTES.md).  The power-law kernel is
# left out: its deficit decays like log(n)/sqrt(n).
CLT_N = {"hawkes": 500, "ar1": 300, "finite_mix": 100}
# LLN jobs of a timed pass: kernel -> (n, reps).  Each takes 3-10 ms.
# Most steps go to the geometric Hawkes kernel, as in the test suite's
# acceptance battery; the explicit-lag kernels get short horizons because
# their per-step sampling costs 2-5 times as much.
LLN_RUNS = {
    "hawkes": (500, 4),
    "ar1": (200, 4),
    "two_lag": (100, 4),
    "finite_mix": (50, 4),
    "power_law": (500, 3),
}
MARTINGALE_N, MARTINGALE_PATHS = 200, 5
GAMMA_N, GAMMA_REPS = 200, 400
# The Monte Carlo streams are fixed, one per job counting up from the test
# suite's seed, so a statistical verdict is the same in every pass and run.
MC_SEED = 11
# Horizons of the timed exact jobs, and of the once-per-run long checks.
SHORT_N = 2_000
POWER_LAW_SHORT_N = 1_000
FINITE_MIX_SHORT_N = 30
MDP_SHORT_HORIZONS = (1_000, 5_000)
EXACT_N = 100_000
LONG_N = 1_000_000
LIMIT_TOL = 1e-3  # |log_mgf / n - limit_cgf| at n = EXACT_N
CESARO_REL_TOL = 0.01
# Both errors fall like 1/n; at the short horizons they must stay below
# RATE_CONST / n.  The fixtures give n * error of 0.08-13.
RATE_CONST = 50.0
# Each pass scales the exact jobs' tilts by 1 + TILT_JITTER * pass, so a
# tilted job never asks for the same result twice and a cache of whole
# results cannot pass for a faster recursion.
TILT_JITTER = 1e-9
ORACLE_TOL = 1e-10
ORACLE_WORK_BUDGET = 20_000  # keeps each oracle query far below the DP's own cap


@dataclass(frozen=True)
class Check:
    label: str
    ok: bool
    statistical: bool = False  # a seeded statistical test, which misses at its level


@dataclass
class Job:
    name: str
    run: Callable[[], list]


@dataclass
class Workload:
    """The job list of each pass, and the long checks run once per run.

    ``repeated`` is true when every pass does the same work, so each job's
    fastest time over the passes can be kept; a user then waits for the
    whole job list, as for a battery of checks.  Otherwise each job is a
    query a user waits for, on inputs drawn afresh for every pass.
    """

    name: str
    jobs: Callable[[int], list]  # pass index -> job list
    repeated: bool
    checks: list = field(default_factory=list)


def _close(a: float, b: float, rtol: float = 1e-12, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def run_cli(argv: list) -> tuple:
    """(exit code, stdout) of an in-process ``inarlim`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = inarlim.cli.main(argv)
    return code, out.getvalue()


def write_spec(directory: str, name: str, spec: dict) -> str:
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


# --- fixtures ---------------------------------------------------------------

ZETA2 = math.pi**2 / 6.0


def fixtures() -> dict:
    """The kernels of the test suite's acceptance battery, plus a power-law Hawkes."""
    return {
        "hawkes": I.InarModel(I.Poisson(1.0), I.PoissonOffspring(I.GeometricDecay(c=0.25, r=0.5))),
        "ar1": I.InarModel(I.Bernoulli(0.5), I.ExplicitOffspring((I.Bernoulli(0.4),))),
        "two_lag": I.InarModel(
            I.Bernoulli(0.5), I.ExplicitOffspring((I.Bernoulli(0.35), I.Bernoulli(0.25)))
        ),
        "finite_mix": I.InarModel(
            I.FiniteSupport((0.3, 0.5, 0.2)),
            I.ExplicitOffspring((I.FiniteSupport((0.7, 0.2, 0.1)),)),
        ),
        "power_law": I.InarModel(I.Poisson(1.0), I.PoissonOffspring(I.PowerLawDecay(c=0.3, a=2.0))),
    }


# Long-run means E[immigration] / (1 - mean_l1), written out from the parameters.
FIXTURE_MU = {
    "hawkes": 1.0 / (1.0 - 0.5),
    "ar1": 0.5 / (1.0 - 0.4),
    "two_lag": 0.5 / (1.0 - 0.6),
    "finite_mix": 0.9 / (1.0 - 0.4),
    "power_law": 1.0 / (1.0 - 0.3 * ZETA2),
}
HAWKES_THETA_C = -math.log(0.5) - 0.5
AR1_THETA_C = -math.log(0.4)  # unattained: the single Bernoulli lag has support max 1
# No closed form; these values (from critical_tilt) only bound the drawn tilts.
FINITE_MIX_THETA_C = 0.3158754472081198
POWER_LAW_THETA_C = 0.19975272190965865


# --- the CLI validate job that every pass runs ------------------------------

SMOKE_SPEC = {
    "immigration": {"type": "bernoulli", "p": 0.5},
    "offspring": {"type": "explicit", "laws": [{"type": "bernoulli", "p": 0.3}]},
}


def cli_validate_job(path: str) -> Job:
    seed = MC_SEED

    def run():
        lln_code, lln_csv = run_cli(
            ["validate", "--model", path, "--checks", "lln", "--n", "50", "--reps", "5",
             "--seed", str(seed), "--format", "csv"]
        )
        oracle_code, oracle_csv = run_cli(
            ["validate", "--model", path, "--checks", "oracle", "--n", "3", "--format", "csv"]
        )
        lln_rows = lln_csv.strip().splitlines()
        oracle_rows = oracle_csv.strip().splitlines()
        return [
            Check("cli lln exit code", lln_code == 0, statistical=True),
            Check("cli lln summary row", lln_rows[1:] == [f"lln,50,5,{seed},{int(lln_code == 0)}"]),
            Check("cli oracle exit code", oracle_code == 0),
            Check("cli oracle summary row", oracle_rows[1:] == ["oracle,3,0,0,1"]),
        ]

    return Job("cli_validate", run)


# --- mc_battery --------------------------------------------------------------


def _lln_job(name: str, m, n: int, reps: int, seed: int) -> Job:
    def run():
        rep = I.validate_lln(m, n, reps, seed)
        s = rep.statistics
        verdict = abs(s["mean_sn_over_n"] - rep.targets["mu"]) <= s["band"]
        return [
            Check("lln passes", rep.passed, statistical=True),
            Check("lln verdict recomputes", verdict == rep.passed),
            Check("lln target is the closed-form mean", _close(rep.targets["mu"], FIXTURE_MU[name], 1e-12)),
        ]

    return Job(f"lln_{name}", run)


def _clt_job(name: str, m, n: int, seed: int) -> Job:
    def run():
        rep = I.validate_clt(m, n, CLT_REPS, seed)
        s = rep.statistics
        return [
            Check("clt passes", rep.passed, statistical=True),
            Check("clt verdict recomputes", (s["ks_statistic"] < s["threshold"]) == rep.passed),
            Check(
                "clt threshold",
                _close(s["threshold"], I.montecarlo.KS_CRITICAL_SCALE / math.sqrt(CLT_REPS)),
            ),
        ]

    return Job(f"clt_{name}", run)


def _gamma_job(m, grid: tuple, seed: int) -> Job:
    def run():
        rep = I.validate_gamma(m, grid, GAMMA_N, GAMMA_REPS, seed)
        points = rep.statistics["points"]
        det_tol = rep.targets["deterministic_tolerance"]
        verdict = all(
            abs(p["empirical"] - p["target"]) <= p["tolerance"] and p["exact_vs_limit_gap"] < det_tol
            for p in points
        )
        return [
            Check("gamma passes", rep.passed, statistical=True),
            Check("gamma verdict recomputes", verdict == rep.passed),
            Check("gamma exact cross-check", all(p["exact_vs_limit_gap"] < LIMIT_TOL for p in points)),
        ]

    return Job("gamma_hawkes", run)


def _martingale_job(m, n: int, reps: int, seed: int) -> Job:
    # AR(1) closed form: n Var[eps] + var_l1 * n * mu
    closed_bound = n * 0.25 + 0.24 * n * FIXTURE_MU["ar1"]

    def run():
        terminal = np.empty(reps)
        squares_ok = True
        bound = math.nan
        for r in range(reps):
            traj = I.simulate(m, n, I.RandomStream(seed=seed, stream=r))
            diag = I.martingale_diagnostic(traj, m)
            terminal[r] = diag.m_path[-1]
            bound = diag.second_moment_bound
            squares_ok = squares_ok and diag.realized_m_squared == float(diag.m_path[-1] ** 2)
        band = 4.0 * math.sqrt(bound / reps)
        return [
            Check("martingale bound is the closed form", _close(bound, closed_bound, 1e-12)),
            Check("martingale realized square", squares_ok),
            Check("martingale mean within 4 sigma", abs(float(terminal.mean())) <= band, statistical=True),
        ]

    return Job("martingale_ar1", run)


def mc_battery(seed: int, cli_dir: str) -> Workload:
    f = fixtures()
    rng = np.random.default_rng([seed, 1])
    seeds = iter(range(MC_SEED, MC_SEED + 100))
    jobs = [_lln_job(name, f[name], n, reps, next(seeds)) for name, (n, reps) in LLN_RUNS.items()]
    jobs.append(_martingale_job(f["ar1"], MARTINGALE_N, MARTINGALE_PATHS, next(seeds)))
    jobs.append(cli_validate_job(write_spec(cli_dir, "smoke", SMOKE_SPEC)))
    jobs = [jobs[k] for k in rng.permutation(len(jobs))]
    checks = [_clt_job(name, f[name], n, next(seeds)) for name, n in CLT_N.items()]
    grid = tuple(float(t) for t in np.sort(rng.uniform(0.02, 0.05, 2)))
    checks.append(_gamma_job(f["hawkes"], grid, next(seeds)))
    return Workload("mc_battery", lambda p: jobs, True, checks)


# --- exact_horizon -------------------------------------------------------------


def _rate_tol(n: int, tol_at_exact_n: float) -> float:
    """The long-horizon tolerance from EXACT_N on, else RATE_CONST / n."""
    return tol_at_exact_n if n >= EXACT_N else RATE_CONST / n


def _limit_job(name: str, m, theta: float, n: int) -> Job:
    tol = _rate_tol(n, LIMIT_TOL)

    def run():
        lm = I.log_mgf_exact(m, theta, n)
        gap = abs(lm / n - I.limit_cgf(m, theta))
        return [Check(f"log_mgf/n within {tol:.3g} of limit_cgf", math.isfinite(lm) and gap < tol)]

    return Job(f"limit_{name}_{n}", run)


def _cesaro_job(name: str, m, n: int) -> Job:
    tol = _rate_tol(n, CESARO_REL_TOL)

    def run():
        chk = I.cesaro_check(m, n)
        worst = max(abs(e - lim) / lim for e, lim in chk.pairs())
        return [Check(f"cesaro relative error below {tol:.3g}", worst < tol)]

    return Job(f"cesaro_{name}_{n}", run)


def _hawkes_closed_forms_job(m) -> Job:
    def run():
        tc, attained = I.critical_tilt(m)
        return [
            Check("hawkes mu = 2", _close(I.lln_mean(m), 2.0, 1e-12)),
            Check("hawkes sigma2 = 8", _close(I.clt_variance(m), 8.0, 1e-12)),
            Check("hawkes theta_c = -log 0.5 - 0.5", attained and _close(tc, HAWKES_THETA_C, 0.0, 1e-9)),
        ]

    return Job("hawkes_closed_forms", run)


def _mdp_curve_job(m, theta: float, horizons: tuple) -> Job:
    def run():
        points = I.mdp_mgf_curve(m, theta, I.MdpSchedule(beta=0.75, horizons=horizons))
        gaps = [abs(p.value - p.limit) for p in points]
        return [
            Check("mdp curve limit = 4 theta^2", all(_close(p.limit, 4.0 * theta**2, 1e-12) for p in points)),
            Check("mdp curve gap shrinks", all(map(math.isfinite, gaps)) and gaps[0] > gaps[1]),
        ]

    return Job(f"mdp_curve_hawkes_{horizons[-1]}", run)


def _tilt_job(name: str, m, theta: float, n: int) -> Job:
    tol = _rate_tol(n, LIMIT_TOL)

    def run():
        rec = I.tilt_recursion(m, theta, n)
        gap = abs(rec.log_mgf_total / n - I.limit_cgf(m, theta))
        return [
            Check("tilt recursion ran to the horizon", len(rec.values) == n),
            Check(f"log_mgf/n within {tol:.3g} of limit_cgf", gap < tol),
        ]

    return Job(f"tilt_{name}_{n}", run)


def exact_horizon(seed: int, cli_dir: str) -> Workload:
    f = fixtures()
    rng = np.random.default_rng([seed, 2])
    fracs = {name: [float(x) for x in rng.uniform(0.2, 0.9, 3)] for name in ("hawkes", "ar1")}
    mdp_theta = float(rng.uniform(0.5, 1.5))
    # At n = 1000 the MDP tilt theta * n**-0.25 must stay below theta_c = 0.193.
    mdp_short_theta = float(rng.uniform(0.3, 0.9))
    power_frac = float(rng.uniform(0.2, 0.7))
    mix_frac = float(rng.uniform(0.2, 0.8))
    theta_c = {"hawkes": HAWKES_THETA_C, "ar1": AR1_THETA_C}
    cli_path = write_spec(cli_dir, "smoke", SMOKE_SPEC)

    def jobs(p: int) -> list:
        scale = 1.0 + TILT_JITTER * p
        out = [
            _limit_job(name, f[name], scale * frac * theta_c[name], SHORT_N)
            for name in ("hawkes", "ar1")
            for frac in fracs[name]
        ]
        out += [_cesaro_job(name, f[name], SHORT_N) for name in ("hawkes", "ar1")]
        out.append(_hawkes_closed_forms_job(f["hawkes"]))
        out.append(_mdp_curve_job(f["hawkes"], scale * mdp_short_theta, MDP_SHORT_HORIZONS))
        out.append(
            _limit_job("power_law", f["power_law"], scale * power_frac * POWER_LAW_THETA_C, POWER_LAW_SHORT_N)
        )
        out.append(_cesaro_job("power_law", f["power_law"], POWER_LAW_SHORT_N))
        out.append(
            _tilt_job("finite_mix", f["finite_mix"], scale * mix_frac * FINITE_MIX_THETA_C, FINITE_MIX_SHORT_N)
        )
        out.append(cli_validate_job(cli_path))
        order = np.random.default_rng([seed, 2, 1]).permutation(len(out))
        return [out[k] for k in order]

    checks = [_limit_job(name, f[name], fracs[name][0] * theta_c[name], EXACT_N) for name in ("hawkes", "ar1")]
    checks += [_cesaro_job("hawkes", f["hawkes"], EXACT_N)]
    checks.append(_limit_job("hawkes", f["hawkes"], fracs["hawkes"][1] * HAWKES_THETA_C, LONG_N))
    checks.append(_mdp_curve_job(f["hawkes"], mdp_theta, (10_000, EXACT_N)))
    return Workload("exact_horizon", jobs, True, checks)


# --- theory_oracle -------------------------------------------------------------

# Models per pass, by offspring family.  The family mix is fixed so every
# pass and every seed does about the same work; the parameters are drawn
# afresh for every pass.
FAMILY_COUNTS = {"bernoulli": 7, "binomial": 5, "finite": 1, "geometric": 5, "power_law": 5}
CLI_EVERY = 3  # the CLI theory query runs on every third model of each family
# Query grids, as fractions of the critical tilt and multiples of the mean.
# Fixed grids keep the cost of a pass from varying with more than the model.
THETA_GRID = (-0.8, -0.3, 0.3, 0.8)
X_GRID = (0.4, 0.8, 1.3, 1.8)
MAX_MEAN_L1 = 0.9


@dataclass
class DrawnModel:
    """A generated model with its moments written out from the parameters."""

    name: str
    spec: dict
    imm_mean: float
    imm_var: float
    mean_l1: float
    var_l1: float
    imm_log_mgf: Callable[[float], float]
    offspring_cgf: Callable[[float], float]
    oracle_n: int  # 0 when the model is unbounded
    cli: bool


def _bernoulli_cgf(p: float, m: int = 1):
    return lambda t: m * math.log1p(p * math.expm1(t))


def _finite_cgf(probs):
    return lambda t: math.log(math.fsum(q * math.exp(k * t) for k, q in enumerate(probs)))


def _draw_bounded_immigration(rng):
    """(spec, mean, variance, log-MGF, support max) of a bounded immigration law."""
    kind = int(rng.integers(3))
    if kind == 0:
        p = float(rng.uniform(0.2, 0.8))
        return {"type": "bernoulli", "p": p}, p, p * (1 - p), _bernoulli_cgf(p), 1
    if kind == 1:
        p = float(rng.uniform(0.2, 0.6))
        return {"type": "binomial", "m": 2, "p": p}, 2 * p, 2 * p * (1 - p), _bernoulli_cgf(p, 2), 2
    probs = [float(q) for q in rng.dirichlet([2.0, 2.0, 2.0])]
    probs[0] = 1.0 - probs[1] - probs[2]
    mean = probs[1] + 2 * probs[2]
    var = probs[1] + 4 * probs[2] - mean * mean
    return {"type": "finite_support", "probs": probs}, mean, var, _finite_cgf(probs), 2


def oracle_horizon(imm_max: int, lag_max: list, n_max: int = 5) -> int:
    """Largest n <= n_max whose oracle work (DP states times branches) stays in budget.

    The same count the oracle makes before it enumerates, taken with the
    full lag window, which bounds the oracle's own estimate from above.
    """
    xmax, work, sum_cap, best = [], 0, 0, 0
    for t in range(n_max):
        lags = lag_max[: min(t, len(lag_max))]
        v = imm_max + sum(s * xmax[t - k] for k, s in enumerate(lags, start=1))
        states = sum_cap + 1
        for k in range(1, len(lags) + 1):
            states *= xmax[t - k] + 1
        work += states * (v + 1)
        if work > ORACLE_WORK_BUDGET:
            break
        xmax.append(v)
        sum_cap += v
        best = t + 1
    return best


def draw_model(rng, family: str, index: int) -> DrawnModel:
    """One subcritical model of the family, with mean_l1 drawn in [0.2, 0.85]."""
    target = float(rng.uniform(0.2, 0.85))
    name = f"{family}{index}"
    if family in ("geometric", "power_law"):
        lam = float(rng.uniform(0.5, 2.0))
        if family == "geometric":
            r = float(rng.uniform(0.2, 0.8))
            decay = {"type": "geometric", "c": target * (1.0 - r), "r": r}
        else:
            a = float(rng.uniform(1.6, 3.0))
            decay = {"type": "power_law", "c": target / float(zeta(a, 1)), "a": a}
        spec = {"immigration": {"type": "poisson", "lambda": lam},
                "offspring": {"type": "poisson_family", "decay": decay}}
        imm_cgf = lambda t, lam=lam: lam * math.expm1(t)
        off_cgf = lambda t, total=target: total * math.expm1(t)
        return DrawnModel(name, spec, lam, lam, target, target, imm_cgf, off_cgf, 0,
                          index % CLI_EVERY == 0)

    imm_spec, imm_mean, imm_var, imm_cgf, imm_max = _draw_bounded_immigration(rng)
    if family == "finite":
        p2 = float(rng.uniform(0.0, target / 2.0))
        p1 = target - 2.0 * p2
        probs = [1.0 - p1 - p2, p1, p2]
        laws = [{"type": "finite_support", "probs": probs}]
        var_l1 = p1 + 4.0 * p2 - target * target
        cgfs = [_finite_cgf(probs)]
        lag_max = [2]
    else:
        n_lags = int(rng.integers(1, 4)) if family == "bernoulli" else int(rng.integers(1, 3))
        means = [target * w for w in rng.dirichlet([2.0] * n_lags)]
        laws, cgfs, lag_max, var_l1 = [], [], [], 0.0
        for mean in means:
            if family == "bernoulli":
                p, m = float(mean), 1
                laws.append({"type": "bernoulli", "p": p})
            else:
                m = int(rng.integers(2, 4))
                p = float(mean) / m
                laws.append({"type": "binomial", "m": m, "p": p})
            cgfs.append(_bernoulli_cgf(p, m))
            lag_max.append(m)
            var_l1 += m * p * (1.0 - p)
    spec = {"immigration": imm_spec, "offspring": {"type": "explicit", "laws": laws}}
    off_cgf = lambda t, cgfs=tuple(cgfs): math.fsum(c(t) for c in cgfs)
    return DrawnModel(name, spec, imm_mean, imm_var, target, var_l1, imm_cgf, off_cgf,
                      oracle_horizon(imm_max, lag_max), index % CLI_EVERY == 0)


def _theory_jobs(d: DrawnModel, m, path: str | None) -> list:
    """About fifteen queries on one model; later queries check against earlier results."""
    mu = d.imm_mean / (1.0 - d.mean_l1)
    sigma2 = (d.imm_mean * d.var_l1 + d.imm_var * (1.0 - d.mean_l1)) / (1.0 - d.mean_l1) ** 3
    xs = [mu * f for f in X_GRID]
    seen = {}

    def summary():
        s = I.theory_summary(m)
        seen["theta_c"] = s.theta_c
        seen["summary"] = s
        return [
            Check("mu from the parameters", _close(s.mu, mu, 1e-9)),
            Check("sigma2 from the parameters", _close(s.sigma2, sigma2, 1e-9)),
            Check("theta_c positive", s.theta_c > 0.0),
        ]

    def fixed_point(i):
        def run():
            theta = THETA_GRID[i] * seen["theta_c"]
            f = I.tilt_fixed_point(m, theta)
            seen.setdefault("fixed", []).append((theta, f))
            return [Check("fixed point solves f - cgf(f) = theta",
                          _close(f - d.offspring_cgf(f), theta, 1e-9, 1e-11))]
        return run

    def limit(i):
        def run():
            theta, f = seen["fixed"][i]
            lam = I.limit_cgf(m, theta)
            seen.setdefault("limit", {})[theta] = lam
            return [
                Check("limit_cgf is the immigration log-MGF at the fixed point",
                      _close(lam, d.imm_log_mgf(f), 1e-9, 1e-12)),
                Check("limit_cgf above its tangent at 0", lam >= theta * mu - 1e-12),
            ]
        return run

    def ldp(i):
        def run():
            x = xs[i]
            rate = I.ldp_rate(m, x)
            seen.setdefault("ldp", {})[x] = rate
            fenchel = all(rate >= theta * x - lam - 1e-9 for theta, lam in seen["limit"].items())
            return [Check("ldp rate finite and nonnegative", math.isfinite(rate) and rate >= 0.0),
                    Check("ldp rate obeys the Fenchel inequality", fenchel)]
        return run

    def oracle():
        gaps = [abs(I.oracle_log_mgf(m, theta, d.oracle_n) - I.log_mgf_exact(m, theta, d.oracle_n))
                for theta in (-0.5, 0.3)]
        return [Check(f"oracle within {ORACLE_TOL} of the tilt recursion", max(gaps) < ORACLE_TOL)]

    def cli_theory():
        grid = xs[:3]
        code, out = run_cli(["theory", "--model", path, "--x-grid", ",".join(repr(x) for x in grid)])
        payload = json.loads(out)
        s = seen["summary"]
        same = (
            payload["mu"] == s.mu
            and payload["sigma2"] == s.sigma2
            and payload["theta_c"] == s.theta_c
            and payload["theta_c_attained"] == s.theta_c_attained
            and [p["value"] for p in payload["I"]] == [seen["ldp"][x] for x in grid]
            and all(_close(p["value"], x * x / (2.0 * s.sigma2)) for p, x in zip(payload["J"], grid))
        )
        return [Check("cli exit code", code == 0), Check("cli JSON matches the library", same)]

    jobs = [Job("theory_summary", summary)]
    jobs += [Job("tilt_fixed_point", fixed_point(i)) for i in range(len(THETA_GRID))]
    jobs += [Job("limit_cgf", limit(i)) for i in range(len(THETA_GRID))]
    jobs += [Job("ldp_rate", ldp(i)) for i in range(len(X_GRID))]
    if d.oracle_n:
        jobs.append(Job("oracle", oracle))
    if path is not None:
        jobs.append(Job("cli_theory", cli_theory))
    return jobs


def theory_oracle(seed: int, cli_dir: str) -> Workload:
    smoke = write_spec(cli_dir, "smoke", SMOKE_SPEC)

    def jobs(p: int) -> list:
        rng = np.random.default_rng([seed, 3, p])
        drawn = [draw_model(rng, fam, i) for fam, count in FAMILY_COUNTS.items() for i in range(count)]
        out = []
        for k in rng.permutation(len(drawn)):
            d = drawn[k]
            m = I.model_from_spec(d.spec)
            report = I.require_assumptions(m, labels=("a", "c"))
            if not report.mean_l1 <= MAX_MEAN_L1 or not _close(report.mean_l1, d.mean_l1, 1e-9):
                raise RuntimeError(f"generated model {d.name} has mean_l1 {report.mean_l1}")
            if (d.oracle_n == 0) != (d.spec["offspring"]["type"] == "poisson_family"):
                raise RuntimeError(f"generated model {d.name} has no oracle horizon")
            path = write_spec(cli_dir, f"p{p}_{d.name}", d.spec) if d.cli else None
            out += _theory_jobs(d, m, path)
        out.append(cli_validate_job(smoke))
        return out

    return Workload("theory_oracle", jobs, False)


BUILDERS = {"mc_battery": mc_battery, "exact_horizon": exact_horizon, "theory_oracle": theory_oracle}
