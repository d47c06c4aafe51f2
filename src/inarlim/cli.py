"""Command-line front end.

Subcommands: ``theory`` (asymptotic constants and rate grids as JSON),
``simulate`` (trajectory or batch CSV), ``validate`` (seeded empirical and
deterministic checks with JSON reports and a CSV summary), ``recursion``
(tilt / expansion-table / scaled-MGF-curve dumps as CSV).

Exit codes: 0 success, 1 at least one validation failed, 2 usage or
configuration error, 3 model assumption violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import secrets
import sys
import time
from dataclasses import asdict

from .asymptotics import critical_tilt, ldp_rate, mdp_rate, theory_summary
from .errors import AssumptionViolation, ConfigError, EnumerationError
from .model import InarModel, model_from_spec, require_assumptions
from .montecarlo import ValidationReport, validate_clt, validate_gamma, validate_lln, validate_mdp
from .oracle import enumerate_sum_distribution, oracle_log_mgf
from .recursions import MdpSchedule, cesaro_check, gbar_tables, log_mgf_exact, mdp_mgf_curve, tilt_recursion
from .simulate import RandomStream, simulate, simulate_batch

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3

ORACLE_THETA_GRID = (-1.0, -0.3, 0.0, 0.4, math.log(2.0))
ORACLE_TOL = 1e-10
CESARO_REL_TOL = 0.01


def _seed(args: argparse.Namespace) -> tuple:
    """(seed, drawn) where drawn marks a seed taken from system entropy."""
    if args.seed is not None:
        return args.seed, False
    return secrets.randbits(63), True


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_model(path: str) -> InarModel:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return model_from_spec(obj)


def _parse_floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _parse_ints(text: str, flag: str) -> tuple:
    vals = _parse_floats(text, flag)
    out = []
    for v in vals:
        if v != int(v):
            raise ConfigError(f"{flag} expects integers, got {v}")
        out.append(int(v))
    return tuple(out)


# Comma-list flags: destination -> parser.  main parses them before any model computation.
_LIST_FLAGS = {
    "x_grid": _parse_floats,
    "theta_grid": _parse_floats,
    "horizons": _parse_ints,
    "checks": lambda text, flag: tuple(c.strip() for c in text.split(",") if c.strip()),
}


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_theory(args: argparse.Namespace) -> int:
    summary = theory_summary(args.model)
    if args.x_grid:
        x_grid = args.x_grid
    else:
        mu = summary.mu
        base = mu if mu > 0 else 1.0
        x_grid = tuple(base * frac for frac in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0))
    payload = {
        "mu": summary.mu,
        "sigma2": summary.sigma2,
        "theta_c": summary.theta_c,
        "theta_c_attained": summary.theta_c_attained,
        "offspring_mean_l1": summary.offspring_mean_l1,
        "offspring_var_l1": summary.offspring_var_l1,
        "I": [{"x": x, "value": ldp_rate(args.model, x)} for x in x_grid],
        "J": [{"x": x, "value": mdp_rate(args.model, x)} for x in x_grid],
    }
    _write_text(args.out, json.dumps(_jsonable(payload), indent=2) + "\n")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    require_assumptions(args.model, labels=("a", "c"))
    if args.n is None:
        raise ConfigError("simulate requires --n")
    seed, drawn = _seed(args)
    if args.reps is None:
        traj = simulate(args.model, args.n, RandomStream(seed=seed))
        rows = [(t + 1, int(x)) for t, x in enumerate(traj.counts)]
        text = _csv_text(["t", "x"], rows)
    else:
        summaries = simulate_batch(args.model, args.n, args.reps, RandomStream(seed=seed))
        rows = [(s.rep, s.s_n, s.x_n, repr(s.m_n)) for s in summaries]
        text = _csv_text(["rep", "s_n", "x_n", "m_n"], rows)
    _write_text(args.out, text)
    origin = "drawn from system entropy" if drawn else "from --seed"
    print(f"seed: {seed} ({origin})", file=sys.stderr)
    return EXIT_OK


def _check_gamma(args: argparse.Namespace, seed: int) -> ValidationReport:
    if args.theta_grid:
        grid = args.theta_grid
    else:
        tc, _ = critical_tilt(args.model)
        grid = tuple(0.5 * tc * frac for frac in (0.2, 0.5, 1.0))
    return validate_gamma(args.model, grid, args.n or 1000, args.reps or 2000, seed)


def _check_cesaro(args: argparse.Namespace, seed: int) -> ValidationReport:
    """Deterministic: Cesaro means of the expansion tables against their limits."""
    start = time.perf_counter()
    n = args.n or 100_000
    chk = cesaro_check(args.model, n)
    rel = [abs(e - l) / abs(l) if l != 0.0 else abs(e) for e, l in chk.pairs()]
    return ValidationReport(
        theorem="cesaro",
        model_fingerprint=args.model.fingerprint(),
        n=n,
        reps=0,
        seed=0,
        statistics={
            "g1_mean": chk.g1_mean,
            "g1_sq_mean": chk.g1_sq_mean,
            "g2_mean": chk.g2_mean,
            "relative_errors": rel,
        },
        targets={
            "g1_limit": chk.g1_limit,
            "g1_sq_limit": chk.g1_sq_limit,
            "g2_limit": chk.g2_limit,
            "relative_tolerance": CESARO_REL_TOL,
        },
        passed=bool(all(r < CESARO_REL_TOL for r in rel)),
        runtime_seconds=time.perf_counter() - start,
    )


def _check_oracle(args: argparse.Namespace, seed: int) -> ValidationReport:
    """Deterministic: the tilt recursion against the oracle DP for every n up to --n."""
    start = time.perf_counter()
    n_max = args.n or 4
    points = []
    worst = 0.0
    for n in range(1, n_max + 1):
        for theta in ORACLE_THETA_GRID:
            a = oracle_log_mgf(args.model, theta, n)
            b = log_mgf_exact(args.model, theta, n)
            gap = abs(a - b)
            worst = max(worst, gap)
            points.append({"n": n, "theta": theta, "gap": gap})
    if args.out is not None:
        law = enumerate_sum_distribution(args.model, n_max)
        rows = sorted(law.probs.items())
        _write_text(f"{args.out}.oracle_law.csv", _csv_text(["s", "prob"], rows))
    return ValidationReport(
        theorem="oracle",
        model_fingerprint=args.model.fingerprint(),
        n=n_max,
        reps=0,
        seed=0,
        statistics={"worst_gap": worst, "points": points},
        targets={"tolerance": ORACLE_TOL},
        passed=bool(worst < ORACLE_TOL),
        runtime_seconds=time.perf_counter() - start,
    )


# Check name -> (arguments, seed) -> report.  The deterministic checks ignore the seed.
CHECKS = {
    "lln": lambda args, seed: validate_lln(args.model, args.n or 5000, args.reps or 500, seed),
    "clt": lambda args, seed: validate_clt(args.model, args.n or 2000, args.reps or 2000, seed),
    "mdp": lambda args, seed: validate_mdp(
        args.model,
        x=args.x if args.x is not None else 1.0,
        beta=args.beta if args.beta is not None else 0.6,
        n=args.n or 10_000,
        reps=args.reps,
        seed=seed,
    ),
    "gamma": _check_gamma,
    "cesaro": _check_cesaro,
    "oracle": _check_oracle,
}


def cmd_validate(args: argparse.Namespace) -> int:
    require_assumptions(args.model, labels=("a", "c"))
    checks = args.checks or ("lln",)
    for name in checks:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}; choose from {', '.join(CHECKS)}")
    seed, drawn = _seed(args)
    if drawn:
        print(f"seed: {seed} (drawn from system entropy)", file=sys.stderr)

    reports = [CHECKS[name](args, seed) for name in checks]
    payloads = [_jsonable(asdict(rep)) for rep in reports]
    if args.out is not None:
        for rep, payload in zip(reports, payloads):
            _write_text(f"{args.out}.{rep.theorem}.json", json.dumps(payload, indent=2) + "\n")
    summary_rows = [(rep.theorem, rep.n, rep.reps, rep.seed, int(rep.passed)) for rep in reports]
    summary_csv = _csv_text(["theorem", "n", "reps", "seed", "passed"], summary_rows)
    if args.out is not None:
        _write_text(f"{args.out}.summary.csv", summary_csv)
    if args.fmt == "csv":
        sys.stdout.write(summary_csv)
    else:
        sys.stdout.write(json.dumps(payloads, indent=2) + "\n")
    for rep in reports:
        print(f"{rep.theorem}: {'PASS' if rep.passed else 'FAIL'}", file=sys.stderr)
    return EXIT_OK if all(rep.passed for rep in reports) else EXIT_VALIDATION_FAILED


def cmd_recursion(args: argparse.Namespace) -> int:
    require_assumptions(args.model, labels=("a", "c"))
    theta = args.theta if args.theta is not None else 0.1
    if args.what == "tilt":
        rec = tilt_recursion(args.model, theta, args.n or 1000)
        rows = [(k + 1, repr(float(v))) for k, v in enumerate(rec.values)]
        text = _csv_text(["k", "f"], rows)
    elif args.what == "gbar":
        tables = gbar_tables(args.model, args.n or 1000)
        rows = [
            (k + 1, repr(float(g1)), repr(float(g2)))
            for k, (g1, g2) in enumerate(zip(tables.g1, tables.g2))
        ]
        text = _csv_text(["k", "g1", "g2"], rows)
    else:
        sched = MdpSchedule(
            beta=args.beta if args.beta is not None else 0.75,
            horizons=args.horizons or (10_000, 100_000),
        )
        points = mdp_mgf_curve(args.model, theta, sched)
        rows = [(p.n, repr(p.value), repr(p.limit)) for p in points]
        text = _csv_text(["n", "value", "limit"], rows)
    _write_text(args.out, text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inarlim",
        description="Simulate subcritical infinite-order INAR count processes and "
        "validate their limit theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--model", required=True, help="path to a JSON model spec")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_theory = sub.add_parser("theory", help="asymptotic constants and rate-function grids")
    add_common(p_theory, cmd_theory)
    p_theory.add_argument("--x-grid", default=None, help="comma-separated grid for the rates")

    p_sim = sub.add_parser("simulate", help="one trajectory or a batch of replications")
    add_common(p_sim, cmd_simulate)

    p_val = sub.add_parser("validate", help="empirical and deterministic theorem checks")
    add_common(p_val, cmd_validate)
    p_val.add_argument("--checks", default="lln", help=f"comma list from {','.join(CHECKS)}")
    p_val.add_argument("--beta", type=float, default=None)
    p_val.add_argument("--x", type=float, default=None)
    p_val.add_argument("--theta-grid", default=None, help="comma-separated tilt grid")
    p_val.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")

    p_rec = sub.add_parser("recursion", help="dump tilt / expansion / scaled-MGF tables")
    add_common(p_rec, cmd_recursion)
    p_rec.add_argument("--what", choices=("tilt", "gbar", "mdp-curve"), default="tilt")
    p_rec.add_argument("--theta", type=float, default=None)
    p_rec.add_argument("--beta", type=float, default=None)
    p_rec.add_argument("--horizons", default=None, help="comma-separated horizon grid")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # the commands read the namespace, with --model replaced by the model it names
        args.model = _load_model(args.model)
        for dest, parse in _LIST_FLAGS.items():
            text = getattr(args, dest, None)
            if text is not None:
                setattr(args, dest, parse(text, "--" + dest.replace("_", "-")))
        return args.run(args)
    except (ConfigError, EnumerationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    sys.exit(main())
