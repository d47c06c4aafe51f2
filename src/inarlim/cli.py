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
import functools
import io
import json
import math
import os
import secrets
import sys
from dataclasses import asdict

from .asymptotics import critical_tilt, ldp_rate, quadratic_rate, theory_summary
from .errors import AssumptionViolation, ConfigError, EnumerationError, InsufficientTailMass
from .model import InarModel, model_from_spec, require_assumptions
from .montecarlo import (
    _oracle_report_and_law,
    validate_cesaro,
    validate_clt,
    validate_gamma,
    validate_lln,
    validate_mdp,
)
from .recursions import MdpSchedule, gbar_tables, mdp_mgf_curve, tilt_recursion
from .simulate import RandomStream, simulate, simulate_batch

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3


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
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_out_dir(path: str | None) -> None:
    """Refuse an ``--out`` in a missing or unwritable directory before any work, touching no file."""
    if path is None or path == "-":
        return
    folder = os.path.dirname(path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write {path}: {folder} is not a writable directory")


def _load_model(path: str) -> InarModel:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return model_from_spec(obj)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expects a finite number, got {text!r}")
    return value


def _whole(text: str) -> int:
    """A finite whole number, such as a horizon; "1e4" reads as 10000."""
    value = _finite_float(text)
    if value != int(value):
        raise argparse.ArgumentTypeError(f"expects a whole number, got {text!r}")
    return int(value)


def _at_least(low: int):
    """The type of an integer flag that must be at least ``low``."""

    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _check_name(text: str) -> str:
    name = text.strip()
    if name not in CHECKS:
        raise argparse.ArgumentTypeError(f"unknown check {name!r}; choose from {', '.join(CHECKS)}")
    return name


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
    payload = asdict(summary) | {
        "I": [{"x": x, "value": ldp_rate(args.model, x)} for x in x_grid],
        "J": [{"x": x, "value": quadratic_rate(x, summary.sigma2)} for x in x_grid],
    }
    _write_text(args.out, json.dumps(_jsonable(payload), indent=2) + "\n")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    require_assumptions(args.model, labels=("a", "c"))
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


def _check_gamma(args: argparse.Namespace, seed: int):
    if args.theta_grid:
        grid = args.theta_grid
    else:
        tc, _ = critical_tilt(args.model)
        grid = tuple(0.5 * tc * frac for frac in (0.2, 0.5, 1.0))
    return validate_gamma(args.model, grid, args.n or 1000, args.reps or 2000, seed)


def _check_oracle(args: argparse.Namespace, seed: int):
    report, law = _oracle_report_and_law(args.model, args.n or 4)
    if args.out is not None:
        rows = sorted(law.probs.items())
        _write_text(f"{args.out}.oracle_law.csv", _csv_text(["s", "prob"], rows))
    return report


# Check name -> (arguments, seed) -> report.  The deterministic checks ignore the seed.
CHECKS = {
    "lln": lambda args, seed: validate_lln(args.model, args.n or 5000, args.reps or 500, seed),
    "clt": lambda args, seed: validate_clt(args.model, args.n or 2000, args.reps or 2000, seed),
    "mdp": lambda args, seed: validate_mdp(
        args.model,
        x=args.x,
        beta=args.beta,
        n=args.n or 10_000,
        reps=args.reps,
        seed=seed,
    ),
    "gamma": _check_gamma,
    "cesaro": lambda args, seed: validate_cesaro(args.model, args.n or 100_000),
    "oracle": _check_oracle,
}


def cmd_validate(args: argparse.Namespace) -> int:
    require_assumptions(args.model, labels=("a", "c"))
    seed, drawn = _seed(args)
    if drawn:
        print(f"seed: {seed} (drawn from system entropy)", file=sys.stderr)

    reports = [CHECKS[name](args, seed) for name in args.checks]
    if args.out is not None or args.fmt == "json":
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
    if args.what == "tilt":
        rec = tilt_recursion(args.model, args.theta, args.n)
        rows = [(k + 1, repr(float(v))) for k, v in enumerate(rec.values)]
        text = _csv_text(["k", "f"], rows)
    elif args.what == "gbar":
        tables = gbar_tables(args.model, args.n)
        rows = [
            (k + 1, repr(float(g1)), repr(float(g2)))
            for k, (g1, g2) in enumerate(zip(tables.g1, tables.g2))
        ]
        text = _csv_text(["k", "g1", "g2"], rows)
    else:
        sched = MdpSchedule(beta=args.beta, horizons=args.horizons)
        points = mdp_mgf_curve(args.model, args.theta, sched)
        rows = [(p.n, repr(p.value), repr(p.limit)) for p in points]
        text = _csv_text(["n", "value", "limit"], rows)
    _write_text(args.out, text)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inarlim",
        description="Simulate subcritical infinite-order INAR count processes and "
        "validate their limit theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    size, seed = _at_least(1), _at_least(0)

    def add_common(p, run):
        p.set_defaults(run=run)
        p.add_argument("--model", required=True, help="path to a JSON model spec")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    def add_list(p, flag, item, default=None, **kwargs):
        """A comma-separated list flag; an empty list, like no flag, means ``default``."""

        def parse(text: str):
            return tuple(item(part) for part in text.split(",") if part.strip()) or default

        p.add_argument(flag, type=parse, default=default, **kwargs)

    p_theory = sub.add_parser("theory", help="asymptotic constants and rate-function grids")
    add_common(p_theory, cmd_theory)
    add_list(p_theory, "--x-grid", _finite_float, help="comma-separated grid for the rates")

    p_sim = sub.add_parser("simulate", help="one trajectory or a batch of replications")
    add_common(p_sim, cmd_simulate)
    p_sim.add_argument("--n", type=size, required=True)
    p_sim.add_argument("--reps", type=size)
    p_sim.add_argument("--seed", type=seed)

    p_val = sub.add_parser("validate", help="empirical and deterministic theorem checks")
    add_common(p_val, cmd_validate)
    p_val.add_argument("--n", type=size)
    p_val.add_argument("--reps", type=size)
    p_val.add_argument("--seed", type=seed)
    add_list(p_val, "--checks", _check_name, ("lln",), help=f"comma list from {','.join(CHECKS)}")
    p_val.add_argument("--beta", type=_finite_float, default=0.6)
    p_val.add_argument("--x", type=_finite_float, default=1.0)
    add_list(p_val, "--theta-grid", _finite_float, help="comma-separated tilt grid")
    p_val.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt")

    p_rec = sub.add_parser("recursion", help="dump tilt / expansion / scaled-MGF tables")
    add_common(p_rec, cmd_recursion)
    p_rec.add_argument("--n", type=size, default=1000)
    p_rec.add_argument("--what", choices=("tilt", "gbar", "mdp-curve"), default="tilt")
    p_rec.add_argument("--theta", type=_finite_float, default=0.1)
    p_rec.add_argument("--beta", type=_finite_float, default=0.75)
    add_list(p_rec, "--horizons", _whole, (10_000, 100_000), help="comma-separated horizon grid")

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; the one place a failure becomes a code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed a usage error (2) or the help (0)
        return exc.code
    try:
        # the commands read the namespace, with --model replaced by the model it names
        args.model = _load_model(args.model)
        _check_out_dir(args.out)
        return args.run(args)
    except (ConfigError, EnumerationError, InsufficientTailMass) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION


if __name__ == "__main__":
    sys.exit(main())
