"""One benchmark interpreter: set up, run timed passes, print one JSON line.

``bench/run.py`` starts this script in a fresh interpreter.  Set-up is the
package import, input generation and a warm-up on a model no job uses.
With ``--setup-only`` the script stops there.  Otherwise it runs the
workload's long checks once, untimed, and then passes of its job list
until the next pass would end more than ``--seconds`` after the checks
began.  With ``--trace 1`` untraced and traced passes alternate, and the
traced ones record spans at every layer boundary.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import json
import platform
import resource
import statistics
import sys
import time
import traceback

TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND_TAIL = 10  # jobs that must lie beyond the reported tail percentile

WARM_SPEC = {
    "immigration": {"type": "poisson", "lambda": 0.7},
    "offspring": {"type": "explicit", "laws": [{"type": "binomial", "m": 2, "p": 0.2}]},
}
WARM_BOUNDED_SPEC = {
    "immigration": {"type": "bernoulli", "p": 0.6},
    "offspring": {"type": "explicit", "laws": [{"type": "bernoulli", "p": 0.2}]},
}


def warm_up(I, W, cli_dir: str) -> None:
    """Touch every layer once on models that no measured job uses."""
    m = I.model_from_spec(WARM_SPEC)
    bounded = I.model_from_spec(WARM_BOUNDED_SPEC)
    I.validate_lln(m, 50, 5, 0)
    I.validate_clt(m, 5, 500, 0)
    I.validate_gamma(m, (0.01,), 20, 50, 0, bootstrap=5)
    I.martingale_diagnostic(I.simulate(m, 50, I.RandomStream(0)), m)
    I.cesaro_check(m, 200)
    I.mdp_mgf_curve(m, 0.5, I.MdpSchedule(beta=0.75, horizons=(100,)))
    I.ldp_rate(m, 1.0)
    I.limit_cgf(m, 0.1)
    I.oracle_log_mgf(bounded, 0.1, 3)
    W.run_cli(["theory", "--model", W.write_spec(cli_dir, "warm", WARM_SPEC), "--x-grid", "1.0"])


def run_pass(jobs, rec, JOB) -> dict:
    """Run one pass of jobs; with a recorder, each job is the root span of its calls."""
    latencies, failed, incorrect, messages = [], 0, 0, []
    start = time.perf_counter()
    for job in jobs:
        t0 = time.perf_counter()
        span = rec.open(JOB) if rec is not None else None
        raised = None
        try:
            checks = job.run()
        except Exception:  # a job that raises counts as failed; the run goes on
            checks, raised = [], traceback.format_exc(limit=4)
        finally:
            if rec is not None:
                rec.close(span)
        latencies.append(time.perf_counter() - t0)
        bad = [c for c in checks if not c.ok]
        if raised or bad:
            failed += 1
            messages.append(f"{job.name}: " + (raised or "; ".join(c.label for c in bad)))
        if raised or any(not c.statistical for c in bad):
            incorrect += 1
    return {
        "wall_s": time.perf_counter() - start,
        "latencies": latencies,
        "attempted": len(jobs),
        "failed": failed,
        "incorrect": incorrect,
        "messages": messages,
    }


def run_passes(wl, deadline: float, trace: bool) -> list:
    """Passes until the next one would end after ``deadline``; tracing alternates."""
    from spans import JOB, Recorder, Tracer

    tracer = Tracer("inarlim")
    passes = []
    min_passes = 2 if trace else 1
    while True:
        traced = trace and len(passes) % 2 == 1
        jobs = wl.jobs(len(passes))  # drawn before the clock starts
        rec = Recorder() if traced else None
        if traced:
            tracer.install(rec)
        try:
            result = run_pass(jobs, rec, JOB)
        finally:
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        if traced:
            result["trace"] = rec.summary()
        passes.append(result)
        next_traced = trace and len(passes) % 2 == 1
        same_kind = [p["wall_s"] for p in passes if p["traced"] == next_traced] or [result["wall_s"]]
        if len(passes) >= min_passes and time.perf_counter() + same_kind[-1] > deadline:
            return passes


def tail_percentile(count: int) -> float:
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= MIN_BEYOND_TAIL:
            return q
    return TAIL_LADDER[-1]


def percentile(values, q: float) -> float:
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(passes: list, repeated: bool, pass_frac: float) -> tuple:
    """The end-to-end metrics from the untraced passes.

    When every pass does the same work, ``wall_s`` is the sum over jobs of
    each job's fastest time, and the one request, the whole job list, takes
    ``wall_s``.  Otherwise ``wall_s`` is the median pass and each job is a
    request.
    """
    plain = [p for p in passes if not p["traced"]]
    if repeated:
        best = [min(times) for times in zip(*(p["latencies"] for p in plain))]
        wall = sum(best)
        latencies = [wall]
    else:
        wall = statistics.median(p["wall_s"] for p in plain)
        latencies = [x for p in plain for x in p["latencies"]]
    q = tail_percentile(len(latencies))
    metrics = {
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "pass_frac": (pass_frac, "ratio"),
        "query_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "query_tail_ms": (1e3 * percentile(latencies, q), "ms"),
    }
    detail = {
        "tail_percentile": q,
        "request": "pass" if repeated else "job",
        "requests_timed": len(plain) if repeated else len(latencies),
        "passes": len(plain),
        "median_pass_s": statistics.median(p["wall_s"] for p in plain),
    }
    if repeated:
        detail["job_best_ms"] = [round(1e3 * b, 3) for b in best]
    return metrics, detail


def per_layer(passes: list) -> tuple:
    from spans import LAYERS

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    first = traced[0]["trace"]
    med = lambda key, layer: statistics.median(p["trace"]["layers"][layer][key] for p in traced)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = (med("self_s", layer), "s")
        metrics[f"{layer}.errors"] = (first["layers"][layer]["errors"], "count")
    for layer in ("simulate", "recursions"):
        steps = first[f"{layer}.steps"]
        metrics[f"{layer}.steps"] = (steps, "count")
        metrics[f"{layer}.us_per_step"] = (1e6 * med("incl_s", layer) / steps if steps else 0.0, "us")
    metrics["montecarlo.reps"] = (first["montecarlo.reps"], "count")
    calls = first["validate_calls"]
    metrics["model.validate_useful_ratio"] = (first["distinct_validated"] / calls if calls else 0.0, "ratio")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    shares = {
        layer: statistics.median(p["trace"]["layers"][layer]["self_s"] / p["wall_s"] for p in traced)
        for layer in LAYERS
    }
    shares["harness"] = statistics.median(p["trace"]["harness_self_s"] / p["wall_s"] for p in traced)
    return metrics, {"self_share_of_traced_wall": shares, "traced_passes": len(traced)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout root holding src/inarlim")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True, help="directory for the CLI's model files")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import numpy
    import scipy

    import inarlim as I
    import workloads as W

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(I.__file__).startswith(src + os.sep):
        print(f"inarlim imported from {I.__file__}, not from {src}", file=sys.stderr)
        return 2
    os.makedirs(args.workdir, exist_ok=True)
    wl = W.BUILDERS[args.workload](args.seed, args.workdir)
    warm_up(I, W, args.workdir)
    setup_s = time.perf_counter() - t0

    out = {
        "setup_s": setup_s,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if not args.setup_only:
        deadline = time.perf_counter() + args.seconds
        checks = run_pass(wl.checks, None, None)
        passes = run_passes(wl, deadline, bool(args.trace))
        counted = passes + [checks]
        out["attempted"] = sum(p["attempted"] for p in counted)
        out["failed"] = sum(p["failed"] for p in counted)
        out["incorrect"] = sum(p["incorrect"] for p in counted)
        if args.trace:
            out["metrics"], out["detail"] = per_layer(passes)
        else:
            pass_frac = 1.0 - out["failed"] / out["attempted"]
            out["metrics"], out["detail"] = end_to_end(passes, wl.repeated, pass_frac)
        out["detail"]["checks_s"] = checks["wall_s"]
        out["messages"] = sorted({m for p in counted for m in p["messages"]})
        out["pass_walls"] = [(p["traced"], round(p["wall_s"], 4)) for p in passes]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
