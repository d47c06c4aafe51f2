"""Benchmark of the inarlim package on three seeded workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_battery --seed 1 --seconds 30 --trace 0

Workloads: ``mc_battery``, ``exact_horizon`` and ``theory_oracle`` (see
``bench/workloads.py`` and ``bench/NOTES.md``).  Every measurement runs in
a fresh single-threaded interpreter (``bench/worker.py``) that imports the
package from ``src/``.  Set-up is measured in that interpreter and in
``SETUP_PROBES`` more, and reported as the median.  The measuring
interpreter runs the workload's long checks once and then timed passes
until ``--seconds`` have gone by.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from traced passes, which alternate with untraced passes.
The lines before it give provenance, the timed passes and any failed
checks.  The exit code is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("mc_battery", "exact_horizon", "theory_oracle")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150.0  # a whole run must end within 180 s
PROBE_TIMEOUT_S = 60.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def source_id(root: str) -> dict:
    """The git commit when the checkout is a repository, else a digest of src/."""
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args: list, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "inarlim", "__init__.py")):
        print(f"error: no src/inarlim package under {root}; run from the checkout root", file=sys.stderr)
        return 2

    provenance = {
        **source_id(root),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    env = worker_env(root)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    common = ["--root", root, "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        setups = [
            run_worker(common + ["--setup-only"], env, PROBE_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, WORKER_TIMEOUT_S
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            os.rmdir(os.path.dirname(workdir))

    setups.append(result["setup_s"])
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setups), "s")
    provenance["versions"] = result["versions"]
    print("provenance " + json.dumps(provenance))
    print("setup_s samples " + json.dumps(setups))
    print("passes (traced, wall_s) " + json.dumps(result["pass_walls"]))
    print("detail " + json.dumps(result["detail"]))
    for message in result["messages"]:
        print("failed check " + message.replace("\n", " | "))
    print(
        json.dumps(
            {
                "correct": result["incorrect"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
