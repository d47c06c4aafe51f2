#!/usr/bin/env python3
"""Alternating parent/change pairs of ``bench/run.py``, summarized into one JSON file.

Run from the root of a checkout, naming the two commits to compare:

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload mc_battery --seed 5 --out BENCH_k.json

Each run gets a clean copy of its commit (``git archive`` into a fresh
temporary directory, so no bytecode or build output carries over) and
runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
there, with ``PYTHONDONTWRITEBYTECODE=1`` and T the ``run_seconds`` of
BENCHMARK.json.  Each workload gets ``PAIRS`` pairs: pair i runs the
parent first when i is even and the change first when i is odd, so slow
drift of the host hits both sides alike.  The output file holds the two
shas, the versions and ``nproc`` from the bench's provenance, each run's
``loadavg_at_start`` and end-to-end metrics, and per workload and metric
the median and IQR of each side and the number of pairs the change won.  A
run that starts with a one-minute load above nproc / 2 is flagged
``busy``: its timings are suspect.  A finished run leaves its own worker
in that average, about 1, so each run first waits up to ``SETTLE_S``
seconds for the load to fall to nproc / 2; a flag then means that
something else kept the host busy.  The better direction of each metric
comes from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETTLE_S = 60.0
PAIRS = 10


def parse_run(stdout: str) -> dict:
    """The provenance, set-up samples and end-to-end metric values of one ``bench/run.py`` output."""
    lines = stdout.strip().splitlines()
    run = {"provenance": {}, "setup_s_samples": []}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            run["provenance"] = json.loads(line[len("provenance "):])
        elif line.startswith("setup_s samples "):
            run["setup_s_samples"] = json.loads(line[len("setup_s samples "):])
    result = json.loads(lines[-1])
    run["correct"] = result["correct"]
    run["failed"] = result["failed"]
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return run


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, better: dict) -> dict:
    """Per metric: each side's median and IQR, and the pairs where the change is strictly better.

    ``pairs`` holds one ``{"parent": metrics, "change": metrics}`` per pair,
    each metrics a dict of name to value; ``better`` maps a metric to
    "lower" or "higher".  Metrics missing on either side of a pair are
    left out of that pair.
    """
    out = {}
    for name, direction in better.items():
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        sign = -1.0 if direction == "lower" else 1.0
        row = {"better": direction, "pairs": len(both)}
        for k, side in enumerate(("parent", "change")):
            values = [pair[k] for pair in both]
            q1, q3 = _quartiles(values)
            row[side] = {"median": statistics.median(values), "iqr": q3 - q1}
        row["change_wins"] = sum(sign * (c - p) > 0 for p, c in both)
        base = row["parent"]["median"]
        row["median_change_rel"] = (row["change"]["median"] - base) / base if base else None
        out[name] = row
    return out


def is_busy(provenance: dict) -> bool:
    """Whether the run started with a one-minute load above half the cores it could use."""
    load, nproc = provenance.get("loadavg_at_start"), provenance.get("nproc")
    return bool(load and nproc) and load[0] > nproc / 2


def _sha(rev: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _settle() -> None:
    """Wait, up to SETTLE_S seconds, until the one-minute load is at most half the usable cores."""
    limit, deadline = len(os.sched_getaffinity(0)) / 2, time.monotonic() + SETTLE_S
    while os.getloadavg()[0] > limit and time.monotonic() < deadline:
        time.sleep(1.0)


def _run_bench(sha: str, workload: str, seed: int, seconds: float) -> dict:
    _settle()
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True, capture_output=True).stdout
        subprocess.run(["tar", "x", "-C", tmp], input=archive, check=True)
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py failed on {sha[:12]} {workload}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--change", default="HEAD", help="commit under test")
    parser.add_argument("--workload", action="append", help="may repeat; default every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = args.workload or [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]
    shas = {"parent": _sha(args.parent), "change": _sha(args.change)}
    report = {**{f"{side}_sha": sha for side, sha in shas.items()}, "seed": args.seed,
              "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs, pairs = [], []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                run = _run_bench(shas[side], workload, args.seed, seconds)
                prov = run["provenance"]
                report.setdefault("versions", prov.get("versions"))
                report.setdefault("nproc", prov.get("nproc"))
                runs.append({"pair": i, "side": side, "loadavg_at_start": prov.get("loadavg_at_start"),
                             "busy": is_busy(prov), "correct": run["correct"], "failed": run["failed"],
                             "setup_s_samples": run["setup_s_samples"], "metrics": run["metrics"]})
                pair[side] = run["metrics"]
                print(f"{workload} pair {i} {side}: " + json.dumps(run["metrics"]), file=sys.stderr)
            pairs.append(pair)
        report["workloads"][workload] = {
            "runs": runs,
            "pairs": pairs,
            "busy_runs": sum(r["busy"] for r in runs),
            "summary": summarize(pairs, better),
        }
        with open(args.out, "w") as fh:  # written after each workload, so a cut run keeps what it has
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
