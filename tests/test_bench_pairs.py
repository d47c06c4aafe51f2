"""The pair summary of ``scripts/bench_pairs.py``, on canned ``bench/run.py`` outputs (no bench run)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "pass_frac": "higher", "setup_s": "lower"}


def _output(wall: float, load: float, setup=(0.4, 0.5, 0.45, 0.41)) -> str:
    """A ``bench/run.py`` standard output, as it prints it."""
    provenance = {"git_sha": None, "src_sha256": "abc", "nproc": 2, "loadavg_at_start": [load, 0.5, 0.4],
                  "workload": "mc_battery", "seed": 1, "seconds": 30.0, "trace": 0,
                  "versions": {"python": "3.11.7", "numpy": "2.4.6"}}
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"}, "pass_frac": {"value": 1.0, "unit": "ratio"},
                          "setup_s": {"value": sorted(setup)[len(setup) // 2], "unit": "s"}}}
    return "\n".join([
        "provenance " + json.dumps(provenance),
        "setup_s samples " + json.dumps(list(setup)),
        "passes (traced, wall_s) [[false, 0.006]]",
        "detail {}",
        json.dumps(result),
    ]) + "\n"


def test_parse_run_reads_provenance_setup_samples_and_metrics():
    run = bench_pairs.parse_run(_output(0.006, 1.5))
    assert run["provenance"]["loadavg_at_start"] == [1.5, 0.5, 0.4]
    assert run["setup_s_samples"] == [0.4, 0.5, 0.45, 0.41]
    assert run["metrics"] == {"wall_s": 0.006, "pass_frac": 1.0, "setup_s": 0.45}
    assert run["correct"] and run["failed"] == 0
    assert bench_pairs.is_busy(run["provenance"])  # 1.5 > 2 / 2
    assert not bench_pairs.is_busy(bench_pairs.parse_run(_output(0.006, 0.9))["provenance"])


def test_summary_gives_medians_iqrs_and_wins():
    parent = [6.0, 6.4, 6.2, 6.8, 6.1]
    change = [4.5, 4.9, 6.3, 4.4, 4.6]  # loses pair 2 only
    pairs = [
        {"parent": bench_pairs.parse_run(_output(p, 0.1))["metrics"],
         "change": bench_pairs.parse_run(_output(c, 0.1))["metrics"]}
        for p, c in zip(parent, change)
    ]
    summary = bench_pairs.summarize(pairs, BETTER)
    wall = summary["wall_s"]
    assert wall["pairs"] == 5 and wall["better"] == "lower"
    assert wall["parent"]["median"] == 6.2 and wall["change"]["median"] == 4.6
    # inclusive quartiles of 6.0, 6.1, 6.2, 6.4, 6.8: 6.1 and 6.4
    assert wall["parent"]["iqr"] == pytest.approx(0.3)
    assert wall["change"]["iqr"] == pytest.approx(4.9 - 4.5)
    assert wall["change_wins"] == 4
    assert wall["median_change_rel"] == pytest.approx(4.6 / 6.2 - 1.0)
    # higher is better, and a tie is no win
    assert summary["pass_frac"]["change_wins"] == 0
    assert summary["pass_frac"]["parent"] == {"median": 1.0, "iqr": 0.0}


def test_summary_skips_metrics_a_pair_lacks():
    pairs = [{"parent": {"wall_s": 2.0}, "change": {"wall_s": 1.0, "setup_s": 0.3}}]
    summary = bench_pairs.summarize(pairs, BETTER)
    assert set(summary) == {"wall_s"}
    assert summary["wall_s"]["parent"]["iqr"] == 0.0 and summary["wall_s"]["change_wins"] == 1
