#!/usr/bin/env python3
"""SHA-256 fingerprints of the package's outputs on a fixed set of models.

Compares two versions of the package output by output:

    PYTHONPATH=<tree A>/src python scripts/output_fingerprint.py > a.txt
    PYTHONPATH=<tree B>/src python scripts/output_fingerprint.py > b.txt
    python scripts/output_fingerprint.py --diff a.txt b.txt

The models are the five fixtures of the benchmark, then the 23 models of
each of the ``theory_oracle`` workload's passes 0-11 at seed 5, drawn by
``bench/workloads.draw_model`` from the seed list [5, 3, pass].  For each
model it writes one line per record, the record's name and the SHA-256 of
its value:

* ``theory``: the constants of ``theory_summary``;
* ``tilt_fixed_point`` and ``limit_cgf`` at the workload's tilts (fractions
  of the critical tilt), ``ldp_rate`` at its means (multiples of mu);
* the offspring ``cgf`` and ``cgf_prime``, and ``tilt_gap``, at six tilts;
* ``tilt_recursion`` (the tilts' bytes, the total, ``diverged_at`` and
  ``settled_at``) at tilts -0.0, 0.0, 0.5 and 0.99 times the critical
  tilt, for n = 1, 3 and 300;
* ``gbar_tables`` at n = 500;
* one ``simulate`` path and its martingale path at n = 200, seed 1;
* the standard output of ``inarlim theory`` on its default grid.

A float is hashed by its repr, which tells -0.0 from 0.0; an array by its
dtype and bytes; a raised error by its type and message.  ``--diff A B``
prints the names of the records that differ or appear in one file only,
and exits with status 1 when there are any; it imports no package, so it
needs no PYTHONPATH.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

# the benchmark's fixtures, model draws and query grids, in ``workloads``
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

SEED, PASSES = 5, 12
CGF_POINTS = (-2.0, -0.5, -0.0, 0.0, 0.5, 2.0)
TILT_FRACTIONS = {"-0.0": -0.0, "0.0": 0.0, "0.5tc": 0.5, "0.99tc": 0.99}
TILT_HORIZONS = (1, 3, 300)
TABLE_N = 500
PATH_N = 200


def models() -> dict:
    """Name -> (model, spec) for every model fingerprinted."""
    import inarlim
    import workloads

    out = {name: (m, m.to_spec()) for name, m in workloads.fixtures().items()}
    for p in range(PASSES):
        rng = np.random.default_rng([SEED, 3, p])
        for fam, count in workloads.FAMILY_COUNTS.items():
            for i in range(count):
                d = workloads.draw_model(rng, fam, i)
                out[f"p{p}_{d.name}"] = (inarlim.model_from_spec(d.spec), d.spec)
    return out


def _digest(value) -> str:
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, tuple):
            h.update(b"(%d" % len(v))
            for part in v:
                feed(part)
            h.update(b")")
        elif isinstance(v, np.ndarray):
            h.update(v.dtype.str.encode() + b":%d:" % v.size + v.tobytes())
        else:
            data = v if isinstance(v, bytes) else repr(v).encode()
            h.update(b"%d:" % len(data) + data)

    feed(value)
    return h.hexdigest()


def _theory_stdout(spec: dict, workdir: str) -> str:
    from inarlim import cli

    path = Path(workdir) / "model.json"
    path.write_text(json.dumps(spec))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["theory", "--model", str(path)])
    return f"exit {code}\n{out.getvalue()}"


def records(m, spec: dict, workdir: str):
    """(name, zero-argument function) for each record of one model."""
    import inarlim
    import workloads

    tc, _ = inarlim.critical_tilt(m)
    mu = inarlim.lln_mean(m)
    yield "theory", lambda: tuple(
        getattr(inarlim.theory_summary(m), key)
        for key in ("mu", "sigma2", "theta_c", "theta_c_attained",
                    "offspring_mean_l1", "offspring_var_l1")
    )
    for f in workloads.THETA_GRID:
        yield f"tilt_fixed_point/{f}tc", lambda t=f * tc: inarlim.tilt_fixed_point(m, t)
        yield f"limit_cgf/{f}tc", lambda t=f * tc: inarlim.limit_cgf(m, t)
    for f in workloads.X_GRID:
        yield f"ldp_rate/{f}mu", lambda x=f * mu: inarlim.ldp_rate(m, x)
    for x in CGF_POINTS:
        yield f"cgf/{x}", lambda x=x: m.offspring.cgf(x)
        yield f"cgf_prime/{x}", lambda x=x: m.offspring.cgf_prime(x)
        yield f"tilt_gap/{x}", lambda x=x: inarlim.tilt_gap(m, x)
    for label, frac in TILT_FRACTIONS.items():
        theta = frac * tc if frac else frac
        for n in TILT_HORIZONS:
            def tilt(theta=theta, n=n):
                rec = inarlim.tilt_recursion(m, theta, n)
                return rec.values, rec.log_mgf_total, rec.diverged_at, rec.settled_at
            yield f"tilt_recursion/theta={label}/n={n}", tilt

    def tables():
        t = inarlim.gbar_tables(m, TABLE_N)
        return t.g1, t.g2, t.sum_g1, t.sum_g1_sq, t.sum_g2, t.g1_limit, t.g1_sq_limit, t.g2_limit

    yield f"gbar_tables/n={TABLE_N}", tables
    traj = inarlim.simulate(m, PATH_N, inarlim.RandomStream(seed=1))
    yield f"simulate/n={PATH_N}", lambda: traj.counts

    def martingale():
        diag = inarlim.martingale_diagnostic(traj, m)
        return diag.m_path, diag.second_moment_bound, diag.realized_m_squared

    yield f"martingale/n={PATH_N}", martingale
    yield "cli_theory", lambda: _theory_stdout(spec, workdir)


def fingerprint(out) -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for model_name, (m, spec) in models().items():
            for name, compute in records(m, spec, workdir):
                try:
                    value = compute()
                except Exception as exc:  # a raised error is an output too
                    value = f"{type(exc).__name__}: {exc}"
                out.write(f"{model_name}/{name} {_digest(value)}\n")


def _read(path: str) -> dict:
    with open(path) as fh:
        return dict(line.split() for line in fh if line.strip())


def diff(path_a: str, path_b: str) -> list:
    a, b = _read(path_a), _read(path_b)
    return [name for name in a | b if a.get(name) != b.get(name)]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="list the records that differ between two fingerprint files")
    args = parser.parse_args()
    if args.diff is None:
        fingerprint(sys.stdout)
        return 0
    names = diff(*args.diff)
    for name in names:
        print(name)
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
