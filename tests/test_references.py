"""The package's own numeric routines against scipy and mpmath.

The runtime imports numpy and the standard library only.  scipy and mpmath
are test-only references here: the Hurwitz zeta behind power-law totals,
the weighted log-sum-exp, the normal tail and the one-sample
Kolmogorov-Smirnov statistic.  A subprocess check makes sure that the CLI
never loads scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import logsumexp, zeta
from scipy.stats import kstest, norm

import inarlim.model
from inarlim import FiniteSupport, PowerLawDecay
from inarlim.distributions import log_sum_exp
from inarlim.model import hurwitz_zeta
from inarlim.montecarlo import ks_statistic_normal, normal_sf

ZETA_RTOL = 4e-15
ZETA_EXPONENTS = (1.0001, 1.01, 1.2, 1.5, 2.0, 2.5, 3.0, 4.7, 7.0, 12.0)
ZETA_SHIFTS = (1.0, 2.0, 3.5, 9.0, 10.0, 57.0, 1e3, 1e5, 1e8, 1e8 + 1.0, 1e10, 3e11)


@pytest.mark.parametrize("a", ZETA_EXPONENTS)
def test_hurwitz_zeta_against_scipy_and_mpmath(a):
    with mpmath.workdps(40):
        for q in ZETA_SHIFTS:
            value = hurwitz_zeta(a, q)
            reference = mpmath.zeta(mpmath.mpf(a), mpmath.mpf(q))
            assert abs(value - reference) <= ZETA_RTOL * abs(reference), (a, q)
            assert value == pytest.approx(float(zeta(a, q)), rel=ZETA_RTOL, abs=0.0)


@given(a=st.floats(1.0001, 12.0), q=st.floats(1.0, 3e11))
def test_hurwitz_zeta_matches_scipy_on_random_arguments(a, q):
    assert hurwitz_zeta(a, q) == pytest.approx(float(zeta(a, q)), rel=ZETA_RTOL, abs=0.0)


@given(c=st.floats(1e-6, 0.5), a=st.floats(1.0001, 12.0))
def test_power_law_total_is_bitwise_the_scipy_value(c, a):
    assert PowerLawDecay(c, a).total() == c * float(zeta(a, 1))


LSE_CASES = [
    ([1.0, 2.0, 3.0], [0.2, 0.3, 0.5]),
    ([1.0, 2.0, 3.0], [0.0, 0.3, 0.0]),
    ([-np.inf, 2.0, 3.0], [0.5, 0.3, 0.2]),
    ([np.inf, 2.0, 3.0], [0.5, 0.3, 0.2]),
    ([-np.inf, -np.inf], [0.5, 0.5]),
    ([np.inf, 2.0], [0.0, 1.0]),
    ([5.0, 6.0], [0.0, 0.0]),
    ([1000.0, -1000.0], [1.0, 1.0]),
    ([-745.0, -800.0, -1e4], [1.0, 2.0, 3.0]),
    ([0.0, 0.0, 0.0], [0.1, 0.0, 0.9]),
]


@pytest.mark.parametrize("x, w", LSE_CASES)
def test_log_sum_exp_edge_cases_against_scipy(x, w):
    expected = float(logsumexp(np.array(x), b=np.array(w)))
    assert log_sum_exp(x, w) == pytest.approx(expected, rel=1e-15, abs=1e-15)


@given(
    st.lists(
        st.tuples(st.floats(-700.0, 700.0), st.sampled_from([0.0, 1e-300, 1e-9, 0.3, 1.0, 7.5])),
        min_size=1,
        max_size=12,
    )
)
def test_log_sum_exp_matches_scipy_on_random_vectors(pairs):
    x, w = map(np.array, zip(*pairs))
    expected = float(logsumexp(x, b=w))
    # either side rounds at the scale of its shift: the largest |x| and, in scipy, |log w|
    scale = 1.0 + abs(x).max() + abs(np.log(w[w > 0.0])).max(initial=0.0)
    assert log_sum_exp(x, w) == pytest.approx(expected, rel=0.0, abs=1e-15 * scale)


# zero entries below and above the support, leading zeros, and an entry below the smallest
# normal double: at these tilts p_k exp(t k) over- or underflows for some k
LARGE_TILT_PROBS = [
    (0.0, 0.5, 0.5),
    (0.5, 0.5, 0.0),
    (0.3, 0.5, 0.2),
    (0.1, 0.0, 0.9),
    (1e-320, 0.5, 0.5),
    (0.0,) * 30 + (0.5, 0.5),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", (-800.0, -40.0, 40.0, 800.0))
@pytest.mark.parametrize(
    "probs",
    LARGE_TILT_PROBS,
    ids=["zero-first", "zero-last", "all-positive", "zero-inside", "subnormal-first", "30-zeros-first"],
)
def test_finite_support_log_mgf_at_large_tilts_against_mpmath(probs, t):
    d = FiniteSupport(probs)
    with mpmath.workdps(50):
        terms = [mpmath.mpf(p) * mpmath.exp(mpmath.mpf(t) * k) for k, p in enumerate(probs)]
        total = mpmath.fsum(terms)
        log_mgf = float(mpmath.log(total))
        slope = float(mpmath.fsum(k * w for k, w in enumerate(terms)) / total)
    assert d.log_mgf(t) == pytest.approx(log_mgf, rel=1e-14, abs=1e-14)
    assert d.log_mgf_prime(t) == pytest.approx(slope, rel=1e-12, abs=0.0)


def test_normal_tail_against_scipy_and_mpmath():
    with mpmath.workdps(40):
        for z in np.linspace(-10.0, 37.0, 471):
            # an argument rounded to a double moves the tail by about z**2 ulps
            rtol = 1e-15 * (1.0 + z * z)
            reference = mpmath.erfc(mpmath.mpf(z) / mpmath.sqrt(2)) / 2
            assert abs(normal_sf(z) - reference) <= rtol * reference, z
            assert normal_sf(z) == pytest.approx(float(norm.sf(z)), rel=rtol, abs=0.0)


@pytest.mark.parametrize("reps, shift", [(1, 0.0), (2, 0.3), (500, 0.0), (2000, 0.1), (3000, -2.0)])
def test_ks_statistic_against_scipy(reps, shift):
    z = np.sort(np.random.default_rng(reps).standard_normal(reps) + shift)
    assert abs(ks_statistic_normal(z) - kstest(z, "norm").statistic) <= 1e-15


GUARD_SCRIPT = """
import json
import sys
from inarlim.cli import main
bounded, power_law = sys.argv[1:3]
codes = [
    main(["validate", "--model", bounded, "--checks", "lln,clt,gamma,cesaro,oracle",
          "--n", "4", "--reps", "500", "--seed", "3", "--format", "csv"]),
    main(["theory", "--model", power_law, "--x-grid", "0.5,1.5,3.0"]),
]
print(json.dumps({"codes": codes, "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""


def test_cli_runs_without_scipy(tmp_path):
    bounded = tmp_path / "bounded.json"
    bounded.write_text(json.dumps({
        "immigration": {"type": "bernoulli", "p": 0.5},
        "offspring": {"type": "explicit", "laws": [{"type": "bernoulli", "p": 0.4}]},
    }))
    power_law = tmp_path / "power_law.json"
    power_law.write_text(json.dumps({
        "immigration": {"type": "poisson", "lambda": 1.0},
        "offspring": {"type": "poisson_family", "decay": {"type": "power_law", "c": 0.3, "a": 2.0}},
    }))
    src = str(Path(inarlim.model.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", GUARD_SCRIPT, str(bounded), str(power_law)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.strip().splitlines()[-1])
    assert outcome["codes"][0] in (0, 1) and outcome["codes"][1] == 0, outcome
    assert outcome["scipy"] == []
