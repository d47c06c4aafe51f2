"""The theory layer's bracketed solver: its guarantee, and the bisection it replaced.

Every root in ``asymptotics`` (the critical tilt, the fixed point behind
``limit_cgf`` and the Legendre optimum behind ``ldp_rate``) goes through
one bracket walk and one ``_solve``, which takes ITP steps on the values
at the bracket's ends.  Each solve must return the midpoint of a final
bracket no wider than its tolerance, or of one its midpoint cannot split,
after at most ceil(log2(width / xtol)) + ``_ITP_N0`` evaluations.
``counted_solves`` records every solve so the tests can check that.
``bisect_reference`` keeps the bisection the solver replaced; on random
models the two agree within the tolerances.
"""

import contextlib
import math
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import bisect_reference as ref
from inarlim import (
    Bernoulli,
    Binomial,
    Constant,
    ExplicitOffspring,
    FiniteSupport,
    Geometric,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    asymptotics,
    critical_tilt,
    ldp_rate,
    limit_cgf,
    lln_mean,
    tilt_fixed_point,
    tilt_gap,
)
from inarlim.asymptotics import OPT_XTOL, ROOT_XTOL
from inarlim.model import hurwitz_zeta

# ldp_rate values agree to this, relative or absolute: the two optima lie
# within OPT_XTOL of each other where the objective's slope is 0, so what
# is left is the rounding of the objective's terms
LDP_REL_TOL = 1e-9
LDP_ABS_TOL = 1e-12
# rounding allowance of limit_cgf, on top of its slope times ROOT_XTOL
LIMIT_ROUNDING = 1e-14
# F' = 1 - cgf' within this of 0 is rounding: its sign may change more than
# once there, so two solvers may stop at different points of that stretch
SLOPE_NOISE = 2.0**-44


@dataclass
class Solve:
    lo: float
    hi: float
    v_lo: float
    v_hi: float
    xtol: float
    points: list  # (x, value) per evaluation, in order
    result: float


@contextlib.contextmanager
def counted_solves():
    """Record every ``asymptotics._solve`` call, with the critical-tilt cache cleared around it."""
    calls = []
    real = asymptotics._solve

    def counted(value, lo, hi, v_lo, v_hi, xtol):
        points = []

        def tallied(x):
            v = value(x)
            points.append((x, v))
            return v

        result = real(tallied, lo, hi, v_lo, v_hi, xtol)
        calls.append(Solve(lo, hi, v_lo, v_hi, xtol, points, result))
        return result

    asymptotics._critical_tilt.cache_clear()
    try:
        with mock.patch.object(asymptotics, "_solve", counted):
            yield calls
    finally:
        asymptotics._critical_tilt.cache_clear()


def check_guarantee(s: Solve):
    """The end values sit on their sides, and the evaluations keep the solver's promise."""
    assert s.v_lo > 0.0 and not s.v_hi > 0.0
    width = s.hi - s.lo
    budget = math.ceil(math.log2(width / s.xtol)) + asymptotics._ITP_N0 if width > s.xtol else 0
    assert len(s.points) <= budget, (len(s.points), budget)
    assert all(s.lo < x < s.hi for x, _ in s.points)
    lo = max([s.lo] + [x for x, v in s.points if v > 0.0])
    hi = min([s.hi] + [x for x, v in s.points if not v > 0.0])
    assert lo < hi
    assert s.result == 0.5 * (lo + hi)
    assert hi - lo <= s.xtol or not lo < s.result < hi


def _lag(kind: int, mean: float, shape: float):
    """A lag law with the given mean: Bernoulli, Binomial(2 or 3), three-point, Geometric or Poisson."""
    if kind == 0:
        return Bernoulli(mean)
    if kind == 1:
        trials = 2 if shape < 0.5 else 3
        return Binomial(trials, mean / trials)
    if kind == 2:
        p2 = shape * mean / 2.0
        p1 = mean - 2.0 * p2
        return FiniteSupport((1.0 - p1 - p2, p1, p2))
    if kind == 3:
        return Geometric(1.0 / (1.0 + mean))
    return Poisson(mean)


immigration = st.one_of(
    st.floats(0.2, 0.8).map(Bernoulli),
    st.floats(0.5, 2.0).map(Poisson),
    st.floats(0.3, 0.8).map(Geometric),
    st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.1, 1.0)).map(
        lambda w: FiniteSupport((1.0 - (w[1] + w[2]) / sum(w), w[1] / sum(w), w[2] / sum(w)))
    ),
)


@st.composite
def lag_list_models(draw):
    """1-3 lags of any of five laws, with mean_l1 in [0.05, 0.9]."""
    mean_l1 = draw(st.floats(0.05, 0.9))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3))
    laws = tuple(
        _lag(draw(st.integers(0, 4)), mean_l1 * w / sum(weights), draw(st.floats(0.0, 1.0)))
        for w in weights
    )
    return InarModel(draw(immigration), ExplicitOffspring(laws))


@st.composite
def poisson_family_models(draw):
    """Geometric or power-law Poisson families with total mass in [0.05, 0.9]."""
    mass = draw(st.floats(0.05, 0.9))
    if draw(st.booleans()):
        r = draw(st.floats(0.2, 0.8))
        decay = GeometricDecay(c=mass * (1.0 - r), r=r)
    else:
        a = draw(st.floats(1.6, 3.0))
        decay = PowerLawDecay(c=mass / hurwitz_zeta(a, 1.0), a=a)
    return InarModel(draw(immigration), PoissonOffspring(decay))


@settings(max_examples=150, derandomize=True)
@given(
    m=st.one_of(lag_list_models(), poisson_family_models()),
    fracs=st.lists(st.floats(-1.0, 0.999), min_size=1, max_size=3),
    below=st.floats(0.05, 0.95),
    above=st.floats(1.05, 3.0),
)
def test_solver_matches_the_bisection_reference(m, fracs, below, above):
    with counted_solves() as solves:
        tc, attained = critical_tilt(m)
        ct = asymptotics._critical_tilt(m)
        ref_tc, ref_attained, ref_argmax = ref.critical_tilt(m)
        assert attained == ref_attained
        if attained:
            slopes = [asymptotics._tilt_gap_prime(m, x) for x in (ct.argmax, ref_argmax)]
            assert abs(ct.argmax - ref_argmax) <= OPT_XTOL or max(map(abs, slopes)) <= SLOPE_NOISE
            assert math.isclose(tc, ref_tc, rel_tol=1e-12)
        else:
            assert tc == ref_tc
        for frac in fracs:
            theta = frac * tc
            f, ref_f = tilt_fixed_point(m, theta), ref.tilt_fixed_point(m, theta)
            assert abs(f - ref_f) <= ROOT_XTOL
            slope = m.immigration.log_mgf_prime(max(f, ref_f))
            limit, ref_limit = limit_cgf(m, theta), ref.limit_cgf(m, theta)
            tol = ROOT_XTOL * slope + LIMIT_ROUNDING * max(1.0, abs(ref_limit))
            assert limit == ref_limit or abs(limit - ref_limit) <= tol
        mu = lln_mean(m)
        for x in (below * mu, above * mu):
            rate, ref_rate = ldp_rate(m, x), ref.ldp_rate(m, x)
            assert rate == ref_rate or math.isclose(
                rate, ref_rate, rel_tol=LDP_REL_TOL, abs_tol=LDP_ABS_TOL
            ), (x, rate, ref_rate)
    assert solves
    for s in solves:
        check_guarantee(s)


def test_attained_critical_tilt_is_its_own_fixed_point(hawkes, two_lag):
    for m in (hawkes, two_lag):
        with counted_solves() as solves:
            tc, attained = critical_tilt(m)
            assert attained
            assert tilt_fixed_point(m, tc) == asymptotics._critical_tilt(m).argmax
        (only,) = solves  # the maximizer's; the fixed point needs none
        assert only.xtol == OPT_XTOL
        check_guarantee(only)
        assert abs(only.result - ref.critical_tilt(m)[2]) <= OPT_XTOL


def test_unattained_critical_tilt_needs_no_solve(bernoulli_ar1):
    with counted_solves() as solves:
        tc, attained = critical_tilt(bernoulli_ar1)
        assert not attained
        with pytest.raises(ValueError, match="unattained"):
            tilt_fixed_point(bernoulli_ar1, tc)
        assert limit_cgf(bernoulli_ar1, tc) == math.inf
    assert solves == []


def test_tilt_within_rounding_below_the_critical_tilt(hawkes, two_lag, finite_mix):
    for m in (hawkes, two_lag, finite_mix):
        with counted_solves() as solves:
            tc, attained = critical_tilt(m)
            theta = math.nextafter(tc, 0.0)
            f = tilt_fixed_point(m, theta)
        argmax = asymptotics._critical_tilt(m).argmax
        maximizer, fixed = solves
        assert (fixed.lo, fixed.hi, fixed.v_lo, fixed.v_hi) == (0.0, argmax, theta, theta - tc)
        for s in solves:
            check_guarantee(s)
        assert 0.0 < f <= argmax
        # F is flat at its maximizer, so the root is as good as F's rounding allows
        assert theta - tilt_gap(m, f) <= 4 * math.ulp(tc)


def test_negative_zero_tilt(hawkes, bernoulli_ar1):
    for m in (hawkes, bernoulli_ar1):
        with counted_solves() as solves:
            assert tilt_fixed_point(m, -0.0) == 0.0
            assert limit_cgf(m, -0.0) == 0.0
        # only the critical tilt's maximizer (for limit_cgf), never a fixed point
        assert all(s.xtol == OPT_XTOL for s in solves)
        for s in solves:
            check_guarantee(s)


def test_ldp_rate_at_and_just_above_the_smallest_immigration():
    m = InarModel(Constant(1), ExplicitOffspring((Bernoulli(0.3), Bernoulli(0.3))))
    with counted_solves() as solves:
        critical_tilt(m)
        (maximizer,) = solves
        # S_n = n: one immigrant a step and no offspring
        assert ldp_rate(m, 1.0) == -2.0 * math.log(0.7)
        assert solves == [maximizer]
        x = math.nextafter(1.0, 2.0)
        rate = ldp_rate(m, x)
    maximizer, legendre = solves
    # the walk ran left to f = -64; the slope there is a few ulps, so the
    # interpolation is rounding noise and the projection does the work
    assert (legendre.lo, legendre.hi) == (-64.0, -32.0)
    for s in solves:
        check_guarantee(s)
    assert math.isclose(rate, ref.ldp_rate(m, x), rel_tol=LDP_REL_TOL, abs_tol=LDP_ABS_TOL)


def test_ldp_supremum_on_the_boundary_needs_no_solve():
    # no immigration: limit_cgf is 0 up to the critical tilt, so the rate is x theta_c
    m = InarModel(Constant(0), ExplicitOffspring((Bernoulli(0.3), Bernoulli(0.4))))
    with counted_solves() as solves:
        tc, attained = critical_tilt(m)
        assert attained
        rate = ldp_rate(m, 0.5)
    (maximizer,) = solves  # the slope stays positive all the way to the maximizer
    check_guarantee(maximizer)
    assert math.isclose(rate, ref.ldp_rate(m, 0.5), rel_tol=LDP_REL_TOL, abs_tol=LDP_ABS_TOL)
    assert rate == pytest.approx(0.5 * tc, rel=1e-12)


def test_far_value_of_minus_inf_takes_bisection_steps():
    # F' is -inf at the domain edge of the Geometric lag, so the bracket
    # [0, edge] has no finite far value until a step lands inside it
    m = InarModel(Poisson(1.0), ExplicitOffspring((Geometric(0.6), Bernoulli(0.1))))
    edge = m.offspring.domain_sup()
    slope = lambda x: asymptotics._tilt_gap_prime(m, x)
    assert slope(edge) == -math.inf
    with counted_solves() as solves:
        x_star = asymptotics._solve(slope, 0.0, edge, slope(0.0), -math.inf, OPT_XTOL)
    (s,) = solves
    check_guarantee(s)
    assert s.points[0][0] == 0.5 * edge  # the first step bisects
    assert abs(x_star - ref.critical_tilt(m)[2]) <= OPT_XTOL
