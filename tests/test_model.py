import math

import pytest
from hypothesis import given, strategies as st

from inarlim import (
    Bernoulli,
    ConfigError,
    Constant,
    ExplicitOffspring,
    FiniteDecay,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    RandomStream,
    effective_horizon,
    model_from_spec,
    simulate,
    tilt_recursion,
    validate,
)
from inarlim.model import TRUNCATION_TOL, history_window

IMM = Poisson(1.0)


def test_mean_l1_examples():
    assert PoissonOffspring(GeometricDecay(0.25, 0.5)).mean_l1() == pytest.approx(0.5, abs=1e-14)
    assert ExplicitOffspring((Bernoulli(0.4),)).mean_l1() == 0.4
    assert ExplicitOffspring(()).mean_l1() == 0.0


def test_var_l1_examples():
    assert PoissonOffspring(GeometricDecay(0.25, 0.5)).var_l1() == pytest.approx(0.5, abs=1e-14)
    assert ExplicitOffspring((Bernoulli(0.4),)).var_l1() == pytest.approx(0.24, abs=1e-15)
    assert ExplicitOffspring((Constant(0),)).var_l1() == 0.0


@given(c=st.floats(0.01, 0.5), r=st.floats(0.05, 0.95))
def test_geometric_decay_sums_match_direct_summation(c, r):
    decay = GeometricDecay(c, r)
    direct = decay.coefficients(10**5).sum()
    assert abs(decay.total() - direct) < 1e-10


@given(c=st.floats(0.01, 0.5), a=st.floats(3.5, 6.0))
def test_power_law_sums_match_direct_summation(c, a):
    # exponents where the discarded tail past 1e5 terms is far below 1e-10
    decay = PowerLawDecay(c, a)
    direct = float(decay.coefficients(10**5).sum())
    assert abs(decay.total() - direct) < 1e-10


def test_finite_decay_sums():
    decay = FiniteDecay((0.3, 0.2))
    assert decay.total() == 0.5
    assert decay.tail(1) == 0.2
    assert decay.tail(2) == 0.0


def test_power_law_requires_summable_exponent():
    with pytest.raises(ConfigError):
        PowerLawDecay(c=0.1, a=1.0)
    with pytest.raises(ConfigError):
        PowerLawDecay(c=0.1, a=0.8)


def test_validate_geometric_hawkes_all_hold():
    report = validate(InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(0.25, 0.5))))
    assert report.all_hold()
    assert report.item("b1").constants["C1"] > 0


def test_validate_heavy_power_law_fails_tail_conditions():
    report = validate(InarModel(IMM, PoissonOffspring(PowerLawDecay(c=0.1, a=1.2))))
    assert report.holds("a")  # 0.1 * zeta(1.2) ~ 0.56 < 1
    assert not report.holds("b1")
    assert not report.holds("b2")


def test_validate_explicit_all_hold():
    report = validate(InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.4),))))
    assert report.all_hold()


def test_validate_reports_rather_than_raises():
    supercritical = InarModel(IMM, PoissonOffspring(GeometricDecay(0.6, 0.5)))
    report = validate(supercritical)
    assert not report.holds("a")
    assert report.failed_labels() == ["a"]


@pytest.mark.parametrize("a", [1.6, 2.0, 3.0, 5.0])
def test_tail_condition_monotone(a):
    # whenever the stronger exponent condition holds, the 3/2 one does too
    report = validate(InarModel(IMM, PoissonOffspring(PowerLawDecay(c=0.1, a=a))))
    assert report.holds("b2")
    assert report.holds("b1")


def test_power_law_boundary_exponent():
    report = validate(InarModel(IMM, PoissonOffspring(PowerLawDecay(c=0.1, a=1.5))))
    assert report.holds("b1")
    assert not report.holds("b2")


def test_effective_horizon_examples():
    geo = InarModel(IMM, PoissonOffspring(GeometricDecay(0.25, 0.5)))
    assert effective_horizon(geo, 1e-12) == 39
    fin = InarModel(IMM, PoissonOffspring(FiniteDecay((0.3, 0.2))))
    assert effective_horizon(fin, 1e-12) == 2
    exp1 = InarModel(IMM, ExplicitOffspring((Bernoulli(0.4),)))
    assert effective_horizon(exp1, 1e-12) == 1


def test_effective_horizon_matches_definition():
    geo = GeometricDecay(0.25, 0.5)
    m = InarModel(IMM, PoissonOffspring(geo))
    for tol in (1e-6, 1e-9, 1e-12):
        k = effective_horizon(m, tol)
        assert geo.tail(k) < tol
        assert k == 1 or geo.tail(k - 1) >= tol


def test_power_law_horizon_is_huge_but_consistent():
    decay = PowerLawDecay(c=0.1, a=1.2)
    m = InarModel(IMM, PoissonOffspring(decay))
    k = effective_horizon(m, 1e-6)
    assert decay.tail(k) < 1e-6
    assert decay.tail(k - 1) >= 1e-6


def test_power_law_near_one_keeps_the_whole_history():
    # the tail past any float-representable lag is still above the tolerance
    m = InarModel(IMM, PoissonOffspring(PowerLawDecay(c=0.02, a=1.02)))
    with pytest.raises(ConfigError):
        effective_horizon(m, TRUNCATION_TOL)
    assert history_window(m, 100) == 99
    assert len(tilt_recursion(m, -0.1, 100).values) == 100
    assert len(simulate(m, 100, RandomStream(seed=3))) == 100


# Per fixture: (mu, sigma2) from E[eps] / (1 - mean_l1) and
# (E[eps] var_l1 + Var[eps] (1 - mean_l1)) / (1 - mean_l1)**3
LIMIT_CONSTANTS = {
    "hawkes": (2.0, 8.0),
    "bernoulli_ar1": (5.0 / 6.0, 1.25),
    "two_lag": (1.25, 0.3075 / 0.064),
    "finite_mix": (1.5, 0.69 / 0.216),
    "pure_immigration": (1.0, 1.0),
}


@pytest.mark.parametrize("name", sorted(LIMIT_CONSTANTS))
def test_validate_reports_limit_constants(name, request):
    report = validate(request.getfixturevalue(name))
    mu, sigma2 = LIMIT_CONSTANTS[name]
    assert report.mu == pytest.approx(mu, rel=1e-14)
    assert report.sigma2 == pytest.approx(sigma2, rel=1e-14)


def test_validate_limit_constants_infinite_when_supercritical():
    report = validate(InarModel(IMM, PoissonOffspring(GeometricDecay(0.6, 0.5))))
    assert report.mu == report.sigma2 == math.inf


def test_model_spec_round_trip(hawkes, bernoulli_ar1):
    for m in (hawkes, bernoulli_ar1):
        assert model_from_spec(m.to_spec()) == m
        assert model_from_spec(m.to_spec()).fingerprint() == m.fingerprint()


def test_model_spec_rejects_unknown_keys(hawkes):
    spec = hawkes.to_spec()
    spec["burn_in"] = 100
    with pytest.raises(ConfigError):
        model_from_spec(spec)
    with pytest.raises(ConfigError):
        model_from_spec({"immigration": {"type": "poisson", "lambda": 1.0}})
    with pytest.raises(ConfigError):
        model_from_spec(
            {
                "immigration": {"type": "poisson", "lambda": 1.0},
                "offspring": {"type": "mystery"},
            }
        )


def test_fingerprint_distinguishes_models(hawkes, bernoulli_ar1):
    assert hawkes.fingerprint() != bernoulli_ar1.fingerprint()


FINITE_NOTE = "finitely many nonzero lags, tail conditions hold trivially"
GEOMETRIC_NOTE = "geometric decay dominates every polynomial"

# Per model: (mean_l1, var_l1, C1 or None, (a, C2) or None, tail note, immigration mean, variance)
PINNED_REPORTS = {
    "hawkes": (0.5, 0.5, 0.3535533905932738, (2.0, 0.5625), GEOMETRIC_NOTE, 1.0, 1.0),
    "bernoulli_ar1": (0.4, 0.24, 0.4, (2.0, 0.4), FINITE_NOTE, 0.5, 0.25),
    "two_lag": (0.6, 0.415, 0.7071067811865476, (2.0, 1.0), FINITE_NOTE, 0.5, 0.25),
    "finite_mix": (0.4, 0.44000000000000006, 0.4, (2.0, 0.4), FINITE_NOTE, 0.9, 0.49),
    "pure_immigration": (0.0, 0.0, 0.0, (2.0, 0.0), FINITE_NOTE, 1.0, 1.0),
    "power_law_heavy": (
        0.5591582441177753, 0.5591582441177753, None, None,
        "power-law decay with exponent 1.2", 1.0, 1.0,
    ),
    "power_law_boundary": (
        0.26123753486854884, 0.26123753486854884, 0.1, None,
        "power-law decay with exponent 1.5", 1.0, 1.0,
    ),
    "power_law_light": (
        0.49348022005446796, 0.49348022005446796, 0.3, (2.0, 0.3),
        "power-law decay with exponent 2.0", 1.0, 1.0,
    ),
    "finite_decay": (0.5, 0.5, 1.0392304845413265, (2.0, 1.8), FINITE_NOTE, 1.0, 1.0),
}

EXTRA_PINNED_MODELS = {
    "power_law_heavy": InarModel(IMM, PoissonOffspring(PowerLawDecay(c=0.1, a=1.2))),
    "power_law_boundary": InarModel(IMM, PoissonOffspring(PowerLawDecay(c=0.1, a=1.5))),
    "power_law_light": InarModel(IMM, PoissonOffspring(PowerLawDecay(c=0.3, a=2.0))),
    "finite_decay": InarModel(IMM, PoissonOffspring(FiniteDecay((0.3, 0.0, 0.2)))),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_validate_report_pinned(name, request):
    """The whole assumption report, holds flags, constants and detail strings included."""
    m = EXTRA_PINNED_MODELS.get(name) or request.getfixturevalue(name)
    mean_l1, var_l1, c1, a_c2, note, imm_mean, imm_var = PINNED_REPORTS[name]
    expected = {
        "mean_l1": mean_l1,
        "var_l1": var_l1,
        "items": [
            {
                "label": "a",
                "holds": True,
                "detail": "offspring mean l1 norm below 1 and offspring variance l1 norm finite",
                "constants": {"mean_l1": mean_l1, "var_l1": var_l1},
            },
            {
                "label": "b1",
                "holds": c1 is not None,
                "detail": f"lag means decay at least like k**(-3/2); {note}",
                "constants": {} if c1 is None else {"C1": c1},
            },
            {
                "label": "b2",
                "holds": a_c2 is not None,
                "detail": f"lag means decay like k**(-a) for some a > 3/2; {note}",
                "constants": {} if a_c2 is None else {"a": a_c2[0], "C2": a_c2[1]},
            },
            {
                "label": "c",
                "holds": True,
                "detail": "immigration mean and variance finite",
                "constants": {"mean": imm_mean, "variance": imm_var},
            },
        ],
    }
    assert validate(m).to_dict() == expected
