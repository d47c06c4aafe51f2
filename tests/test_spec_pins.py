"""Pins of the JSON spec format: written specs, model fingerprints and round trips.

A component that is not a model is pinned through the smallest model that
holds it: a distribution as the immigration of a model with no lags, an
offspring sequence next to Poisson(1) immigration, and a decay law as the
Poisson family of such a model.
"""

import json

import pytest

from inarlim import (
    Bernoulli,
    Binomial,
    Constant,
    CountDistribution,
    ExplicitOffspring,
    FiniteDecay,
    FiniteSupport,
    Geometric,
    GeometricDecay,
    InarModel,
    Poisson,
    PoissonOffspring,
    PowerLawDecay,
    dist_from_spec,
    model_from_spec,
)

# name -> (object, json.dumps(obj.to_spec(), sort_keys=True), fingerprint of its model)
PINNED = {
    "constant": (Constant(3), '{"type": "constant", "value": 3}', "6601772aeb50046e"),
    "bernoulli": (Bernoulli(0.4), '{"p": 0.4, "type": "bernoulli"}', "30c06294d199895b"),
    "binomial": (Binomial(5, 0.3), '{"m": 5, "p": 0.3, "type": "binomial"}', "8a562851d6d13777"),
    "poisson": (Poisson(1.5), '{"lambda": 1.5, "type": "poisson"}', "70a4a8c3c4b337b8"),
    "geometric": (Geometric(0.5), '{"p": 0.5, "type": "geometric"}', "58513d321b39a12a"),
    "finite_support": (
        FiniteSupport((0.1, 0.0, 0.9)),
        '{"probs": [0.1, 0.0, 0.9], "type": "finite_support"}',
        "5ec5773ae3970eda",
    ),
    "geometric_decay": (
        GeometricDecay(0.2, 0.6),
        '{"c": 0.2, "r": 0.6, "type": "geometric"}',
        "17dd5838ed3e208f",
    ),
    "power_law_decay": (
        PowerLawDecay(0.3, 2.0),
        '{"a": 2.0, "c": 0.3, "type": "power_law"}',
        "67bfc3559722deb7",
    ),
    "finite_list_decay": (
        FiniteDecay((0.2, 0.0, 0.1)),
        '{"type": "finite_list", "values": [0.2, 0.0, 0.1]}',
        "dc8b0617420cc10f",
    ),
    "explicit": (
        ExplicitOffspring((Bernoulli(0.35), Binomial(2, 0.1))),
        '{"laws": [{"p": 0.35, "type": "bernoulli"}, {"m": 2, "p": 0.1, "type": "binomial"}],'
        ' "type": "explicit"}',
        "92eaca9ee355f099",
    ),
    "poisson_family": (
        PoissonOffspring(PowerLawDecay(0.3, 2.5)),
        '{"decay": {"a": 2.5, "c": 0.3, "type": "power_law"}, "type": "poisson_family"}',
        "09c01f8cb8fc5906",
    ),
    "constant_float": (Constant(2.0), '{"type": "constant", "value": 2}', "4a46cc80b2f65e42"),
    "binomial_float_m": (
        Binomial(2.0, 0.5),
        '{"m": 2, "p": 0.5, "type": "binomial"}',
        "749eea6bf6dac6f1",
    ),
    "empty_lags": (ExplicitOffspring(()), '{"laws": [], "type": "explicit"}', "07088196554f4af5"),
    "hawkes": (
        InarModel(Poisson(1.0), PoissonOffspring(GeometricDecay(c=0.25, r=0.5))),
        '{"immigration": {"lambda": 1.0, "type": "poisson"}, "offspring": {"decay":'
        ' {"c": 0.25, "r": 0.5, "type": "geometric"}, "type": "poisson_family"}}',
        "dc5075f4d64448c3",
    ),
    "bernoulli_ar1": (
        InarModel(Bernoulli(0.5), ExplicitOffspring((Bernoulli(0.4),))),
        '{"immigration": {"p": 0.5, "type": "bernoulli"}, "offspring": {"laws":'
        ' [{"p": 0.4, "type": "bernoulli"}], "type": "explicit"}}',
        "6a1849247510666f",
    ),
}


def _model_of(x) -> InarModel:
    if isinstance(x, InarModel):
        return x
    if isinstance(x, CountDistribution):
        return InarModel(x, ExplicitOffspring(()))
    if isinstance(x, (ExplicitOffspring, PoissonOffspring)):
        return InarModel(Poisson(1.0), x)
    return InarModel(Poisson(1.0), PoissonOffspring(x))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_spec_and_fingerprint_pinned(name):
    x, spec_json, fingerprint = PINNED[name]
    assert json.dumps(x.to_spec(), sort_keys=True) == spec_json
    assert _model_of(x).fingerprint() == fingerprint


@pytest.mark.parametrize("name", sorted(PINNED))
def test_spec_round_trip_through_json(name):
    x = PINNED[name][0]
    if isinstance(x, CountDistribution):
        back = dist_from_spec(json.loads(json.dumps(x.to_spec())))
        assert back == x and type(back) is type(x)
    model = _model_of(x)
    back = model_from_spec(json.loads(json.dumps(model.to_spec())))
    assert back == model
    assert back.fingerprint() == model.fingerprint()
    assert json.dumps(back.to_spec(), sort_keys=True) == json.dumps(model.to_spec(), sort_keys=True)
