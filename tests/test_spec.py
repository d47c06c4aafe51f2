import json
import re
from pathlib import Path

import pytest

from inarlim import ConfigError, CountDistribution, dist_from_spec
from inarlim.cli import main
from inarlim.model import DecayLaw, OffspringSequence

README = Path(__file__).resolve().parents[1] / "README.md"
FAMILIES = {"distribution": CountDistribution, "decay": DecayLaw, "offspring": OffspringSequence}

IMMIGRATION = {"type": "poisson", "lambda": 1.0}
DECAY = {"type": "geometric", "c": 0.25, "r": 0.5}


def _declared(base) -> dict:
    """type tag -> spec keys, for every class below base that declares a spec."""
    out, todo = {}, [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "SPEC" in vars(cls):
            tag, keys = cls.SPEC
            out[tag] = sorted(keys)
    return out


def _readme_table(family: str) -> dict:
    """type tag -> keys, from the README table whose header starts with '| <family> type |'."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"| {family} type |"))
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        tag, keys = line.split("|")[1:3]
        rows[tag.strip().strip("`")] = sorted(re.findall(r"`([^`]+)`", keys))
    return rows


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_readme_tables_list_every_spec_type_and_key(family):
    assert _readme_table(family) == _declared(FAMILIES[family])


def _model(family: str, spec) -> dict:
    """A model whose component of the given family is spec; the others are well formed."""
    if family == "model":
        return spec
    if family == "distribution":
        return {"immigration": spec, "offspring": {"type": "poisson_family", "decay": DECAY}}
    if family == "decay":
        return {"immigration": IMMIGRATION, "offspring": {"type": "poisson_family", "decay": spec}}
    return {"immigration": IMMIGRATION, "offspring": spec}


@pytest.mark.parametrize(
    "family, spec, named",
    [
        ("distribution", {"type": "poisson", "lam": 1.0},
         ["unknown keys ['lam']", "missing keys ['lambda']"]),
        ("decay", {"type": "power_law", "c": 0.3, "a": 2.0, "k0": 1}, ["unknown keys ['k0']"]),
        ("offspring", {"type": "explicit"}, ["missing keys ['laws']"]),
        ("model", {"immigration": IMMIGRATION, "burn_in": 100},
         ["unknown keys ['burn_in']", "missing keys ['offspring']"]),
        ("offspring", {"laws": []}, ["offspring spec has no type"]),
        ("decay", {"type": "zeta", "s": 2.0}, ["unknown decay type 'zeta'"]),
        ("distribution", [1, 2], ["distribution spec must be an object, got list"]),
        ("model", 3, ["model spec must be an object, got int"]),
        ("offspring", {"type": "explicit", "laws": [{"type": "bernoulli", "p": 0.3},
                                                     {"type": "bernoulli", "p": "x"}]},
         ["offspring.laws[1].p must be a finite number, got 'x'"]),
        ("offspring", {"type": "explicit", "laws": [{"type": "bernoulli", "p": 0.3},
                                                     {"type": "bernoulli", "p": 1.5}]},
         ["offspring.laws[1]: p must be a probability in [0, 1], got 1.5"]),
        ("distribution", {"type": "poisson", "lambda": -1.0},
         ["immigration: poisson rate must be nonnegative, got -1.0"]),
        ("decay", {"type": "geometric", "c": 0.25, "r": "x"}, ["offspring.decay.r must be a finite number"]),
    ],
    ids=["dist-keys", "decay-key", "offspring-key", "model-keys", "no-type", "unknown-type",
         "dist-list", "model-number", "lag-value", "lag-law", "immigration-law", "decay-value"],
)
def test_malformed_spec_exits_2_naming_the_fault(tmp_path, capsys, family, spec, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_model(family, spec)))
    assert main(["theory", "--model", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    for text in named:
        assert text in err


def test_integral_fields_read_as_int():
    constant = dist_from_spec({"type": "constant", "value": 2.0})
    binomial = dist_from_spec({"type": "binomial", "m": 3.0, "p": 0.5})
    assert type(constant.value) is int and constant.value == 2
    assert type(binomial.m) is int and binomial.m == 3
    assert repr(constant) == "Constant(value=2)"
    with pytest.raises(ConfigError, match="nonnegative integer"):
        dist_from_spec({"type": "constant", "value": 2.5})
