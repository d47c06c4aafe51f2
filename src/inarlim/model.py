"""INAR model definition: immigration law plus offspring sequence.

An ``InarModel`` pairs an immigration distribution with an offspring
sequence, either an explicit finite list of count laws (lag k beyond the
list means zero offspring) or a Poisson family whose per-lag means follow
a decay law.  Construction validates structure only; the standing
assumptions (subcriticality etc.) are checked by :func:`validate` so that
violating models can still be inspected and reported on.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .distributions import CountDistribution, Poisson, dist_from_spec, spec_value
from .errors import AssumptionViolation, ConfigError

__all__ = [
    "GeometricDecay",
    "PowerLawDecay",
    "FiniteDecay",
    "DecayLaw",
    "ExplicitOffspring",
    "PoissonOffspring",
    "OffspringSequence",
    "InarModel",
    "AssumptionItem",
    "AssumptionReport",
    "model_from_spec",
    "validate",
    "effective_horizon",
    "require_assumptions",
    "hurwitz_zeta",
]

TRUNCATION_TOL = 1e-12

# Euler-Maclaurin divisors (2j)! / B_2j for j = 1..12, as in Cephes zeta.c
_ZETA_EM_DIVISORS = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


@functools.lru_cache(maxsize=1024)
def hurwitz_zeta(x: float, q: float) -> float:
    """sum over k >= 0 of (k + q)**(-x), for x > 1 and q >= 1.

    Cephes' zeta.c in its evaluation order, so its values are reproduced
    bitwise: a two-term asymptotic expansion for q > 1e8; otherwise at
    least nine direct terms, continued past k + q = 9, then up to 12
    Euler-Maclaurin corrections; either stage stops once a term falls
    below machine precision relative to the sum.  Memoized: a power law's
    total and tails recur on every CGF evaluation and window search.
    """
    if q > 1e8:
        return (1.0 / (x - 1.0) + 1.0 / (2.0 * q)) * q ** (1.0 - x)
    s = q**-x
    kq = q
    i = 0
    b = 0.0
    while i < 9 or kq <= 9.0:
        i += 1
        kq += 1.0
        b = kq**-x
        s += b
        if abs(b / s) < _MACHEP:
            return s
    s += b * kq / (x - 1.0)
    s -= 0.5 * b
    rising = 1.0
    j = 0.0
    for divisor in _ZETA_EM_DIVISORS:
        rising *= x + j
        b /= kq
        t = rising * b / divisor
        s += t
        if abs(t / s) < _MACHEP:
            return s
        j += 1.0
        rising *= x + j
        b /= kq
        j += 1.0
    return s


@dataclass(frozen=True)
class GeometricDecay:
    """Coefficients c * r**(k-1); total mass c / (1 - r)."""

    c: float
    r: float

    def __post_init__(self):
        if self.c < 0.0:
            raise ConfigError(f"decay scale must be nonnegative, got {self.c}")
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"geometric decay ratio must lie in (0, 1), got {self.r}")

    def coefficients(self, upto: int) -> np.ndarray:
        return self.c * self.r ** np.arange(upto, dtype=np.float64)

    def total(self) -> float:
        return self.c / (1.0 - self.r)

    def tail(self, after: int) -> float:
        return self.c * self.r**after / (1.0 - self.r)

    def poly_sup(self, power: float) -> float:
        """sup over k >= 1 of k**power * c * r**(k-1)."""
        if self.c == 0.0:
            return 0.0
        k_star = -power / math.log(self.r)
        return max(
            k**power * self.c * self.r ** (k - 1)
            for k in {1, max(1, math.floor(k_star)), math.ceil(k_star)}
        )

    def tail_witness(self) -> tuple:
        """(exponent a of a witnessing k**(-a) bound, description of the tail)."""
        return 2.0, "geometric decay dominates every polynomial"

    def to_spec(self) -> dict:
        return {"type": "geometric", "c": self.c, "r": self.r}


@dataclass(frozen=True)
class PowerLawDecay:
    """Coefficients c * k**(-a) with a > 1; total mass c * zeta(a)."""

    c: float
    a: float

    def __post_init__(self):
        if self.c < 0.0:
            raise ConfigError(f"decay scale must be nonnegative, got {self.c}")
        if not self.a > 1.0:
            raise ConfigError(
                f"power-law exponent must exceed 1 for a summable series, got {self.a}"
            )

    def coefficients(self, upto: int) -> np.ndarray:
        return self.c * np.arange(1, upto + 1, dtype=np.float64) ** (-self.a)

    def total(self) -> float:
        return self.c * hurwitz_zeta(self.a, 1.0)

    def tail(self, after: int) -> float:
        if self.c == 0.0:
            return 0.0
        return self.c * hurwitz_zeta(self.a, float(after + 1))

    def poly_sup(self, power: float) -> float:
        """sup over k >= 1 of k**power * c * k**(-a): attained at k = 1 unless power > a."""
        if self.c == 0.0:
            return 0.0
        return math.inf if power > self.a else self.c

    def tail_witness(self) -> tuple:
        return self.a, f"power-law decay with exponent {self.a}"

    def to_spec(self) -> dict:
        return {"type": "power_law", "c": self.c, "a": self.a}


@dataclass(frozen=True)
class FiniteDecay:
    """Explicit finite list of nonnegative coefficients, zero beyond."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        for v in vals:
            if v < 0.0:
                raise ConfigError(f"decay coefficients must be nonnegative, got {v}")
        object.__setattr__(self, "values", vals)

    def coefficients(self, upto: int) -> np.ndarray:
        out = np.zeros(upto, dtype=np.float64)
        head = min(upto, len(self.values))
        out[:head] = self.values[:head]
        return out

    def total(self) -> float:
        return math.fsum(self.values)

    def tail(self, after: int) -> float:
        return math.fsum(self.values[after:])

    def poly_sup(self, power: float) -> float:
        return max((k**power * v for k, v in enumerate(self.values, start=1)), default=0.0)

    def tail_witness(self) -> tuple:
        return 2.0, "finitely many nonzero lags, tail conditions hold trivially"

    def to_spec(self) -> dict:
        return {"type": "finite_list", "values": list(self.values)}


DecayLaw = Union[GeometricDecay, PowerLawDecay, FiniteDecay]


def _fsum_or_inf(terms) -> float:
    """Exact sum of the terms, or +inf as soon as one of them is +inf."""
    kept = []
    for t in terms:
        if t == math.inf:
            return math.inf
        kept.append(t)
    return math.fsum(kept)


@dataclass(frozen=True)
class ExplicitOffspring:
    """Offspring laws given lag by lag; lags beyond the list produce nothing."""

    laws: tuple

    def __post_init__(self):
        laws = tuple(self.laws)
        for law in laws:
            if not isinstance(law, CountDistribution):
                raise ConfigError(f"offspring entries must be count distributions, got {law!r}")
        object.__setattr__(self, "laws", laws)

    def mean_decay(self) -> FiniteDecay:
        """The per-lag offspring means, as a finite decay law."""
        return FiniteDecay(tuple(law.mean() for law in self.laws))

    def mean_l1(self) -> float:
        return self.mean_decay().total()

    def var_l1(self) -> float:
        return math.fsum(law.variance() for law in self.laws)

    def mean_coefficients(self, upto: int) -> np.ndarray:
        return self.mean_decay().coefficients(upto)

    def var_coefficients(self, upto: int) -> np.ndarray:
        out = np.zeros(upto, dtype=np.float64)
        for k, law in enumerate(self.laws[:upto]):
            out[k] = law.variance()
        return out

    def mean_tail(self, after: int) -> float:
        return self.mean_decay().tail(after)

    def cgf(self, x: float) -> float:
        """sum_k log E[exp(x xi_k)]; +inf past the domain."""
        return _fsum_or_inf(law.log_mgf(x) for law in self.laws)

    def cgf_prime(self, x: float) -> float:
        return _fsum_or_inf(law.log_mgf_prime(x) for law in self.laws)

    def domain_sup(self) -> float:
        """Supremum of the tilts where every lag's log-MGF is finite."""
        return min((law.log_mgf_domain_sup() for law in self.laws), default=math.inf)

    def support_total(self) -> float:
        """Sum of the per-lag support maxima; inf when any lag is unbounded."""
        maxima = [law.support_max() for law in self.laws]
        return math.inf if None in maxima else float(sum(maxima))

    def log_no_offspring(self) -> float:
        """log P(one individual has no offspring at any lag)."""
        return math.fsum(math.log(law.pmf(0)) for law in self.laws)

    def to_spec(self) -> dict:
        return {"type": "explicit", "laws": [law.to_spec() for law in self.laws]}


@dataclass(frozen=True)
class PoissonOffspring:
    """Offspring at lag k distributed Poisson(alpha_k), alpha given by a decay law.

    Summed over the lags, the offspring of one individual is Poisson with
    the total decay mass, so the offspring CGF and its slope are those of
    that single Poisson law.
    """

    decay: DecayLaw

    def law(self, k: int) -> Poisson:
        return Poisson(lam=float(self.decay.coefficients(k)[k - 1]))

    def mean_decay(self) -> DecayLaw:
        return self.decay

    def mean_l1(self) -> float:
        return self.decay.total()

    def var_l1(self) -> float:
        # Poisson variance equals the mean at every lag.
        return self.decay.total()

    def mean_coefficients(self, upto: int) -> np.ndarray:
        return self.decay.coefficients(upto)

    def var_coefficients(self, upto: int) -> np.ndarray:
        return self.decay.coefficients(upto)

    def mean_tail(self, after: int) -> float:
        return self.decay.tail(after)

    def cgf(self, x: float) -> float:
        return Poisson(self.decay.total()).log_mgf(x)

    def cgf_prime(self, x: float) -> float:
        return Poisson(self.decay.total()).log_mgf_prime(x)

    def domain_sup(self) -> float:
        return math.inf

    def support_total(self) -> float:
        return 0.0 if self.decay.total() == 0.0 else math.inf

    def log_no_offspring(self) -> float:
        return -self.decay.total()

    def to_spec(self) -> dict:
        return {"type": "poisson_family", "decay": self.decay.to_spec()}


OffspringSequence = Union[ExplicitOffspring, PoissonOffspring]


@dataclass(frozen=True)
class InarModel:
    immigration: CountDistribution
    offspring: OffspringSequence

    def __post_init__(self):
        if not isinstance(self.immigration, CountDistribution):
            raise ConfigError(f"immigration must be a count distribution, got {self.immigration!r}")
        if not isinstance(self.offspring, (ExplicitOffspring, PoissonOffspring)):
            raise ConfigError(f"offspring must be an offspring sequence, got {self.offspring!r}")

    def to_spec(self) -> dict:
        return {"immigration": self.immigration.to_spec(), "offspring": self.offspring.to_spec()}

    def fingerprint(self) -> str:
        canon = json.dumps(self.to_spec(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def effective_horizon(m: InarModel, tol: float) -> int:
    """Smallest K with total offspring mean beyond lag K below tol.

    Exact for geometric and finite decay, via Hurwitz-zeta tails for power
    laws (which can make K astronomically large).  Raises ConfigError when
    K would pass 2**1023, beyond which the zeta argument overflows a float.
    """
    if tol <= 0.0:
        raise ConfigError(f"tolerance must be positive, got {tol}")
    tail = m.offspring.mean_tail
    if tail(0) < tol:
        return 1
    # Exponential search for an upper bracket, then bisect to the smallest K.
    # A finite lag list has zero tail past its end, which ends the search.
    hi = 1
    while tail(hi) >= tol:
        hi *= 2
        if hi > 2**1023:
            raise ConfigError(f"offspring mean tail still at least {tol} past lag 2**1023")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if tail(mid) < tol:
            hi = mid
        else:
            lo = mid
    return hi


def history_window(m: InarModel, n: int) -> int:
    """Lags of history kept at horizon n: the effective horizon, capped by n - 1.

    The horizon is searched for only when the tail past the cap is below tolerance.
    """
    cap = max(n - 1, 1)
    if m.offspring.mean_tail(cap) >= TRUNCATION_TOL:
        return cap
    return min(effective_horizon(m, TRUNCATION_TOL), cap)


@dataclass(frozen=True)
class AssumptionItem:
    label: str
    holds: bool
    detail: str
    constants: dict


@dataclass(frozen=True)
class AssumptionReport:
    """Which standing assumptions hold, with witnessing constants.

    Labels: (a) subcritical offspring mean with summable offspring
    variance; (b1) lag-k mean bounded by C1 * k**(-3/2); (b2) lag-k mean
    bounded by C2 * k**(-a) for some a > 3/2; (c) finite immigration mean
    and variance.

    Also the model's limit constants, +inf unless (a) holds: the long-run
    mean mu = E[eps] / (1 - mean_l1) and the CLT variance
    sigma2 = (E[eps] var_l1 + Var[eps] (1 - mean_l1)) / (1 - mean_l1)**3.
    """

    items: tuple
    mean_l1: float
    var_l1: float
    mu: float
    sigma2: float

    def item(self, label: str) -> AssumptionItem:
        for it in self.items:
            if it.label == label:
                return it
        raise KeyError(label)

    def holds(self, label: str) -> bool:
        return self.item(label).holds

    def all_hold(self) -> bool:
        return all(it.holds for it in self.items)

    def failed_labels(self) -> list:
        return [it.label for it in self.items if not it.holds]

    def to_dict(self) -> dict:
        return {
            "mean_l1": self.mean_l1,
            "var_l1": self.var_l1,
            "items": [
                {
                    "label": it.label,
                    "holds": it.holds,
                    "detail": it.detail,
                    "constants": it.constants,
                }
                for it in self.items
            ],
        }


def validate(m: InarModel) -> AssumptionReport:
    """Check the standing assumptions, reporting (never raising) violations."""
    mean_l1 = m.offspring.mean_l1()
    var_l1 = m.offspring.var_l1()

    a_holds = mean_l1 < 1.0 and math.isfinite(var_l1)
    a_item = AssumptionItem(
        label="a",
        holds=a_holds,
        detail="offspring mean l1 norm below 1 and offspring variance l1 norm finite",
        constants={"mean_l1": mean_l1, "var_l1": var_l1},
    )

    decay = m.offspring.mean_decay()
    witness_a, tail_note = decay.tail_witness()
    b1_holds = witness_a >= 1.5
    b2_holds = witness_a > 1.5

    b1_item = AssumptionItem(
        label="b1",
        holds=b1_holds,
        detail=f"lag means decay at least like k**(-3/2); {tail_note}",
        constants={"C1": decay.poly_sup(1.5)} if b1_holds else {},
    )
    b2_item = AssumptionItem(
        label="b2",
        holds=b2_holds,
        detail=f"lag means decay like k**(-a) for some a > 3/2; {tail_note}",
        constants={"a": witness_a, "C2": decay.poly_sup(witness_a)} if b2_holds else {},
    )

    imm_mean = m.immigration.mean()
    imm_var = m.immigration.variance()
    c_holds = math.isfinite(imm_mean) and math.isfinite(imm_var)
    c_item = AssumptionItem(
        label="c",
        holds=c_holds,
        detail="immigration mean and variance finite",
        constants={"mean": imm_mean, "variance": imm_var},
    )

    one_minus = 1.0 - mean_l1
    mu = imm_mean / one_minus if a_holds else math.inf
    sigma2 = (imm_mean * var_l1 + imm_var * one_minus) / one_minus**3 if a_holds else math.inf

    return AssumptionReport(
        items=(a_item, b1_item, b2_item, c_item),
        mean_l1=mean_l1,
        var_l1=var_l1,
        mu=mu,
        sigma2=sigma2,
    )


def require_assumptions(m: InarModel, labels=("a", "c")) -> AssumptionReport:
    """Raise AssumptionViolation if any of the named assumptions fails."""
    report = validate(m)
    for label in labels:
        it = report.item(label)
        if not it.holds:
            extras = ", ".join(f"{k}={v}" for k, v in it.constants.items())
            raise AssumptionViolation(label, it.detail + (f" [{extras}]" if extras else ""))
    return report


# Decay type -> (class, spec keys, which are also the constructor arguments)
_DECAY_TYPES = {
    "geometric": (GeometricDecay, ("c", "r")),
    "power_law": (PowerLawDecay, ("c", "a")),
    "finite_list": (FiniteDecay, ("values",)),
}


def _decay_from_spec(obj) -> DecayLaw:
    if not isinstance(obj, dict):
        raise ConfigError(f"decay spec must be an object, got {type(obj).__name__}")
    kind = obj.get("type")
    if kind not in _DECAY_TYPES:
        raise ConfigError(f"unknown decay type {kind!r}")
    cls, keys = _DECAY_TYPES[kind]
    expected = set(keys) | {"type"}
    if set(obj) != expected:
        raise ConfigError(f"bad {kind} decay spec: keys {sorted(obj)} != {sorted(expected)}")
    return cls(**{key: spec_value(obj, key) for key in keys})


def model_from_spec(obj) -> InarModel:
    """Build a model from its JSON object, rejecting unknown keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"model spec must be an object, got {type(obj).__name__}")
    if set(obj) != {"immigration", "offspring"}:
        raise ConfigError(
            f"model spec must have exactly the keys 'immigration' and 'offspring', got {sorted(obj)}"
        )
    immigration = dist_from_spec(obj["immigration"])
    off = obj["offspring"]
    if not isinstance(off, dict) or "type" not in off:
        raise ConfigError("offspring spec must be a tagged object")
    if off["type"] == "explicit":
        if set(off) != {"type", "laws"}:
            raise ConfigError(f"bad explicit offspring spec: keys {sorted(off)}")
        laws = tuple(dist_from_spec(o) for o in spec_value(off, "laws"))
        offspring = ExplicitOffspring(laws=laws)
    elif off["type"] == "poisson_family":
        if set(off) != {"type", "decay"}:
            raise ConfigError(f"bad poisson_family offspring spec: keys {sorted(off)}")
        offspring = PoissonOffspring(decay=_decay_from_spec(off["decay"]))
    else:
        raise ConfigError(f"unknown offspring type {off['type']!r}")
    return InarModel(immigration=immigration, offspring=offspring)
