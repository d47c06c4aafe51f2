"""Catalog of nonnegative-integer-valued distributions.

Every distribution exposes exact closed forms for the mean, variance,
log-MGF (cumulant generating function) and pmf, plus reproducible sampling
through a ``numpy.random.Generator``.  The log-MGF returns ``+inf`` beyond
its domain instead of raising, so callers can bracket root-finding problems
without exception control flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .spec import Spec, from_spec

__all__ = [
    "CountDistribution",
    "Constant",
    "Bernoulli",
    "Binomial",
    "Poisson",
    "Geometric",
    "FiniteSupport",
    "dist_from_spec",
    "log_sum_exp",
]

PROB_SUM_TOL = 1e-12
I64_MAX = int(np.iinfo(np.int64).max)
# the largest mean numpy's Poisson sampler accepts; a larger one raises OverflowError here
POISSON_MEAN_MAX = I64_MAX - 10.0 * math.sqrt(I64_MAX)


def _safe_expm1(t: float) -> float:
    try:
        return math.expm1(t)
    except OverflowError:
        return math.inf


def _safe_exp(t: float) -> float:
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def log_sum_exp(x, weights) -> float:
    """log(sum(weights * exp(x))) for equal-length x and nonnegative weights, without overflow.

    Entries of zero weight are dropped; the rest are shifted by their
    largest x, and the weights are multiplied in rather than added as logs,
    so unit total weight at x = 0 gives exactly 0.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    keep = w > 0.0
    x, w = x[keep], w[keep]
    top = float(x.max(initial=-math.inf))
    if math.isinf(top):
        return top
    return top + math.log(float(np.dot(w, np.exp(x - top))))


def _check_prob(p: float, name: str = "p") -> None:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{name} must be a probability in [0, 1], got {p}")


class CountDistribution(Spec, family="distribution"):
    """Base class: shared sampling, plus defaults for the support and log-MGF domain.

    ``sample`` draws from the distribution, mutating only the generator
    argument; everything else is pure.  ``sample_sum`` draws the sum of
    ``count`` independent copies, by default as ``count`` individual
    variates (exact, O(count) work).

    A law whose every variate is one ``rng.random()`` uniform put through a
    fixed map defines ``from_uniforms(u)``, that map on an array of
    uniforms, and samples through it, so a block of uniforms drawn in one
    call gives the variates that one call per variate would; for every
    other law ``from_uniforms`` is None.
    """

    from_uniforms = None

    def sample_sum(self, rng: np.random.Generator, count: int) -> int:
        if count == 0:
            return 0
        return int(self.sample(rng, size=count).sum())

    def support_min(self) -> int:
        """Smallest attainable value."""
        return 0

    def support_max(self) -> int | None:
        """Largest attainable value, or None when the support is unbounded."""
        return None

    def log_mgf_domain_sup(self) -> float:
        """Supremum of the tilts where the log-MGF is finite."""
        return math.inf


@dataclass(frozen=True)
class Constant(CountDistribution):
    """Point mass at a nonnegative integer."""

    value: int
    SPEC = ("constant", {"value": "value"})

    def __post_init__(self):
        if self.value < 0 or self.value != int(self.value):
            raise ConfigError(f"constant value must be a nonnegative integer, got {self.value}")
        object.__setattr__(self, "value", int(self.value))

    def mean(self) -> float:
        return float(self.value)

    def variance(self) -> float:
        return 0.0

    def log_mgf(self, t: float) -> float:
        if self.value == 0:
            return 0.0
        return self.value * t

    def log_mgf_prime(self, t: float) -> float:
        return float(self.value)

    def pmf(self, k: int) -> float:
        return 1.0 if k == self.value else 0.0

    def support_min(self) -> int:
        return self.value

    def support_max(self) -> int:
        return self.value

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=np.int64)

    def sample_sum(self, rng, count: int) -> int:
        return self.value * count


@dataclass(frozen=True)
class Binomial(CountDistribution):
    """Binomial(m, p) on {0, ..., m}."""

    m: int
    p: float
    SPEC = ("binomial", {"m": "m", "p": "p"})

    def __post_init__(self):
        if self.m < 1 or self.m != int(self.m):
            raise ConfigError(f"binomial m must be a positive integer, got {self.m}")
        _check_prob(self.p)
        object.__setattr__(self, "m", int(self.m))

    def mean(self) -> float:
        return self.m * self.p

    def variance(self) -> float:
        return self.m * self.p * (1.0 - self.p)

    def log_mgf(self, t: float) -> float:
        # log(1 - p + p e^t) per trial, written to stay stable for large |t|;
        # p = 0 and p = 1 are the point masses at 0 and m, where the forms
        # below would take log(0) or log1p(-1)
        if self.p == 0.0:
            return 0.0
        if self.p == 1.0:
            return self.m * t
        if t <= 0.0:
            return self.m * math.log1p(self.p * math.expm1(t))
        return self.m * (t + math.log(self.p + (1.0 - self.p) * math.exp(-t)))

    def log_mgf_prime(self, t: float) -> float:
        if self.p == 0.0:
            return 0.0
        if self.p == 1.0:
            return float(self.m)
        if t <= 0.0:
            et = math.exp(t)
            return self.m * self.p * et / (1.0 - self.p + self.p * et)
        return self.m * self.p / (self.p + (1.0 - self.p) * math.exp(-t))

    def pmf(self, k: int) -> float:
        if k < 0 or k > self.m:
            return 0.0
        logc = math.lgamma(self.m + 1) - math.lgamma(k + 1) - math.lgamma(self.m - k + 1)
        if self.p == 0.0:
            return 1.0 if k == 0 else 0.0
        if self.p == 1.0:
            return 1.0 if k == self.m else 0.0
        return math.exp(logc + k * math.log(self.p) + (self.m - k) * math.log1p(-self.p))

    def support_min(self) -> int:
        return self.m if self.p == 1.0 else 0

    def support_max(self) -> int:
        return self.m if self.p > 0 else 0

    def sample(self, rng, size=None):
        if size is None:
            return int(rng.binomial(self.m, self.p))
        return rng.binomial(self.m, self.p, size=size).astype(np.int64)


@dataclass(frozen=True)
class Bernoulli(Binomial):
    """Bernoulli(p) on {0, 1}: Binomial(1, p), with its own pmf, sampler and spec."""

    m: int = field(default=1, init=False, repr=False)
    SPEC = ("bernoulli", {"p": "p"})

    def pmf(self, k: int) -> float:
        if k == 0:
            return 1.0 - self.p
        if k == 1:
            return self.p
        return 0.0

    def from_uniforms(self, u):
        return u < self.p

    def sample(self, rng, size=None):
        if size is None:
            return int(self.from_uniforms(rng.random()))
        return self.from_uniforms(rng.random(size)).astype(np.int64)


@dataclass(frozen=True)
class Poisson(CountDistribution):
    """Poisson with mean lam."""

    lam: float
    SPEC = ("poisson", {"lambda": "lam"})

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise ConfigError(f"poisson rate must be nonnegative, got {self.lam}")

    def mean(self) -> float:
        return self.lam

    def variance(self) -> float:
        return self.lam

    def log_mgf(self, t: float) -> float:
        if self.lam == 0.0:
            return 0.0
        return self.lam * _safe_expm1(t)

    def log_mgf_prime(self, t: float) -> float:
        if self.lam == 0.0:
            return 0.0
        return self.lam * _safe_exp(t)

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        if self.lam == 0.0:
            return 1.0 if k == 0 else 0.0
        return math.exp(-self.lam + k * math.log(self.lam) - math.lgamma(k + 1))

    def support_max(self) -> int | None:
        return 0 if self.lam == 0.0 else None

    def sample(self, rng, size=None):
        if size is None:
            return int(rng.poisson(self.lam))
        return rng.poisson(self.lam, size=size).astype(np.int64)

    def sample_sum(self, rng, count: int) -> int:
        # Sum of count i.i.d. Poisson(lam) is Poisson(count * lam), exactly.
        if count == 0:
            return 0
        mean = self.lam * count
        if mean > POISSON_MEAN_MAX:
            raise OverflowError(f"Poisson mean {mean:.6g} exceeds the 64-bit integer range")
        return int(rng.poisson(mean))


@dataclass(frozen=True)
class Geometric(CountDistribution):
    """Geometric on {0, 1, 2, ...} with P(k) = (1-p)^k p.

    The zero-inclusive parameterization keeps zero offspring possible,
    which subcriticality requires.  The log-MGF is finite only for
    t < -log(1-p).
    """

    p: float
    SPEC = ("geometric", {"p": "p"})

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"geometric p must lie in (0, 1], got {self.p}")

    def mean(self) -> float:
        return (1.0 - self.p) / self.p

    def variance(self) -> float:
        return (1.0 - self.p) / self.p**2

    def log_mgf_domain_sup(self) -> float:
        if self.p == 1.0:
            return math.inf
        return -math.log1p(-self.p)

    def log_mgf(self, t: float) -> float:
        if self.p == 1.0:
            return 0.0
        if t >= self.log_mgf_domain_sup():
            return math.inf
        # log p - log(1 - (1-p) e^t)
        return math.log(self.p) - math.log1p(-(1.0 - self.p) * math.exp(t))

    def log_mgf_prime(self, t: float) -> float:
        if self.p == 1.0:
            return 0.0
        if t >= self.log_mgf_domain_sup():
            return math.inf
        q_et = (1.0 - self.p) * math.exp(t)
        return q_et / (1.0 - q_et)

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        return (1.0 - self.p) ** k * self.p

    def support_max(self) -> int | None:
        return 0 if self.p == 1.0 else None

    def sample(self, rng, size=None):
        if size is None:
            return int(rng.geometric(self.p)) - 1
        return (rng.geometric(self.p, size=size) - 1).astype(np.int64)


@dataclass(frozen=True)
class FiniteSupport(CountDistribution):
    """Arbitrary law on {0, ..., m} given by its probability vector."""

    probs: tuple
    _cum: np.ndarray = field(init=False, compare=False, repr=False)
    SPEC = ("finite_support", {"probs": "probs"})

    def __post_init__(self):
        probs = tuple(float(q) for q in self.probs)
        if len(probs) == 0:
            raise ConfigError("finite-support probability vector must be nonempty")
        for q in probs:
            _check_prob(q, "probability entry")
        if abs(math.fsum(probs) - 1.0) > PROB_SUM_TOL:
            raise ConfigError(f"finite-support probabilities must sum to 1, got {math.fsum(probs)}")
        object.__setattr__(self, "probs", probs)
        # the inverse-CDF table of ``sample``, built once
        object.__setattr__(self, "_cum", np.cumsum(probs))

    def _values(self) -> np.ndarray:
        return np.arange(len(self.probs), dtype=np.float64)

    def mean(self) -> float:
        return float(np.dot(self._values(), self.probs))

    def variance(self) -> float:
        v = self._values()
        m = float(np.dot(v, self.probs))
        return float(np.dot(v * v, self.probs)) - m * m

    def log_mgf(self, t: float) -> float:
        if math.isinf(t * len(self.probs)):
            # |t| is so large that t * k would overflow: only the extreme support
            # point k in the direction of t counts, and the others add exactly 0
            k = self.support_max() if t > 0 else self.support_min()
            return t * k + math.log(self.probs[k]) if k else math.log(self.probs[0])
        return log_sum_exp(t * self._values(), self.probs)

    def log_mgf_prime(self, t: float) -> float:
        if math.isinf(t * len(self.probs)):
            return float(self.support_max() if t > 0 else self.support_min())
        # the mean under the tilted law, whose weights exp(log p_k + t k - log_mgf(t)) are
        # at most 1, taken over the positive p_k only
        p = np.asarray(self.probs)
        keep = p > 0.0
        v, p = self._values()[keep], p[keep]
        return float(np.dot(v, np.exp(np.log(p) + t * v - log_sum_exp(t * v, p))))

    def pmf(self, k: int) -> float:
        if 0 <= k < len(self.probs):
            return self.probs[k]
        return 0.0

    def support_min(self) -> int:
        return next(k for k, q in enumerate(self.probs) if q > 0.0)

    def support_max(self) -> int:
        nonzero = [k for k, q in enumerate(self.probs) if q > 0.0]
        return nonzero[-1]

    def from_uniforms(self, u):
        # inverse CDF; the clip keeps a uniform above a cumsum rounded below 1 on the support
        return np.minimum(np.searchsorted(self._cum, u, side="right"), len(self.probs) - 1)

    def sample(self, rng, size=None):
        if size is None:
            return int(self.from_uniforms(rng.random()))
        return self.from_uniforms(rng.random(size)).astype(np.int64)


def dist_from_spec(obj) -> CountDistribution:
    """Build a distribution from its tagged JSON object; see ``spec``."""
    return from_spec(obj, "distribution")
