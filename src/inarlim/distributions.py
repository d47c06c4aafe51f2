"""Catalog of nonnegative-integer-valued distributions.

Every distribution exposes exact closed forms for the mean, variance,
log-MGF (cumulant generating function) and pmf, plus reproducible sampling
through a ``numpy.random.Generator``.  The log-MGF returns ``+inf`` beyond
its domain instead of raising, so callers can bracket root-finding problems
without exception control flow.
"""

from __future__ import annotations

import functools
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
    return _log_sum_exp_kept(x[keep], w[keep])


def _log_sum_exp_kept(x: np.ndarray, w: np.ndarray) -> float:
    """``log_sum_exp`` of float arrays whose weights are all positive."""
    top = float(x.max(initial=-math.inf))
    if math.isinf(top):
        return top
    return top + math.log(float(np.dot(w, np.exp(x - top))))


def exact_sum(terms, sign: float) -> float:
    """The exactly rounded sum of the terms (``math.fsum``), or inf signed as ``sign`` on overflow.

    ``fsum`` gives +inf itself when a term is +inf.  Every caller's terms
    share the sign of ``sign`` (log-MGFs at one finite tilt, or their
    slopes), so no sum mixes +inf and -inf, and an overflow has that sign.
    """
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.copysign(math.inf, sign)


def _check_prob(p: float, name: str = "p") -> None:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{name} must be a probability in [0, 1], got {p}")


class CountDistribution(Spec, family="distribution"):
    """Base class: shared sampling, plus defaults for the support and log-MGF domain.

    ``sample`` draws from the distribution, mutating only the generator
    argument; everything else is pure.  ``from_uniforms(u)`` maps each
    uniform on [0, 1) to one variate by inverse CDF (Devroye 1986, ch. II),
    by default on a CDF table over a bounded support (``_cdf``, built on
    first use); ``sample`` reads uniforms through it unless a law samples
    by numpy.  ``inverse_cdf_top()`` bounds the variates of that map from
    the parameters alone, so a caller can see how long a table would be
    before it is built.  ``sample_sum(rng, count)`` draws the sum of
    ``count`` copies from the sum's own law, raising OverflowError past the
    64-bit range.
    """

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum([self.pmf(k) for k in range(self.support_max() + 1)])

    def from_uniforms(self, u):
        # the clip keeps a uniform above a cumsum rounded below 1 on the support
        return np.minimum(np.searchsorted(self._cdf, u, side="right"), len(self._cdf) - 1)

    def sample(self, rng, size=None):
        if size is None:
            return int(self.from_uniforms(rng.random()))
        return self.from_uniforms(rng.random(size)).astype(np.int64)

    def inverse_cdf_top(self) -> float:
        """An upper bound on the variates ``from_uniforms`` returns; it builds no table."""
        return self.support_max()

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
        if not 0 <= self.value < math.inf or self.value != int(self.value):
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

    def from_uniforms(self, u):
        return np.full(np.shape(u), self.value, dtype=np.int64)

    def sample_sum(self, rng, count: int) -> int:
        total = self.value * count
        if total > I64_MAX:
            raise OverflowError(f"sum {total} exceeds the 64-bit integer range")
        return total


@dataclass(frozen=True)
class Binomial(CountDistribution):
    """Binomial(m, p) on {0, ..., m}."""

    m: int
    p: float
    SPEC = ("binomial", {"m": "m", "p": "p"})

    def __post_init__(self):
        if not 1 <= self.m < math.inf or self.m != int(self.m):
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

    def sample_sum(self, rng, count: int) -> int:
        # Binomial(count * m, p); numpy raises OverflowError for trials past the 64-bit range
        return int(rng.binomial(count * self.m, self.p))


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
        # 1 for u < p: the inverse CDF read from the top, as Bernoulli draws always were
        return u < self.p

    sample = CountDistribution.sample  # one uniform a variate, not Binomial's numpy sampler


@dataclass(frozen=True)
class Poisson(CountDistribution):
    """Poisson with mean lam."""

    lam: float
    SPEC = ("poisson", {"lambda": "lam"})

    def __post_init__(self):
        if not self.lam >= 0.0:
            raise ConfigError(f"poisson rate must be nonnegative, got {self.lam}")
        if self.lam == math.inf:
            raise ConfigError("poisson rate must be finite, got inf")

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

    @functools.cached_property
    def _cdf(self) -> np.ndarray:
        """The CDF at 0, 1, ... out to where, past the mode, a term no longer moves it.

        The mass beyond is about the CDF's rounding near 1 (19 entries at lam = 1, 1,268 at 1000).
        """
        cdf, total, k = [], 0.0, 0
        while True:
            term = self.pmf(k)
            if k > self.lam and total + term == total:
                return np.array(cdf)
            total += term
            cdf.append(total)
            k += 1

    def inverse_cdf_top(self) -> float:
        # by Bernstein's inequality a term past this is below 2**-55, and past the mode the CDF
        # is above 1/e, so such a term does not move it: the table ends before this
        return self.lam + 9.0 * math.sqrt(self.lam) + 26.0

    def sample(self, rng, size=None):
        if size is None:
            return int(rng.poisson(self.lam))
        return rng.poisson(self.lam, size=size).astype(np.int64)

    def sample_sum(self, rng, count: int) -> int:
        # count i.i.d. Poisson(lam) sum to Poisson(count * lam), exactly; Poisson(0) draws nothing
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

    def from_uniforms(self, u):
        # closed-form inverse CDF: P(floor(log1p(-u) / log1p(-p)) >= k) = (1 - p)^k, with
        # log1p(-p) = -log_mgf_domain_sup(), -inf at p = 1, where every variate is 0; a variate
        # past the 64-bit range saturates below 2**63 rather than wrapping negative
        k = np.minimum(np.log1p(-u) / -self.log_mgf_domain_sup(), 2.0**63 - 1024.0)
        return np.floor(k).astype(np.int64)

    def inverse_cdf_top(self) -> float:
        # the variate of the largest double below 1, log(2**-53) / log1p(-p)
        return 53.0 * math.log(2.0) / self.log_mgf_domain_sup()

    def sample_sum(self, rng, count: int) -> int:
        # negative binomial: the failures before the count-th success
        try:
            return int(rng.negative_binomial(count, self.p)) if count else 0
        except ValueError as exc:  # numpy's range check on the count and the mean
            raise OverflowError(f"negative binomial sum of {count} exceeds the 64-bit range") from exc


@dataclass(frozen=True)
class FiniteSupport(CountDistribution):
    """Arbitrary law on {0, ..., m} given by its probability vector."""

    probs: tuple
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
        v, p = self._kept
        return _log_sum_exp_kept(t * v, p)

    def log_mgf_prime(self, t: float) -> float:
        if math.isinf(t * len(self.probs)):
            return float(self.support_max() if t > 0 else self.support_min())
        # the mean under the tilted law, whose weights exp(log p_k + t k - log_mgf(t)) are
        # at most 1, taken over the positive p_k only
        v, p = self._kept
        return float(np.dot(v, np.exp(np.log(p) + t * v - self.log_mgf(t))))

    @functools.cached_property
    def _kept(self) -> tuple:
        """The support points of positive probability, as floats, and those probabilities."""
        p = np.asarray(self.probs)
        keep = p > 0.0
        return self._values()[keep], p[keep]

    def pmf(self, k: int) -> float:
        if 0 <= k < len(self.probs):
            return self.probs[k]
        return 0.0

    def support_min(self) -> int:
        return next(k for k, q in enumerate(self.probs) if q > 0.0)

    def support_max(self) -> int:
        nonzero = [k for k, q in enumerate(self.probs) if q > 0.0]
        return nonzero[-1]

    def sample_sum(self, rng, count: int) -> int:
        # sum_k k N_k, the tally N multinomial; numpy raises OverflowError for a count past 2**63
        total = sum(k * int(c) for k, c in enumerate(rng.multinomial(count, self.probs)))
        if total > I64_MAX:
            raise OverflowError(f"sum {total} exceeds the 64-bit integer range")
        return total


def dist_from_spec(obj) -> CountDistribution:
    """Build a distribution from its tagged JSON object; see ``spec``."""
    return from_spec(obj, "distribution")
