"""INAR model definition: immigration law plus offspring sequence.

An ``InarModel`` pairs an immigration distribution with an offspring
sequence, either an explicit finite list of count laws (lag k beyond the
list means zero offspring) or a Poisson family whose per-lag means follow
a decay law.  Construction validates structure only; the standing
assumptions (subcriticality etc.) are checked by :func:`validate` so that
violating models can still be inspected and reported on.

Every count depends on its whole history, and no lag is ever dropped.
The two exact recursions of ``recursions`` each run as one whole-horizon
loop per kernel kind.  ``tilts(theta, f)`` of an offspring sequence
writes the tilts f_1, f_2, ... of the tilt recursion, where f_k is theta
plus the sum over lags i of log E[exp(f_{k-i} xi_i)]: a Poisson family
hands its decay law the sum of expm1(f) (``poisson_tilts``), and a lag
list sums each lag's log-MGF.  ``expansion_tables(variances, n)`` of the
lag means' decay law gives the g1/g2 expansion tables.  A geometric
kernel carries each history sum in one running state, a finite list of
one lag in one product, and power laws and longer lists take one dot
product over the lags they have, except a power law's tables: they come
from their generating functions, 1/(1 - A) by Newton steps on FFT
products (``_series_inverse``).  Each loop stops where its whole state
repeats bit for bit and fills in the rest (see ``DecayLaw``): the output
keeps every bit of the loop run to the horizon.  ``history_sums(u)`` gives the history
sums of a sequence known in advance.  Each offspring sequence also draws a
path itself: ``sample_counts(immigration, n, gen)`` returns X_1..X_n, a lag
list step by step and a Poisson family generation by generation.  A lag
list reads one uniform per variate (``from_uniforms``, an inverse CDF)
from a tape drawn in blocks, none for a Constant, or in a step past
``_TAPE_STEP_MAX`` uniforms draws each lag's sum from the sum's own law
(``sample_sum``), as in every step when a law may pass
``_TAPE_VARIATE_MAX``.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .distributions import I64_MAX, POISSON_MEAN_MAX, Constant, CountDistribution, Poisson, exact_sum
from .errors import AssumptionViolation, ConfigError
from .spec import Spec, from_spec

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
    "require_assumptions",
    "hurwitz_zeta",
]

# Euler-Maclaurin divisors (2j)! / B_2j for j = 1..12, as in Cephes zeta.c
_ZETA_EM_DIVISORS = (
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0, -1.8924375803183791606e9,
    7.47242496e10, -2.950130727918164224e12, 1.1646782814350067249e14,
    -4.5979787224074726105e15, 1.8152105401943546773e17, -7.1661652561756670113e18,
)
_MACHEP = 1.11022302462515654042e-16


def hurwitz_zeta(x: float, q: float) -> float:
    """sum over k >= 0 of (k + q)**(-x), for x > 1 and q >= 1.

    Cephes' zeta.c in its evaluation order, so its values are reproduced
    bitwise: a two-term asymptotic expansion for q > 1e8; otherwise at
    least nine direct terms, continued past k + q = 9, then up to 12
    Euler-Maclaurin corrections; either stage stops once a term falls
    below machine precision relative to the sum.
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


def _same(x: float, y: float) -> bool:
    """Whether two floats are bit for bit the same: 0.0 and -0.0 differ, and nan is never the same."""
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _run_start(f: np.ndarray, k: int, v: float) -> int:
    """The first index j <= k with f[j], ..., f[k - 1] all bit for bit v."""
    while k and _same(f[k - 1], v):
        k -= 1
    return k


def _constant_tilts(theta: float, f: np.ndarray) -> tuple:
    """The tilts without offspring: f_k = theta + 0.0 after the first (see ``poisson_tilts``)."""
    f[0] = theta
    later = theta + 0.0
    if len(f) == 1 or not math.isfinite(later):
        return 1, None
    f[1:] = later
    return len(f), _run_start(f, 1, later)


def _new_tables(n: int) -> tuple:
    """g1, g1^2 and g2 at horizon n, their first entries set to 1, 1 and 0."""
    g1, g1sq, g2 = np.empty(n), np.empty(n), np.empty(n)
    g1[0], g1sq[0], g2[0] = 1.0, 1.0, 0.0
    return g1, g1sq, g2


def _fft_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The product of the series x and y by real FFTs, without wrap-around, zero-padded past it."""
    size = 1 << (len(x) + len(y) - 1).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)


def _series_inverse(b: np.ndarray, n: int) -> np.ndarray:
    """The first n coefficients of 1/B for a series b with b[0] = 1, in O(n log n).

    Newton steps R <- R + R (1 - B R) double the coefficients known (Brent
    and Kung 1978).  With m known, B R is 1 + O(z**m), so its coefficients
    m..2m - 1 come from one cyclic product over 2m points: the terms that
    wrap around land on the first m, which are dropped.
    """
    rfft, irfft = np.fft.rfft, np.fft.irfft
    r = np.ones(1)
    m = 1
    while m < n:
        size = 2 * m
        r_hat = rfft(r, size)
        residual = -irfft(rfft(b[:size], size) * r_hat, size)[m:]
        r = np.concatenate((r, irfft(r_hat * rfft(residual, size), size)[:m]))
        m = size
    return r[:n]


def _running_tables(c: float, r: float, c_var: float, r_var: float, n: int) -> tuple:
    """The expansion tables with each history sum a running sum y_k = r y_{k-1} + c u_{k-1}.

    The lag means are c r**(k-1) and the lag variances c_var r_var**(k-1).
    With r = 0 a sum is c u_{k-1} exactly (0.0 * y adds +0.0 to a
    nonnegative term), the length-1 dot of a one-lag list.  Once the
    six-float state (the three sums, g1, g1^2 and g2) repeats bit for bit,
    the rest of the tables repeats its entries.
    """
    g1, g1sq, g2 = _new_tables(n)
    # item stores from Python floats
    out1, out1sq, out2 = memoryview(g1), memoryview(g1sq), memoryview(g2)
    s1 = s1sq = s2 = 0.0
    a, a_sq, b = 1.0, 1.0, 0.0
    for k in range(1, n):
        t2 = r * s2 + c * b
        t1sq = r_var * s1sq + c_var * a_sq
        t1 = r * s1 + c * a
        # g1, g1^2 and g2 are functions of the three sums, so equal sums are an equal state
        if t1 == s1 and all(map(_same, (t1, t1sq, t2), (s1, s1sq, s2))):
            g1[k:], g1sq[k:], g2[k:] = a, a_sq, b
            break
        s2, s1sq, s1 = t2, t1sq, t1
        b = s2 + 0.5 * s1sq
        a = 1.0 + s1
        a_sq = a * a
        out1[k] = a
        out1sq[k] = a_sq
        out2[k] = b
    return g1, g1sq, g2


class DecayLaw(Spec, family="decay"):
    """Base class of the per-lag mean laws: coefficients, total and the whole-history sums.

    A history sum is y_k = sum over i = 1..k of alpha_i u_{k-i}.
    ``history_sums(u)`` gives every y_k of a sequence u known in advance,
    with y_0 = 0.  The recursions, whose u depends on the y before it, run
    as one loop each:

    * ``poisson_tilts(theta, f)`` writes f_1 = theta, f_k = theta + y_k
      with u = expm1(f) into f, the tilts of a Poisson family with these
      lag means.  An expm1 that overflows is +inf, and +inf at a lag of
      zero mean adds 0.  It stops before the first infinite tilt and
      returns the number of tilts written, and the index from which every
      later tilt is the same float (or None).
    * ``expansion_tables(variances, n)`` gives the tables (g1, g1^2, g2)
      of ``recursions.gbar_tables``, these laws the lag means and
      ``variances`` the lag variances, of the same kind and lags.  The
      tables solve linear renewal equations, so a power law takes them
      from their generating functions by FFT series inversion, in
      O(n log n), and not from a loop.

    Each step of a loop is a fixed float function of its state: the
    running sums and last values of a geometric law, the last L values of
    L lags.  So a state that repeats bit for bit repeats for ever, and the
    loop stops there and fills the rest of its output with the repeated
    values.  Below the critical tilt the geometric and finite-list
    recursions reach their fixed point in floats, within a few hundred
    steps on the usual kernels.  A window of the whole history (a power
    law's tilts) never repeats.
    """


class _DotDecay(DecayLaw):
    """A decay law without a short recurrence: each tilt's history sum is one dot product.

    The dot runs over the lags the law has, up to n - 1 at horizon n
    (``_lags``), as one contiguous dot of the kept values with the reversed
    coefficients.  A loop over L < n - 1 lags stops at L + 1 equal steps
    in full windows; a window of the whole history is never checked.  The
    expansion tables, which are linear, go their own ways: a finite list
    by the same dots (``FiniteDecay``), a power law by series inversion.
    """

    def poisson_tilts(self, theta: float, f: np.ndarray) -> tuple:
        n = len(f)
        alpha_rev = np.ascontiguousarray(self.coefficients(self._lags(n))[::-1])
        if not alpha_rev.any():
            return _constant_tilts(theta, f)
        lags = len(alpha_rev)
        settle_from = lags if lags < n - 1 else n
        u = np.empty(n, dtype=np.float64)  # expm1 of each tilt
        kept, out = memoryview(u), memoryview(f)  # item stores from Python floats
        dot, expm1, isfinite, inf = np.dot, math.expm1, math.isfinite, math.inf
        overflowed = False
        f[0] = last = theta
        for k in range(1, n):
            try:
                e = expm1(last)
            except OverflowError:
                e = inf
            kept[k - 1] = e
            if k >= lags:
                x, a = u[k - lags : k], alpha_rev
            else:
                x, a = u[:k], alpha_rev[lags - k :]
            if e == inf:
                overflowed = True
            if not overflowed:
                s = float(dot(x, a))
            else:
                # an infinite value at a lag with zero mean adds 0, where the dot would give nan
                hit = x == inf
                s = inf if (a[hit] > 0.0).any() else float(dot(np.where(hit, 0.0, x), a))
            new = theta + s
            if not isfinite(new):
                return k, None
            # a full window of lags + 1 equal tilts: the next window is this one again
            if k >= settle_from and new == last and k - (j := _run_start(f, k, new)) >= lags:
                f[k:] = new
                return n, j
            out[k] = last = new
        return n, None


@dataclass(frozen=True)
class GeometricDecay(DecayLaw):
    """Coefficients c * r**(k-1); total mass c / (1 - r)."""

    c: float
    r: float
    SPEC = ("geometric", {"c": "c", "r": "r"})

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise ConfigError(f"decay scale must be nonnegative and finite, got {self.c}")
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"geometric decay ratio must lie in (0, 1), got {self.r}")

    def coefficients(self, upto: int) -> np.ndarray:
        return self.c * self.r ** np.arange(upto, dtype=np.float64)

    def total(self) -> float:
        return self.c / (1.0 - self.r)

    def poly_sup(self, power: float) -> float:
        """sup over k >= 1 of k**power * c * r**(k-1)."""
        if self.c == 0.0:
            return 0.0
        k_star = -power / math.log(self.r)
        return max(
            k**power * self.c * self.r ** (k - 1)
            for k in {1, max(1, math.floor(k_star)), math.ceil(k_star)}
        )

    def decay_witness(self) -> tuple:
        """(exponent a of a witnessing k**(-a) bound, description of the tail)."""
        return 2.0, "geometric decay dominates every polynomial"

    def poisson_tilts(self, theta: float, f: np.ndarray) -> tuple:
        """y_k = r y_{k-1} + c expm1(f_{k-1}): one state variable carries the whole history.

        The loop stops once the state (y_k, f_k) repeats bit for bit.
        """
        if self.c == 0.0:
            return _constant_tilts(theta, f)
        c, r = self.c, self.r
        n = len(f)
        out = memoryview(f)  # item stores from Python floats
        expm1, isfinite = math.expm1, math.isfinite
        s = 0.0
        f[0] = last = theta
        for k in range(1, n):
            prev = s
            try:
                s = r * s + c * expm1(last)
            except OverflowError:
                return k, None  # c * inf makes f_k infinite
            # f_1 is theta itself, not theta + 0.0 (which differs at theta = -0.0)
            if s == prev and _same(s, prev) and _same(theta + s, last):
                f[k:] = last
                return n, _run_start(f, k, last)
            last = theta + s
            if not isfinite(last):
                return k, None
            out[k] = last
        return n, None

    def expansion_tables(self, variances: GeometricDecay, n: int) -> tuple:
        """Three running sums, one per history."""
        return _running_tables(self.c, self.r, variances.c, variances.r, n)

    def history_sums(self, u: np.ndarray) -> np.ndarray:
        """The running sum y_k = r y_{k-1} + c u_{k-1}, one Python float step per entry."""
        y = np.zeros(len(u), dtype=np.float64)
        if self.c == 0.0:
            return y
        c, r = self.c, self.r
        s, sums = 0.0, []
        for v in u[:-1].tolist():
            s = r * s + c * v
            sums.append(s)
        y[1:] = sums
        return y


@dataclass(frozen=True)
class PowerLawDecay(_DotDecay):
    """Coefficients c * k**(-a) with a > 1; total mass c * zeta(a).

    Its history sums and expansion tables are FFT series products (the
    tables by series inversion), and its tilts the dot loop of ``_DotDecay``.
    """

    c: float
    a: float
    SPEC = ("power_law", {"c": "c", "a": "a"})

    def __post_init__(self):
        if not 0.0 <= self.c < math.inf:
            raise ConfigError(f"decay scale must be nonnegative and finite, got {self.c}")
        if not 1.0 < self.a < math.inf:
            raise ConfigError(
                f"power-law exponent must be finite and exceed 1 for a summable series, got {self.a}"
            )

    def coefficients(self, upto: int) -> np.ndarray:
        return self.c * np.arange(1, upto + 1, dtype=np.float64) ** (-self.a)

    def total(self) -> float:
        return self.c * hurwitz_zeta(self.a, 1.0)

    def _lags(self, n: int) -> int:
        return n - 1

    def history_sums(self, u: np.ndarray) -> np.ndarray:
        """One FFT convolution of u with the n - 1 coefficients: O(n log n) where a direct one is O(n**2).

        Each sum's rounding error is a few ulps of the largest sum, not of
        itself, so a sum far below the others may lose its digits or come
        out just below 0.
        """
        n = len(u)
        y = np.zeros(n, dtype=np.float64)
        if n < 2 or self.c == 0.0:
            return y
        y[1:] = _fft_product(u[:-1], self.coefficients(n - 1))[: n - 1]
        return y

    def expansion_tables(self, variances: PowerLawDecay, n: int) -> tuple:
        """The tables from their generating functions, by FFT products: O(n log n).

        With A and V the series of the lag means and variances and
        R = 1/(1 - A), G1 = z/((1 - z)(1 - A)) makes g1 the running sum of
        R, and g2 is R times (1/2) V g1^2, shifted one lag.  The products
        round each entry to within a few ulps of its table's limit, not of
        itself, so the loop's bits are not kept.  Without mass the tables
        are exactly 1, 1 and 0.
        """
        g1, g1sq, g2 = _new_tables(n)
        if self.c == 0.0:
            g1[1:], g1sq[1:], g2[1:] = 1.0, 1.0, 0.0
            return g1, g1sq, g2
        r = _series_inverse(np.concatenate(([1.0], -self.coefficients(n - 1))), n)
        g1[1:] = np.cumsum(r)[1:]
        g1sq[1:] = g1[1:] * g1[1:]
        lagged = np.zeros(n)  # (1/2) sum over i = 1..k of V_i g1(k + 1 - i)^2 at index k
        lagged[1:] = 0.5 * _fft_product(variances.coefficients(n - 1), g1sq[:-1])[: n - 1]
        g2[1:] = _fft_product(r, lagged)[1:n]
        return g1, g1sq, g2

    def poly_sup(self, power: float) -> float:
        """sup over k >= 1 of k**power * c * k**(-a): attained at k = 1 unless power > a."""
        if self.c == 0.0:
            return 0.0
        return math.inf if power > self.a else self.c

    def decay_witness(self) -> tuple:
        return self.a, f"power-law decay with exponent {self.a}"


@dataclass(frozen=True)
class FiniteDecay(_DotDecay):
    """Explicit finite list of nonnegative coefficients, zero beyond."""

    values: tuple
    SPEC = ("finite_list", {"values": "values"})

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        for v in vals:
            if not 0.0 <= v < math.inf:
                raise ConfigError(f"decay coefficients must be nonnegative and finite, got {v}")
        object.__setattr__(self, "values", vals)

    def coefficients(self, upto: int) -> np.ndarray:
        out = np.zeros(upto, dtype=np.float64)
        head = min(upto, len(self.values))
        out[:head] = self.values[:head]
        return out

    def total(self) -> float:
        return math.fsum(self.values)

    def _lags(self, n: int) -> int:
        return min(n - 1, len(self.values))

    def expansion_tables(self, variances: FiniteDecay, n: int) -> tuple:
        """One lag by plain float products, which a length-1 dot gives exactly.

        More lags take three contiguous dots a step over the lags the laws
        have, until lags + 1 entries repeat.
        """
        if len(self.values) == 1:
            (mean,), (var,) = self.values, variances.values
            return _running_tables(mean, 0.0, var, 0.0, n)
        lags = self._lags(n)
        mean_rev = np.ascontiguousarray(self.coefficients(lags)[::-1])
        var_rev = np.ascontiguousarray(variances.coefficients(lags)[::-1])
        g1, g1sq, g2 = _new_tables(n)
        out1, out1sq, out2 = memoryview(g1), memoryview(g1sq), memoryview(g2)
        dot = np.dot
        a, b = 1.0, 0.0
        for k in range(1, n):
            if k >= lags:
                lo, a_mean, a_var = k - lags, mean_rev, var_rev
            else:
                lo, a_mean, a_var = 0, mean_rev[lags - k :], var_rev[lags - k :]
            new_b = float(dot(g2[lo:k], a_mean)) + 0.5 * float(dot(g1sq[lo:k], a_var))
            new_a = 1.0 + float(dot(g1[lo:k], a_mean))
            # g1^2 is a function of g1, so equal (g1, g2) pairs are equal triples
            if k >= lags and new_a == a and new_b == b:
                if k - max(_run_start(g1, k, new_a), _run_start(g2, k, new_b)) >= lags:
                    g1[k:], g1sq[k:], g2[k:] = new_a, new_a * new_a, new_b
                    break
            a, b = new_a, new_b
            out1[k] = a
            out1sq[k] = a * a
            out2[k] = b
        return g1, g1sq, g2

    def history_sums(self, u: np.ndarray) -> np.ndarray:
        """One direct convolution of u with the listed coefficients: O(n L) for L lags, exact zeros kept."""
        n = len(u)
        y = np.zeros(n, dtype=np.float64)
        alpha = self.coefficients(self._lags(n))
        if alpha.size:
            y[1:] = np.convolve(u, alpha)[: n - 1]
        return y

    def poly_sup(self, power: float) -> float:
        return max((k**power * v for k, v in enumerate(self.values, start=1)), default=0.0)

    def decay_witness(self) -> tuple:
        return 2.0, "finitely many nonzero lags, tail conditions hold trivially"


# A Poisson family draws a generation child by child while its expected children are at
# most this many per step, and by child time beyond, so a generation's entries stay O(n).
_PER_CHILD_LIMIT = 4


# A lag-list tape draws blocks of 2n + 64 uniforms, at most this many, so a short path
# builds no tables it will not read and a long one keeps no tables of millions of ints.
_TAPE_BLOCK_MAX = 4096
# Past this many uniforms a lag-list step draws sum laws, so its memory is bounded at any count.
_TAPE_STEP_MAX = 2**20
# A lag list with a law whose variates may pass this draws sum laws at every step: no inverse-CDF
# table is longer, and no int64 sum of a step's variates, at most 2**36, can wrap.
_TAPE_VARIATE_MAX = 2**16


def _counts_from_tape(immigration: CountDistribution, tape_lags: tuple, n: int, gen) -> np.ndarray:
    """X_1..X_n of a lag list, from a tape of uniforms, one per variate (``from_uniforms``).

    Step t reads one uniform for the immigration, then x[t - i] for lag i;
    a Constant reads none, and its c parents add c * value.  Each block of
    uniforms becomes Python tables, the immigration's draws and the prefix
    sums of each other lag law's draws, so a lag's offspring sum is one
    difference; unread uniforms carry over.  A list of one drawn lag (an
    INAR(1)) keeps the last count in a local and reads the two tables
    directly, with the same draws.  A step needing more than a block reads
    its own uniforms, summed by numpy, and one past ``_TAPE_STEP_MAX``, or
    any step of a list with a law past ``_TAPE_VARIATE_MAX``
    (``inverse_cdf_top``), draws each sum by ``sample_sum``.
    ``tape_lags`` is ``ExplicitOffspring._tape_lags``.
    """
    drawn, values, tape_laws, top = tape_lags
    lags, points, reads = len(drawn), not all(drawn), int(not isinstance(immigration, Constant))
    block, step_max = min(2 * n + 64, _TAPE_BLOCK_MAX), _TAPE_STEP_MAX
    if max(top, immigration.inverse_cdf_top() if reads else 0) > _TAPE_VARIATE_MAX:
        block = step_max = -1  # every step, even one reading no uniform, draws sum laws
    tape = np.empty(0)

    def past_block(pos: int, end: int, counts, fixed: int, step: int) -> int:
        """The count of a step that needs more than a block, from its own uniforms or the sum laws."""
        need = reads + sum(counts)
        if need > step_max:
            total = immigration.sample_sum(gen, 1)
            total += sum(law.sample_sum(gen, c) for law, c in zip(tape_laws, counts))
        else:
            u = np.concatenate((tape[pos:], gen.random(need - (end - pos))))
            total, at = int(immigration.from_uniforms(u[0])), reads
            for law, c in zip(tape_laws, counts):
                total += int(law.from_uniforms(u[at : at + c]).sum())
                at += c
        total += fixed
        if total > I64_MAX:
            raise OverflowError(f"count at step {step} exceeds the 64-bit integer maximum")
        return total

    def refill(pos: int) -> tuple:
        """A block after the unread uniforms from pos: its length, the immigration draws, the prefix sums."""
        nonlocal tape
        tape = np.concatenate((tape[pos:], gen.random(block)))
        sums = []
        for law in tape_laws:
            prefix = np.zeros(len(tape) + 1, dtype=np.int64)
            np.cumsum(law.from_uniforms(tape), out=prefix[1:])
            sums.append(prefix.tolist())
        return len(tape), immigration.from_uniforms(tape).tolist(), sums

    pos = end = 0
    x = []
    if lags == 1 and not points:
        c = 0  # the last count
        for _ in range(n):
            need = reads + c
            if pos + need >= end:  # so that imm[pos] is there when a step reads no uniform
                if need > block:
                    c = past_block(pos, end, x[-1:], 0, len(x) + 1)
                    x.append(c)
                    pos = end  # the block is read up, or dropped
                    continue
                end, imm, (prefix,) = refill(pos)
                pos = 0
            at = pos + reads
            pos = at + c
            c = imm[at - reads] + prefix[pos] - prefix[at]
            x.append(c)
        return np.array(x, dtype=np.int64)
    fixed = 0
    for _ in range(n):
        counts = x[: -lags - 1 : -1]  # lag 1, lag 2, ...
        if points:  # Constant lags read no uniform: they add c * value, and drop out of the counts
            counts, fixed = list(itertools.compress(counts, drawn)), sum(map(operator.mul, counts, values))
            if fixed > I64_MAX:
                raise OverflowError(f"count at step {len(x) + 1} exceeds the 64-bit integer maximum")
        need = reads + sum(counts)
        if pos + need >= end:
            if need > block:
                x.append(past_block(pos, end, counts, fixed, len(x) + 1))
                pos = end
                continue
            end, imm, sums = refill(pos)
            pos = 0
        total = imm[pos] + fixed
        pos += reads
        for prefix, c in zip(sums, counts):
            total += prefix[pos + c] - prefix[pos]
            pos += c
        x.append(total)
    return np.array(x, dtype=np.int64)


def _add_births(x: np.ndarray, at, counts: np.ndarray) -> None:
    """x[at] += counts, where at indexes x; OverflowError where a count would pass the 64-bit maximum."""
    past = x[at]
    wrap = counts > I64_MAX - past
    if wrap.any():
        step = np.arange(x.size)[at][wrap.argmax()] + 1
        raise OverflowError(f"count at step {step} exceeds the 64-bit integer maximum")
    x[at] = past + counts


class OffspringSequence(Spec, family="offspring"):
    """Base class of the offspring sequences: the lag means and variances as decay laws.

    ``mean_decay()`` gives E[xi_k] and ``var_decay()`` gives Var[xi_k] at
    each lag k, so their history sums serve the expansion tables and the
    conditional means.  Each subclass runs the tilt recursion
    (``tilts(theta, f)``, see the module docstring) and draws paths
    (``sample_counts``) in its own way.
    """

    def mean_l1(self) -> float:
        return self.mean_decay().total()

    def var_l1(self) -> float:
        return self.var_decay().total()


@dataclass(frozen=True)
class ExplicitOffspring(OffspringSequence):
    """Offspring laws given lag by lag; lags beyond the list produce nothing."""

    laws: tuple
    _means: FiniteDecay = field(init=False, compare=False, repr=False)
    _variances: FiniteDecay = field(init=False, compare=False, repr=False)
    SPEC = ("explicit", {"laws": "laws"})

    def __post_init__(self):
        laws = tuple(self.laws)
        for law in laws:
            if not isinstance(law, CountDistribution):
                raise ConfigError(f"offspring entries must be count distributions, got {law!r}")
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "_means", FiniteDecay(tuple(law.mean() for law in laws)))
        object.__setattr__(self, "_variances", FiniteDecay(tuple(law.variance() for law in laws)))

    def mean_decay(self) -> FiniteDecay:
        """The per-lag offspring means, as a finite decay law built once."""
        return self._means

    def var_decay(self) -> FiniteDecay:
        """The per-lag offspring variances, as a finite decay law built once."""
        return self._variances

    def cgf(self, x: float) -> float:
        """sum_k log E[exp(x xi_k)]; +inf past the domain."""
        return exact_sum((law.log_mgf(x) for law in self.laws), x)

    def cgf_prime(self, x: float) -> float:
        return exact_sum((law.log_mgf_prime(x) for law in self.laws), 1.0)

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

    def tilts(self, theta: float, f: np.ndarray) -> tuple:
        """f_k = theta + the sum over lags i = 1..min(k - 1, len(laws)) of log E[exp(f_{k-i} xi_i)].

        The sum runs in lag order and stops as soon as it reaches +inf.
        With several lags the last len(laws) tilts are kept as Python
        floats, most recent first.  The loop stops at len(laws) + 1 equal
        tilts, the window of the next step then being this one's again.
        Returns what ``DecayLaw.poisson_tilts`` returns.
        """
        log_mgfs = [law.log_mgf for law in self.laws]
        n, lags = len(f), len(log_mgfs)
        out = memoryview(f)  # item stores from Python floats
        isfinite, inf = math.isfinite, math.inf
        f[0] = last = theta
        if lags == 1:
            # same bits as the loop below, whose sum starts at 0.0 (so a -0.0 log-MGF
            # adds +0.0); the loop's deque and zip cost an AR(1) about a third of its time
            (only,) = log_mgfs
            for k in range(1, n):
                prev, last = last, theta + (0.0 + only(last))
                if last == prev and _same(last, prev):
                    f[k:] = last
                    return n, k - 1  # f[k - 2] differs, or the loop had stopped a step earlier
                if not isfinite(last):
                    return k, None
                out[k] = last
            return n, None
        recent = collections.deque(maxlen=lags)
        for k in range(1, n):
            recent.appendleft(last)
            s = 0.0
            for log_mgf, x in zip(log_mgfs, recent):
                s += log_mgf(x)
                if s == inf:
                    break
            new = theta + s
            if not isfinite(new):
                return k, None
            if new == last and k >= lags and k - (j := _run_start(f, k, new)) >= lags:
                f[k:] = new
                return n, j
            out[k] = last = new
        return n, None

    def sample_counts(self, immigration: CountDistribution, n: int, gen) -> np.ndarray:
        """Draw X_1..X_n one step at a time, from a tape of uniforms (``_counts_from_tape``)."""
        return _counts_from_tape(immigration, self._tape_lags, n, gen)

    @functools.cached_property
    def _tape_lags(self) -> tuple:
        """Which lags read the tape (all but Constants), each Constant's value (0 elsewhere), the
        laws that read it, and the largest of their ``inverse_cdf_top``: worked out once per list."""
        drawn = tuple(not isinstance(law, Constant) for law in self.laws)
        tape_laws = tuple(itertools.compress(self.laws, drawn))
        values = tuple(0 if d else law.value for law, d in zip(self.laws, drawn))
        return drawn, values, tape_laws, max((law.inverse_cdf_top() for law in tape_laws), default=0)


@dataclass(frozen=True)
class PoissonOffspring(OffspringSequence):
    """Offspring at lag k distributed Poisson(alpha_k), alpha given by a decay law.

    Summed over the lags, the offspring of one individual is Poisson with
    the total decay mass, so the offspring CGF and its slope are those of
    that single Poisson law.
    """

    decay: DecayLaw
    SPEC = ("poisson_family", {"decay": "decay"})

    def __post_init__(self):
        if not isinstance(self.decay, DecayLaw):
            raise ConfigError(f"a Poisson family's decay must be a decay law, got {self.decay!r}")

    def mean_decay(self) -> DecayLaw:
        return self.decay

    def var_decay(self) -> DecayLaw:
        # Poisson variance equals the mean at every lag.
        return self.decay

    def cgf(self, x: float) -> float:
        return self._total_law.log_mgf(x)

    def cgf_prime(self, x: float) -> float:
        return self._total_law.log_mgf_prime(x)

    @functools.cached_property
    def _total_law(self) -> Poisson:
        """The offspring of one individual over all lags: Poisson with the decay's total mass, built once."""
        return Poisson(self.decay.total())

    def domain_sup(self) -> float:
        return math.inf

    def support_total(self) -> float:
        return 0.0 if self._total_law.lam == 0.0 else math.inf

    def log_no_offspring(self) -> float:
        return -self._total_law.lam

    def tilts(self, theta: float, f: np.ndarray) -> tuple:
        """The decay law's loop: sum_i alpha_i expm1(f_{k-i}) is sum_i log E[exp(f_{k-i} xi_i)]."""
        return self.decay.poisson_tilts(theta, f)

    def sample_counts(self, immigration: CountDistribution, n: int, gen) -> np.ndarray:
        """Draw X_1..X_n one generation at a time (the cluster representation).

        Generation 0 is the immigration, drawn in one call and held as
        (times, counts): a time s holding c individuals has Poisson(c A(h))
        children, where h = n - 1 - s is the number of lags left and
        A(h) = alpha_1 + ... + alpha_h.  Later generations are held child by
        child, each child born at s having Poisson(A(h)) children, the same
        law summed over the c children born at s.  Each child's lag is
        k <= h with probability alpha_k / A(h), drawn by inverse CDF on the
        cumsum, and births are tallied into the counts by ``np.bincount``
        once about n of them wait.  This is exact in law over the whole
        history, and there are at most n generations.  A generation whose
        expected children exceed ``_PER_CHILD_LIMIT`` per step is drawn by
        child time instead (``_children_by_time``), so no generation holds
        more than O(n) entries however large the counts grow.

        A Poisson mean or a count past the 64-bit range raises OverflowError.
        """
        x = immigration.sample(gen, size=n)
        cum = np.zeros(n, dtype=np.float64)  # cum[h] = A(h), with A(0) = 0
        np.cumsum(self.decay.coefficients(n - 1), out=cum[1:])
        mass_left = cum[::-1]  # mass_left[s] = A(n - 1 - s), the mass of the lags left after s
        times = np.flatnonzero(x[:-1])
        counts = x[times]  # None while the generation is held child by child
        waiting, held = [], 0
        while times.size:
            mass = mass_left[times]
            lam = mass if counts is None else counts * mass
            if lam.sum() > _PER_CHILD_LIMIT * n:
                if counts is None:
                    times, counts = np.unique(times, return_counts=True)
                times, counts = self._children_by_time(times, counts, n, gen)
                _add_births(x, times, counts)
                continue
            kids = gen.poisson(lam)
            times = np.repeat(times, kids)
            u = gen.random(times.size) * np.repeat(mass, kids)
            # the lag k with A(k - 1) <= u < A(k); u < 1 keeps u * A(h) below A(h), so k <= h
            # (a child is only ever drawn where A(h) is a normal float)
            times += np.searchsorted(cum, u, side="right")
            counts = None
            waiting.append(times)
            held += times.size
            if held >= n:
                _add_births(x, slice(None), np.bincount(np.concatenate(waiting), minlength=n))
                waiting, held = [], 0
        if held:
            _add_births(x, slice(None), np.bincount(np.concatenate(waiting), minlength=n))
        return x

    def _children_by_time(self, times: np.ndarray, counts: np.ndarray, n: int, gen) -> tuple:
        """The next generation as (times, counts), one Poisson draw per child time.

        By Poisson splitting and superposition, the children born at time t
        are Poisson(sum over parents s of c_s alpha_{t-s}): the decay law's
        history sum of the parents' counts, taken from the first parent on
        (a power law's FFT sum may round a tiny rate below 0, read as 0).
        """
        lo = times[0]
        parents = np.zeros(n - lo, dtype=np.float64)
        parents[times - lo] = counts
        rate = self.decay.history_sums(parents)
        if rate.max() > POISSON_MEAN_MAX:
            at = lo + rate.argmax() + 1
            raise OverflowError(f"offspring mean at step {at} exceeds the 64-bit integer range")
        born = gen.poisson(np.maximum(rate, 0.0))
        at = np.flatnonzero(born)
        return lo + at, born[at]


@dataclass(frozen=True)
class InarModel(Spec, family="model"):
    immigration: CountDistribution
    offspring: OffspringSequence
    _fingerprint: str | None = field(default=None, init=False, compare=False, repr=False)
    _assumptions: AssumptionReport | None = field(default=None, init=False, compare=False, repr=False)
    SPEC = (None, {"immigration": "immigration", "offspring": "offspring"})

    def __post_init__(self):
        if not isinstance(self.immigration, CountDistribution):
            raise ConfigError(f"immigration must be a count distribution, got {self.immigration!r}")
        if not isinstance(self.offspring, OffspringSequence):
            raise ConfigError(f"offspring must be an offspring sequence, got {self.offspring!r}")

    def fingerprint(self) -> str:
        """The first 16 hex digits of the SHA-256 of the canonical spec, computed once: the model is frozen."""
        if self._fingerprint is None:
            canon = json.dumps(self.to_spec(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_fingerprint", hashlib.sha256(canon.encode()).hexdigest()[:16])
        return self._fingerprint


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
    """Check the standing assumptions, reporting (never raising) violations.

    The report is computed once per model and shared by every later call:
    the model is frozen, and no caller changes a report.
    """
    if m._assumptions is None:
        object.__setattr__(m, "_assumptions", _check_assumptions(m))
    return m._assumptions


def _check_assumptions(m: InarModel) -> AssumptionReport:
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
    witness_a, tail_note = decay.decay_witness()
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


def model_from_spec(obj) -> InarModel:
    """Build a model from its JSON object; see ``spec``."""
    return from_spec(obj, "model")
