"""Simulation of Poisson and self-exciting (Hawkes) processes on (0, T].

Homogeneous processes are generated from exponential inter-arrivals via
inversion; non-homogeneous ones by thinning against a user-supplied
piecewise-constant dominating envelope; Hawkes paths by thinning against
the left-continuous conditional intensity, whose bound is refreshed
after every accepted event and every rejected time advance.
"""

from __future__ import annotations

import bisect
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .core import (
    EnvelopeError,
    EventTimes,
    ParameterError,
    RngStream,
    _check_array_size,
    _count,
    _non_negative,
    _positive,
)

__all__ = [
    "Branching",
    "ExponentialKernel",
    "HawkesModel",
    "IntensityFn",
    "PowerLawKernel",
    "branching_factor",
    "expected_cluster_size",
    "hawkes_intensity",
    "nhpp_mean",
    "poisson_count_pmf",
    "simulate_hawkes",
    "simulate_hpp",
    "simulate_nhpp",
]

# dominance checks tolerate this much relative rounding noise
_DOMINANCE_RTOL = 1e-12
# envelope segments per period of IntensityFn.sinusoid
_SINUSOID_SEGMENTS = 16


def poisson_count_pmf(rate: float, a: float, b: float, n: int) -> float:
    """P(N has exactly n points in (a, b]) for a homogeneous process.

    With mean mu, Loader's saddle-point form (C. Loader, "Fast and Accurate
    Computation of Binomial Probabilities", 2000): exp(-stirlerr(n) -
    bd0(n, mu)) / sqrt(2 pi n), where the Stirling error and the deviance
    bd0 = n ln(n / mu) + mu - n are each found without the cancellation of
    n ln(mu) - mu - ln(n!).  A mean that rounds to 0 or inf, or n past
    every float, gives the limit.
    """
    rate = _positive(rate)
    a, b = float(a), float(b)
    if not (0.0 <= a < b) or not math.isfinite(b):
        raise ParameterError(f"interval must satisfy 0 <= a < b, got ({a}, {b})")
    n = _count(n, "count")
    mu = rate * (b - a)
    if n == 0:
        return math.exp(-mu)
    if not 0.0 < mu < math.inf:
        return 0.0
    try:
        x = float(n)
    except OverflowError:  # n past every float, where the pmf is 0
        return 0.0
    num, den = mu.as_integer_ratio()
    d = (n * den - num) / den  # n - mu rounded once, even where x is not n
    return math.exp(-_stirling_error(x) - _deviance(x, mu, d)) / (
        math.sqrt(math.tau) * math.sqrt(x))


# ln(n!) - ln(sqrt(2 pi n) (n / e)**n) at n = 0, 1, ..., 15
_STIRLING_ERRORS = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _stirling_error(x: float) -> float:
    """ln(x!) - ln(sqrt(2 pi x) (x / e)**x) for a whole x >= 0: a table up
    to 15, then five terms of Stirling's series, whose sixth is below an
    ulp of it."""
    if x < len(_STIRLING_ERRORS):
        return _STIRLING_ERRORS[int(x)]
    xx = x * x
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / xx) / xx) / xx) / xx) / x


def _deviance(x: float, mu: float, d: float) -> float:
    """x ln(x / mu) + mu - x for x, mu > 0 and d = x - mu: Loader's bd0.

    Near mu, a series in v = d / (x + mu), whose terms shrink by v**2:
    the direct form would cancel.  Halves keep x + mu from overflowing.
    """
    half = 0.5 * x + 0.5 * mu
    if abs(d) >= 0.2 * half:
        return x * math.log(x / mu) - d
    v = 0.5 * d / half
    total, term, v2, j = d * v, 2.0 * (x * v), v * v, 3
    while True:
        term *= v2
        more = total + term / j
        if more == total:
            return total
        total, j = more, j + 2


def simulate_hpp(rate: float, horizon: float, rng: RngStream) -> EventTimes:
    """Homogeneous Poisson path: cumulative -log(u)/rate arrivals.

    The first arrival past the horizon is drawn and discarded; the stream
    ends at a whole block of `rng.uniform_draws()`, as in every simulator.
    """
    rate = _positive(rate)
    horizon = _positive(horizon, "horizon")
    times = []
    t = 0.0
    for u in rng.uniform_draws():
        t += -math.log(u) / rate
        if t > horizon:
            break
        times.append(t)
    return EventTimes(times, horizon)


class IntensityFn:
    """Deterministic rate function with a dominating step envelope.

    The envelope is a contiguous sequence of ``(t_start, t_end, bound)``
    segments starting at 0; it must satisfy bound >= rate everywhere on
    its segment.  Constructing from a user callable spot-checks
    dominance on a 1000-point grid per segment (plus the endpoints) and
    rejects envelopes that fail, but a sampling check cannot catch every
    violation: the simulator re-checks at each candidate point and
    raises EnvelopeError if the envelope lied.  The built-in shapes
    (`constant`, `piecewise`, `sinusoid`) skip the sampling, because
    their envelopes are exact by construction.  The envelope is
    validated once and kept as a tuple; `segments()`, `horizon` and
    `max_bound` read it.
    """

    _CHECK_POINTS = 1000

    def __init__(self, fn: Callable[[float], float], envelope: Sequence[tuple]):
        self._set(fn, envelope)
        self._check_dominance()

    @classmethod
    def _exact(cls, fn: Callable[[float], float], envelope: Sequence[tuple]) -> "IntensityFn":
        """A built-in shape, whose envelope dominates by construction."""
        self = cls.__new__(cls)
        self._set(fn, envelope)
        return self

    def _set(self, fn: Callable[[float], float], envelope: Sequence[tuple]):
        segs = [(float(a), float(b), float(u)) for a, b, u in envelope]
        if not segs:
            raise ParameterError("envelope must have at least one segment")
        if segs[0][0] != 0.0:
            raise ParameterError("envelope must start at t=0")
        for i, (a, b, u) in enumerate(segs):
            if not (math.isfinite(b) and b > a):
                raise ParameterError(f"envelope segment {i} must have t_end > t_start")
            if not (math.isfinite(u) and u >= 0.0):
                raise ParameterError(f"envelope bound {i} must be finite and >= 0")
            if i and a != segs[i - 1][1]:
                raise ParameterError(f"envelope has a gap/overlap before segment {i}")
        self._fn = fn
        self._envelope = tuple(segs)
        self.horizon = segs[-1][1]
        self.max_bound = max(u for _, _, u in segs)

    def _check_dominance(self):
        for a, b, u in self._envelope:
            ts = np.linspace(a, b, self._CHECK_POINTS + 2)
            # segments are half-open on the right: check the left limit
            ts[-1] = a + (b - a) * (1.0 - 1e-12)
            for t in ts:
                v = float(self._fn(t))
                if not math.isfinite(v) or v < 0.0:
                    raise ParameterError(f"intensity is negative or non-finite at t={t}")
                if v > u * (1.0 + _DOMINANCE_RTOL):
                    raise ParameterError(
                        f"envelope bound {u} does not dominate intensity {v} at t={t}"
                    )

    def __call__(self, t: float) -> float:
        t = float(t)
        if not 0.0 <= t <= self.horizon:
            raise ParameterError(f"t={t} outside envelope span [0, {self.horizon}]")
        return float(self._fn(t))

    def segments(self) -> list[tuple[float, float, float]]:
        return list(self._envelope)

    # -- common shapes -------------------------------------------------

    @classmethod
    def constant(cls, rate: float, horizon: float) -> "IntensityFn":
        rate = _non_negative(rate, "rate")
        return cls._exact(lambda t: rate, [(0.0, _positive(horizon, "horizon"), rate)])

    @classmethod
    def piecewise(cls, segments: Sequence[tuple]) -> "IntensityFn":
        """Step function; each (t_start, t_end, rate) is its own bound."""
        segs = [(float(a), float(b), float(r)) for a, b, r in segments]

        def step(t: float) -> float:
            # a boundary time belongs to the segment it starts
            return segs[bisect.bisect_right(segs, (t, math.inf, math.inf)) - 1][2]

        return cls._exact(step, segs)

    @classmethod
    def sinusoid(
        cls,
        base: float,
        amplitude: float,
        period: float,
        horizon: float,
    ) -> "IntensityFn":
        """base + amplitude * sin(2 pi t / period), with an exact
        per-segment supremum as the envelope."""
        base, amplitude = float(base), float(amplitude)
        period, horizon = _positive(period, "period"), _positive(horizon, "horizon")
        if not (math.isfinite(base) and math.isfinite(amplitude)):
            raise ParameterError("base and amplitude must be finite")
        w = 2.0 * math.pi / period
        fn = lambda t: base + amplitude * math.sin(w * t)
        seg_len = period / _SINUSOID_SEGMENTS
        n_seg = horizon / seg_len if seg_len else math.inf
        _check_array_size(f"envelope for period {period}: segment count", n_seg)
        n_seg = max(1, math.ceil(n_seg - 1e-12))
        edges = np.minimum(np.arange(n_seg + 1) * seg_len, horizon)
        segs = []
        for a, b in zip(edges[:-1], edges[1:]):
            # the exact infimum and supremum of the rate on [a, b]
            lo, hi = sorted(base + amplitude * f(w * a, w * b) for f in (_sin_inf, _sin_sup))
            if lo < 0.0:
                raise ParameterError(
                    f"intensity is negative on [{a}, {b}]: "
                    f"base={base}, amplitude={amplitude}"
                )
            segs.append((float(a), float(b), hi))
        return cls._exact(fn, segs)


def _sin_sup(a: float, b: float) -> float:
    """sup of sin over [a, b]."""
    k = math.ceil((a - 0.5 * math.pi) / (2.0 * math.pi))
    peak = 0.5 * math.pi + 2.0 * math.pi * k
    if peak <= b:
        return 1.0
    return max(math.sin(a), math.sin(b))


def _sin_inf(a: float, b: float) -> float:
    return -_sin_sup(-b, -a)


def simulate_nhpp(intensity: IntensityFn, horizon: float, rng: RngStream) -> EventTimes:
    """Thinning against the piecewise-constant envelope.

    Candidates arrive at the envelope rate of each segment; a candidate
    at s survives when u <= rate(s) / bound.  Segments with a zero
    bound generate nothing and are skipped outright.
    """
    horizon = _positive(horizon, "horizon")
    if intensity.horizon < horizon * (1.0 - 1e-12):
        raise ParameterError(
            f"envelope span {intensity.horizon} does not cover horizon {horizon}"
        )
    times: list[float] = []
    draw = rng.uniform_draws().__next__
    for a, b, u in intensity.segments():
        if a >= horizon:
            break
        end = min(b, horizon)
        if u == 0.0:
            continue
        s = a
        while True:
            s += -math.log(draw()) / u
            if s > end:
                break
            lam = intensity(s)
            if lam > u * (1.0 + _DOMINANCE_RTOL):
                raise EnvelopeError(
                    f"envelope bound {u} exceeded by intensity {lam} at t={s}"
                )
            if draw() <= lam / u:
                times.append(s)
    return EventTimes(times, horizon)


def nhpp_mean(intensity: IntensityFn, t1: float, t2: float) -> float:
    """Expected count on (t1, t2]: the integral of the rate.

    Integrated segment-by-segment with adaptive quadrature; the total
    absolute tolerance is 1e-9 * (t2 - t1) * max envelope bound.
    """
    from scipy import integrate  # on use: ~0.1 s to import, and no CLI command integrates

    t1, t2 = float(t1), float(t2)
    if not (0.0 <= t1 < t2):
        raise ParameterError(f"need 0 <= t1 < t2, got ({t1}, {t2})")
    if t2 > intensity.horizon * (1.0 + 1e-12):
        raise ParameterError(f"t2={t2} outside envelope span [0, {intensity.horizon}]")
    budget = 1e-9 * (t2 - t1) * max(intensity.max_bound, 1e-300)
    total = 0.0
    for a, b, u in intensity.segments():
        lo, hi = max(a, t1), min(b, t2)
        if hi <= lo or u == 0.0:
            continue
        eps = budget * (hi - lo) / (t2 - t1)
        val, _ = integrate.quad(intensity, lo, hi, epsabs=eps, limit=200)
        total += val
    return max(total, 0.0)


@dataclass(frozen=True)
class ExponentialKernel:
    """Excitation alpha * exp(-beta x); total mass alpha / beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _non_negative(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _positive(self.beta, "beta"))

    def evaluate(self, x):
        return self.alpha * np.exp(-self.beta * np.asarray(x, dtype=float))

    def total_mass(self) -> float:
        return self.alpha / self.beta


@dataclass(frozen=True)
class PowerLawKernel:
    """Excitation alpha / (x + delta)^(eta + 1); total mass alpha / (eta delta^eta)."""

    alpha: float
    delta: float
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _non_negative(self.alpha, "alpha"))
        for name in ("delta", "eta"):
            object.__setattr__(self, name, _positive(getattr(self, name), name))

    def evaluate(self, x):
        return self.alpha / (np.asarray(x, dtype=float) + self.delta) ** (self.eta + 1.0)

    def total_mass(self) -> float:
        """alpha / (eta delta^eta), to a few ulps wherever it is a normal
        float, even where delta^eta or eta delta^eta is not; 0.0 or inf
        where the mass itself leaves the float range."""
        if self.alpha == 0.0:
            return 0.0
        # delta^eta = p^k for the least k of 1, 2, 4 with p a normal float
        for k in (1, 2, 4):
            try:
                p = self.delta ** (self.eta / k)
            except OverflowError:
                continue
            if p >= sys.float_info.min:
                break
        else:
            # |eta log2 delta| > 4088, and alpha / eta is within 2^±2098
            return 0.0 if self.delta > 1.0 else math.inf
        # the mantissas multiplied and divided as the floats would be,
        # with the exponents summed apart
        (m_alpha, e_alpha), (den, e_eta), (m_p, e_p) = map(math.frexp, (self.alpha, self.eta, p))
        for _ in range(k):
            den *= m_p
        try:
            return math.ldexp(m_alpha / den, e_alpha - e_eta - k * e_p)
        except OverflowError:
            return math.inf


Kernel = Union[ExponentialKernel, PowerLawKernel]


@dataclass(frozen=True)
class HawkesModel:
    """Background rate mu plus a self-excitation kernel."""

    mu: float
    kernel: Kernel

    def __post_init__(self):
        object.__setattr__(self, "mu", _non_negative(self.mu, "mu"))
        if not isinstance(self.kernel, (ExponentialKernel, PowerLawKernel)):
            raise ParameterError(f"unsupported kernel type {type(self.kernel).__name__}")


def hawkes_intensity(model: HawkesModel, history: EventTimes, t: float) -> float:
    """Conditional intensity at t given the history strictly before t.

    Left-continuous: an event exactly at t does not contribute, so the
    value at an event time is the pre-jump intensity.
    """
    t = float(t)
    if not t >= 0.0:
        raise ParameterError(f"t must be >= 0, got {t}")
    past = history.times[history.times < t]
    return model.mu + float(np.sum(model.kernel.evaluate(t - past)))


@dataclass(frozen=True)
class Branching:
    """Mean offspring per event and the regime it implies."""

    value: float
    regime: str


def branching_factor(model: HawkesModel) -> Branching:
    """Kernel mass n* = integral of the excitation, with its regime.

    n* < 1 subcritical, n* = 1 critical, n* > 1 supercritical.  The
    background rate plays no role.
    """
    n_star = model.kernel.total_mass()
    if n_star < 1.0:
        regime = "subcritical"
    elif n_star == 1.0:
        regime = "critical"
    else:
        regime = "supercritical"
    return Branching(n_star, regime)


def expected_cluster_size(n_star: float) -> float:
    """Mean total progeny of one immigrant, 1 / (1 - n*); finite only
    for n* < 1.  Correctly rounded from n* = 1/2 on, where 1 - n* is
    exact; within one ulp below it."""
    n_star = float(n_star)
    if math.isnan(n_star) or n_star < 0.0:
        raise ParameterError(f"branching factor must be >= 0, got {n_star}")
    if n_star >= 1.0:
        raise ParameterError(
            f"cluster size is unbounded for branching factor {n_star} >= 1"
        )
    return 1.0 / (1.0 - n_star)


def simulate_hawkes(model: HawkesModel, horizon: float, rng: RngStream) -> EventTimes:
    """Thinning with the left-limit intensity as the local bound.

    Only the exponential kernel is supported: its excitation decays
    multiplicatively, so the running sum A = sum_i alpha e^(-beta (s - t_i))
    updates in O(1) per candidate and the whole path is O(n) in the
    number of candidates.  The bound lambda(s+) is refreshed after
    every accepted event and after every rejected candidate, and always
    dominates the intensity until the next event because the
    exponential kernel only decays between events.
    """
    horizon = _positive(horizon, "horizon")
    _positive(model.mu, "mu")
    if not isinstance(model.kernel, ExponentialKernel):
        raise ParameterError(
            "simulation requires the exponential kernel; "
            f"got {type(model.kernel).__name__}"
        )
    b = branching_factor(model)
    if b.value >= 1.0:
        warnings.warn(
            f"branching factor {b.value:.6g} >= 1 ({b.regime}): cluster sizes "
            "are unbounded and the path may grow without limit",
            RuntimeWarning,
            stacklevel=2,
        )
    alpha, beta = model.kernel.alpha, model.kernel.beta
    times: list[float] = []
    excitation = 0.0  # sum of kernel terms at the current time, post-jump
    s = 0.0
    draw = rng.uniform_draws().__next__
    while True:
        bound = model.mu + excitation
        if not 0.0 < bound < math.inf:  # mu > 0 and the excitation >= 0: it overflowed
            raise ParameterError(f"the conditional intensity overflows at t = {s:.6g}")
        w = -math.log(draw()) / bound
        excitation *= math.exp(-beta * w)
        s += w
        if s > horizon:
            break
        lam = model.mu + excitation  # left limit: candidate not yet an event
        if draw() * bound <= lam:
            times.append(s)
            excitation += alpha
    return EventTimes(times, horizon)
