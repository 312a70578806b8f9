import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pointproc import (
    Branching,
    EnvelopeError,
    EventTimes,
    ExponentialKernel,
    HawkesModel,
    IntensityFn,
    ParameterError,
    PowerLawKernel,
    RngStream,
    branching_factor,
    exponential_draw,
    expected_cluster_size,
    hawkes_intensity,
    inter_arrival_times,
    nhpp_mean,
    poisson_count_pmf,
    simulate_hawkes,
    simulate_hpp,
    simulate_nhpp,
    temporal,
)


def stream_state(rng):
    return rng._gen.bit_generator.state


class FiniteRng(RngStream):
    """A stream whose simulators get at most 1000 draws, so that a loop
    stuck at a bad rate stops with StopIteration instead of hanging."""

    def uniform_draws(self):
        yield from itertools.islice(super().uniform_draws(), 1000)


def state_after_uniforms(seed, n):
    """Where a fresh stream stands after n scalar uniform() calls."""
    rng = RngStream(seed)
    for _ in range(n):
        rng.uniform()
    return stream_state(rng)


def final_state(simulate, *args, seed):
    """Where a simulator leaves a fresh stream of `seed`."""
    rng = RngStream(seed)
    simulate(*args, rng)
    return stream_state(rng)


def scalar_hpp(rate, horizon, rng):
    """Arrival times with one uniform() call per gap, the one past the
    horizon included: the reference for the values of simulate_hpp."""
    times, t = [], 0.0
    while True:
        t += exponential_draw(rng, rate)
        if t > horizon:
            return times
        times.append(t)


class TestPoissonCountPmf:
    def test_matches_scipy(self):
        for rate, a, b, n in [(2.0, 0.0, 100.0, 200), (0.5, 1.0, 3.0, 0), (7.3, 2.0, 2.5, 4)]:
            mu = rate * (b - a)
            assert poisson_count_pmf(rate, a, b, n) == pytest.approx(
                stats.poisson.pmf(n, mu), rel=1e-12
            )

    def test_large_count_no_overflow(self):
        v = poisson_count_pmf(2.0, 0.0, 1000.0, 2000)
        assert 0.0 < v < 1.0

    def test_normalizes(self):
        total = sum(poisson_count_pmf(3.0, 0.0, 2.0, n) for n in range(80))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mean_equals_variance(self):
        rate, a, b = 2.5, 1.0, 5.0
        mu = rate * (b - a)
        ns = np.arange(0, 200)
        p = np.array([poisson_count_pmf(rate, a, b, int(n)) for n in ns])
        mean = float((ns * p).sum())
        var = float(((ns - mean) ** 2 * p).sum())
        assert mean == pytest.approx(mu, rel=1e-9)
        assert var == pytest.approx(mu, rel=1e-9)

    @given(
        st.floats(0.1, 20.0),
        st.floats(0.0, 10.0),
        st.floats(0.1, 10.0),
        st.integers(0, 100),
    )
    @settings(max_examples=100)
    def test_agrees_with_scipy_everywhere(self, rate, a, width, n):
        b = a + width
        assert poisson_count_pmf(rate, a, b, n) == pytest.approx(
            float(stats.poisson.pmf(n, rate * (b - a))), rel=1e-9, abs=1e-300
        )

    @pytest.mark.parametrize(
        "args", [(0.0, 0.0, 1.0, 1), (2.0, 1.0, 1.0, 1), (2.0, -1.0, 1.0, 1), (2.0, 0.0, 1.0, -1),
                 (2.0, 0.0, 1.0, 1.5), (2.0, 0.0, 1.0, math.nan), (2.0, 0.0, 1.0, math.inf)]
    )
    def test_rejects_bad_args(self, args):
        with pytest.raises(ParameterError):
            poisson_count_pmf(*args)

    @pytest.mark.parametrize("n", [-1, 2.5, math.nan, math.inf, -math.inf, "3"])
    def test_count_refused_in_one_wording(self, n):
        message = f"count must be an integer >= 0, got {n!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            poisson_count_pmf(2.0, 0.0, 1.0, n)

    def test_whole_count_of_any_type(self):
        want = poisson_count_pmf(2.0, 0.0, 1.0, 3)
        assert poisson_count_pmf(2.0, 0.0, 1.0, np.int64(3)) == want
        assert poisson_count_pmf(2.0, 0.0, 1.0, 3.0) == want

    @pytest.mark.parametrize("args, limit", [
        ((1e200, 0.0, 1e200, 3), 0.0),  # the mean overflows to inf
        ((1e200, 0.0, 1e200, 0), 0.0),
        ((5e-324, 0.0, 1e-10, 1), 0.0),  # the mean underflows to 0
        ((5e-324, 0.0, 1e-10, 0), 1.0),
        ((1.0, 0.0, 1.0, 10**400), 0.0),  # a count past every float
        ((1.0, 0.0, 1.0, 10**306), 0.0),  # log(n!) past every float
    ])
    def test_limits_of_extreme_means_and_counts(self, args, limit):
        assert poisson_count_pmf(*args) == limit


class TestSimulateHpp:
    def test_deterministic(self):
        a = simulate_hpp(2.0, 50.0, RngStream(3))
        b = simulate_hpp(2.0, 50.0, RngStream(3))
        assert np.array_equal(a.times, b.times)

    def test_within_horizon_strictly_increasing(self):
        ev = simulate_hpp(5.0, 20.0, RngStream(1))
        assert ev.times[0] > 0 and ev.times[-1] <= 20.0
        assert np.all(np.diff(ev.times) > 0)

    def test_consumes_one_draw_per_arrival_plus_discard(self):
        rng = RngStream(8)
        ev = simulate_hpp(3.0, 10.0, rng)
        # the arrival past the horizon is drawn, discarded
        assert ev.times.tolist() == scalar_hpp(3.0, 10.0, RngStream(8))
        assert stream_state(rng) == final_state(simulate_hpp, 3.0, 10.0, seed=8)

    @pytest.mark.parametrize("rate", [0.1, 102.3, 300.0])  # no arrival, about one block, several
    def test_scalar_values_across_blocks(self, rate):
        rng = RngStream(11)
        ev = simulate_hpp(rate, 10.0, rng)
        assert ev.times.tolist() == scalar_hpp(rate, 10.0, RngStream(11))
        assert stream_state(rng) == final_state(simulate_hpp, rate, 10.0, seed=11)

    def test_count_mean(self):
        total = sum(len(simulate_hpp(2.0, 10.0, RngStream(s))) for s in range(300))
        assert total / 300 == pytest.approx(20.0, rel=0.05)

    def test_gaps_are_exponential(self):
        gaps = np.concatenate(
            [inter_arrival_times(simulate_hpp(2.0, 100.0, RngStream(s))) for s in range(30)]
        )
        assert stats.kstest(gaps, "expon", args=(0, 0.5)).pvalue > 0.01

    @pytest.mark.parametrize("rate,horizon", [(0, 1), (-2, 1), (2, 0), (2, -5)])
    def test_rejects_bad_params(self, rate, horizon):
        with pytest.raises(ParameterError):
            simulate_hpp(rate, horizon, RngStream(0))


class TestIntensityFn:
    def test_constant(self):
        f = IntensityFn.constant(4.0, 10.0)
        assert f(0.0) == 4.0 and f(10.0) == 4.0
        assert f.horizon == 10.0 and f.max_bound == 4.0

    def test_piecewise_lookup(self):
        f = IntensityFn.piecewise([(0, 1, 2.0), (1, 3, 5.0), (3, 4, 1.0)])
        assert f(0.5) == 2.0
        assert f(1.0) == 5.0  # boundary belongs to the segment it starts
        assert f(2.9999) == 5.0
        assert f(4.0) == 1.0

    def test_sinusoid_envelope_dominates(self):
        f = IntensityFn.sinusoid(3.0, 2.0, 24.0, 96.0)
        ts = np.linspace(0, 96, 5000)
        for a, b, u in f.segments():
            sel = ts[(ts >= a) & (ts < b)]
            assert all(f(t) <= u + 1e-12 for t in sel)

    def test_sinusoid_envelope_is_tight(self):
        f = IntensityFn.sinusoid(3.0, 2.0, 24.0, 24.0)
        # the segment containing the crest must use the exact peak value
        assert math.isclose(max(u for _, _, u in f.segments()), 5.0)
        g = IntensityFn.sinusoid(3.0, -2.0, 24.0, 24.0)
        assert math.isclose(max(u for _, _, u in g.segments()), 5.0)

    def test_rejects_gap(self):
        with pytest.raises(ParameterError, match="gap"):
            IntensityFn(lambda t: 1.0, [(0, 1, 2.0), (1.5, 2, 2.0)])

    @pytest.mark.parametrize("envelope, message", [
        ([], "envelope must have at least one segment"),
        ([(0, 1, 2.0), (1, 2, math.nan)], "envelope bound 1 must be finite and >= 0"),
        ([(0, 1, -1.0)], "envelope bound 0 must be finite and >= 0"),
        ([(0, 1, math.inf)], "envelope bound 0 must be finite and >= 0"),
    ], ids=["empty", "nan-bound", "negative-bound", "inf-bound"])
    def test_rejects_bad_envelope(self, envelope, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            IntensityFn(lambda t: 1.0, envelope)

    @pytest.mark.parametrize("base, amplitude", [(math.nan, 1.0), (3.0, math.inf)])
    def test_rejects_non_finite_sinusoid(self, base, amplitude):
        with pytest.raises(ParameterError, match="^base and amplitude must be finite$"):
            IntensityFn.sinusoid(base, amplitude, 24.0, 24.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(0.0, 2.0 * math.pi / temporal._SINUSOID_SEGMENTS))
    def test_sin_sup_bounds_a_dense_sample(self, a, width):
        # the sinusoid's segments are a sixteenth of a turn or less
        b = a + width
        sup = temporal._sin_sup(a, b)
        assert sup >= max(map(math.sin, np.linspace(a, b, 1001).tolist()))  # a and b too
        last = math.floor((b - 0.5 * math.pi) / (2.0 * math.pi))  # the last peak up to b
        if 0.5 * math.pi + 2.0 * math.pi * last >= a:
            assert sup == 1.0

    def test_rejects_nonzero_start(self):
        with pytest.raises(ParameterError, match="start"):
            IntensityFn(lambda t: 1.0, [(1, 2, 2.0)])

    def test_rejects_non_dominating_envelope(self):
        with pytest.raises(ParameterError, match="dominate"):
            IntensityFn(lambda t: 3.0, [(0, 1, 2.0)])

    def test_rejects_negative_intensity(self):
        with pytest.raises(ParameterError, match="negative"):
            IntensityFn(lambda t: -0.5, [(0, 1, 2.0)])

    def test_rejects_negative_sinusoid(self):
        with pytest.raises(ParameterError, match="negative"):
            IntensityFn.sinusoid(1.0, 2.0, 10.0, 10.0)

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def refuse(self):
            raise AssertionError("sampled dominance check ran")

        monkeypatch.setattr(IntensityFn, "_check_dominance", refuse)

    def test_builtin_shapes_skip_sampled_check(self, no_sampling):
        IntensityFn.constant(2.0, 10.0)
        IntensityFn.piecewise([(0, 1, 2.0), (1, 3, 5.0)])
        IntensityFn.sinusoid(3.0, 2.0, 24.0, 96.0)
        with pytest.raises(AssertionError, match="sampled"):
            IntensityFn(lambda t: 1.0, [(0, 1, 2.0)])

    def test_piecewise_short_segment_far_from_zero(self):
        # the sampled check's left limit of (1e6, 1e6 + 1e-6) rounds to its
        # end, where the next segment's rate 5 applies
        f = IntensityFn.piecewise([(0, 1e6, 1.0), (1e6, 1e6 + 1e-6, 1.0), (1e6 + 1e-6, 2e6, 5.0)])
        assert f.max_bound == 5.0

    def test_rejects_negative_sinusoid_trough(self, no_sampling):
        # every segment's supremum is positive: only the exact infimum of
        # the trough segment catches the negative rate
        with pytest.raises(ParameterError, match="negative"):
            IntensityFn.sinusoid(1.0, 1.01, 16.0, 16.0)

    def test_evaluation_outside_span(self):
        f = IntensityFn.constant(1.0, 5.0)
        with pytest.raises(ParameterError):
            f(6.0)

    def test_nan_time_rejected(self):
        with pytest.raises(ParameterError, match="outside envelope span"):
            IntensityFn.constant(2, 5)(math.nan)

    def test_envelope_is_frozen(self):
        f = IntensityFn.piecewise([(0, 10, 4.0), (10, 20, 1.0)])
        assert not any(hasattr(f, name) for name in ("starts", "ends", "bounds"))
        want = simulate_nhpp(f, 20.0, RngStream(3)).times
        segs = f.segments()
        segs[1] = (10.0, 20.0, math.inf)
        segs.append((20.0, 30.0, 1.0))
        assert f.segments() == [(0.0, 10.0, 4.0), (10.0, 20.0, 1.0)]
        assert np.array_equal(simulate_nhpp(f, 20.0, RngStream(3)).times, want)


class TestSimulateNhpp:
    def test_deterministic(self):
        f = IntensityFn.sinusoid(3.0, 2.0, 24.0, 96.0)
        a = simulate_nhpp(f, 96.0, RngStream(5))
        b = simulate_nhpp(f, 96.0, RngStream(5))
        assert np.array_equal(a.times, b.times)

    def test_zero_intensity_empty(self):
        f = IntensityFn.constant(0.0, 10.0)
        assert len(simulate_nhpp(f, 10.0, RngStream(1))) == 0

    def test_respects_horizon_shorter_than_envelope(self):
        f = IntensityFn.constant(5.0, 100.0)
        ev = simulate_nhpp(f, 10.0, RngStream(2))
        assert ev.horizon == 10.0 and ev.times[-1] <= 10.0

    def test_envelope_must_cover_horizon(self):
        f = IntensityFn.constant(5.0, 10.0)
        with pytest.raises(ParameterError, match="cover"):
            simulate_nhpp(f, 20.0, RngStream(0))

    def test_constant_rate_distribution_matches_hpp(self):
        f = IntensityFn.constant(2.0, 100.0)
        nh = np.concatenate(
            [inter_arrival_times(simulate_nhpp(f, 100.0, RngStream(s))) for s in range(40)]
        )
        hp = np.concatenate(
            [inter_arrival_times(simulate_hpp(2.0, 100.0, RngStream(1000 + s))) for s in range(40)]
        )
        assert stats.ks_2samp(nh, hp).pvalue > 0.01

    def test_piecewise_means(self):
        f = IntensityFn.piecewise([(0, 10, 4.0), (10, 20, 0.5)])
        n_hi = np.mean([len(simulate_nhpp(f, 10.0, RngStream(s))) for s in range(200)])
        counts = [simulate_nhpp(f, 20.0, RngStream(s)) for s in range(200)]
        n_lo = np.mean([ev.count_by(20.0) - ev.count_by(10.0) for ev in counts])
        assert n_hi == pytest.approx(40.0, rel=0.08)
        assert n_lo == pytest.approx(5.0, rel=0.2)

    def test_lying_envelope_raises_at_simulation_time(self):
        # compliant while the constructor samples, violating afterwards
        state = {"checked": False}

        def two_faced(t):
            return 1.0 if not state["checked"] else 10.0

        f = IntensityFn(two_faced, [(0.0, 50.0, 1.0)])
        state["checked"] = True
        with pytest.raises(EnvelopeError):
            simulate_nhpp(f, 50.0, RngStream(0))


def scalar_thinning(intensity, horizon, rng):
    """NHPP thinning with one uniform() call per variate: the reference
    for the values and the draws of simulate_nhpp."""
    times = []
    for a, b, u in intensity.segments():
        if a >= horizon:
            break
        if u == 0.0:
            continue
        s = a
        while True:
            s += exponential_draw(rng, u)
            if s > min(b, horizon):
                break
            lam = intensity(s)
            if lam > u * (1.0 + 1e-12):
                raise EnvelopeError(f"bound {u} exceeded at t={s}")
            if rng.uniform() <= lam / u:
                times.append(s)
    return times


class TestNhppScalarDraws:
    """simulate_nhpp draws the values per-variate uniform() calls would,
    and the same seed leaves its stream in the same state, whether it
    returns or raises."""

    @pytest.mark.parametrize("intensity,horizon", [
        (IntensityFn.sinusoid(3.0, 2.0, 24.0, 96.0), 96.0),
        (IntensityFn.sinusoid(300.0, 250.0, 2.0, 20.0), 17.5),  # several blocks of draws
        (IntensityFn.piecewise([(0, 10, 4.0), (10, 20, 0.0), (20, 30, 0.5)]), 30.0),
        (IntensityFn.piecewise([(0, 10, 0.0), (10, 20, 2.0)]), 15.0),
    ])
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_matches_scalar_draws(self, intensity, horizon, seed):
        rng, ref = RngStream(seed), RngStream(seed)
        ev = simulate_nhpp(intensity, horizon, rng)
        assert ev.times.tolist() == scalar_thinning(intensity, horizon, ref)
        assert stream_state(rng) == final_state(simulate_nhpp, intensity, horizon, seed=seed)

    def test_lying_envelope_raises_where_scalar_draws_would(self):
        state = {"checked": False}

        def two_faced(t):
            return 1.0 if not state["checked"] or t < 20.0 else 10.0

        f = IntensityFn(two_faced, [(0.0, 50.0, 1.0)])
        state["checked"] = True
        rng, again = RngStream(0), RngStream(0)
        with pytest.raises(EnvelopeError) as raised:
            simulate_nhpp(f, 50.0, rng)
        with pytest.raises(EnvelopeError) as scalar:
            scalar_thinning(f, 50.0, RngStream(0))
        assert raised.value.args[0].split(" at t=")[1] == scalar.value.args[0].split(" at t=")[1]
        with pytest.raises(EnvelopeError):
            simulate_nhpp(f, 50.0, again)
        assert stream_state(rng) == stream_state(again)
        assert stream_state(rng) != state_after_uniforms(0, 0)  # it drew before raising


class TestNhppMean:
    def test_constant(self):
        f = IntensityFn.constant(3.0, 10.0)
        assert nhpp_mean(f, 0.0, 10.0) == pytest.approx(30.0, rel=1e-9)
        assert nhpp_mean(f, 2.0, 4.5) == pytest.approx(7.5, rel=1e-9)

    def test_piecewise(self):
        f = IntensityFn.piecewise([(0, 1, 2.0), (1, 3, 5.0)])
        assert nhpp_mean(f, 0.0, 3.0) == pytest.approx(12.0, rel=1e-9)
        assert nhpp_mean(f, 0.5, 2.0) == pytest.approx(0.5 * 2 + 1 * 5, rel=1e-9)

    def test_sinusoid_closed_form(self):
        base, amp, period = 3.0, 2.0, 24.0
        f = IntensityFn.sinusoid(base, amp, period, 96.0)
        # integral of base + amp*sin(2 pi t / period) over [0, t2]
        w = 2 * math.pi / period

        def exact(t1, t2):
            return base * (t2 - t1) + amp / w * (math.cos(w * t1) - math.cos(w * t2))

        assert nhpp_mean(f, 0.0, 96.0) == pytest.approx(exact(0, 96), rel=1e-9)
        assert nhpp_mean(f, 0.0, 6.0) == pytest.approx(exact(0, 6), rel=1e-9)
        assert nhpp_mean(f, 5.0, 17.0) == pytest.approx(exact(5, 17), rel=1e-9)

    def test_rejects_bad_interval(self):
        f = IntensityFn.constant(1.0, 10.0)
        for t1, t2 in [(-1, 5), (5, 5), (7, 3), (0, 11)]:
            with pytest.raises(ParameterError):
                nhpp_mean(f, t1, t2)

    def test_thinning_matches_integral(self):
        f = IntensityFn.sinusoid(3.0, 2.0, 24.0, 48.0)
        counts = [len(simulate_nhpp(f, 48.0, RngStream(s))) for s in range(300)]
        assert np.mean(counts) == pytest.approx(nhpp_mean(f, 0, 48), rel=0.05)


class TestKernels:
    def test_exponential_mass(self):
        assert ExponentialKernel(0.5, 1.0).total_mass() == 0.5
        assert ExponentialKernel(2.0, 4.0).total_mass() == 0.5

    def test_power_law_mass(self):
        k = PowerLawKernel(1.0, 2.0, 1.5)
        assert k.total_mass() == pytest.approx(1.0 / (1.5 * 2.0**1.5), rel=1e-12)

    def test_mass_matches_quadrature(self):
        from scipy.integrate import quad

        for kernel in (ExponentialKernel(0.7, 2.0), PowerLawKernel(0.9, 1.5, 2.0)):
            num, _ = quad(lambda x: float(kernel.evaluate(x)), 0, np.inf)
            assert kernel.total_mass() == pytest.approx(num, rel=1e-8)

    def test_evaluate_shapes(self):
        k = ExponentialKernel(1.0, 2.0)
        assert k.evaluate(0.0) == 1.0
        assert np.allclose(k.evaluate([0.0, 1.0]), [1.0, math.exp(-2.0)])

    @pytest.mark.parametrize("alpha,beta", [(-1, 1), (1, 0), (1, -1)])
    def test_exponential_validation(self, alpha, beta):
        with pytest.raises(ParameterError):
            ExponentialKernel(alpha, beta)

    @pytest.mark.parametrize("alpha,delta,eta", [(-1, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_power_law_validation(self, alpha, delta, eta):
        with pytest.raises(ParameterError):
            PowerLawKernel(alpha, delta, eta)

    @given(st.floats(0.0, 10.0), st.floats(0.01, 10.0))
    def test_branching_is_mass_ratio(self, alpha, beta):
        b = branching_factor(HawkesModel(1.0, ExponentialKernel(alpha, beta)))
        assert b.value == alpha / beta


class TestBranching:
    def test_closed_forms(self):
        b = branching_factor(HawkesModel(1.0, ExponentialKernel(0.5, 1.0)))
        assert b == Branching(0.5, "subcritical")
        assert abs(b.value - 0.5) < 1e-12
        b2 = branching_factor(HawkesModel(0.0, PowerLawKernel(1.0, 2.0, 1.5)))
        assert abs(b2.value - 1.0 / (1.5 * 2.0**1.5)) < 1e-12

    def test_regimes(self):
        assert branching_factor(HawkesModel(1, ExponentialKernel(2.0, 1.0))).regime == "supercritical"
        assert branching_factor(HawkesModel(1, ExponentialKernel(1.0, 1.0))).regime == "critical"

    def test_expected_cluster_size(self):
        assert abs(expected_cluster_size(0.5) - 2.0) < 1e-12
        assert abs(expected_cluster_size(0.0) - 1.0) < 1e-12
        assert abs(expected_cluster_size(0.9) - 10.0) < 1e-12

    @pytest.mark.parametrize("n_star", [1.0, 1.5, math.inf])
    def test_cluster_size_unbounded(self, n_star):
        with pytest.raises(ParameterError, match="unbounded"):
            expected_cluster_size(n_star)

    def test_cluster_size_rejects_negative(self):
        with pytest.raises(ParameterError):
            expected_cluster_size(-0.1)


class TestHawkesIntensity:
    def test_baseline_before_any_event(self):
        model = HawkesModel(1.0, ExponentialKernel(0.5, 1.0))
        history = EventTimes([3.0, 4.0, 9.0, 10.0], horizon=12.0)
        assert hawkes_intensity(model, history, 0.0) == 1.0
        assert hawkes_intensity(model, history, 2.9) == pytest.approx(1.0)
        # no past events: the kernel sum is empty, and exactly mu remains
        for kernel in (ExponentialKernel(0.5, 1.0), PowerLawKernel(1.0, 1.0, 1.0)):
            model = HawkesModel(1.25, kernel)
            assert hawkes_intensity(model, EventTimes([], horizon=5.0), 2.0) == 1.25
            assert hawkes_intensity(model, history, 3.0) == 1.25

    def test_rejects_unsupported_kernel(self):
        with pytest.raises(ParameterError, match="^unsupported kernel type str$"):
            HawkesModel(1.0, "exponential")

    def test_hand_computed_values(self):
        model = HawkesModel(1.0, ExponentialKernel(0.5, 1.0))
        history = EventTimes([3.0, 4.0, 9.0, 10.0], horizon=12.0)
        expect = 1.0 + 0.5 * (
            math.exp(-7.5) + math.exp(-6.5) + math.exp(-1.5) + math.exp(-0.5)
        )
        assert hawkes_intensity(model, history, 10.5) == pytest.approx(expect, rel=1e-12)

    def test_left_continuity_at_event(self):
        model = HawkesModel(1.0, ExponentialKernel(0.5, 1.0))
        history = EventTimes([3.0], horizon=5.0)
        assert hawkes_intensity(model, history, 3.0) == 1.0  # the jump is not yet in
        just_after = hawkes_intensity(model, history, 3.0 + 1e-9)
        assert just_after == pytest.approx(1.5, rel=1e-6)

    def test_power_law_history(self):
        model = HawkesModel(2.0, PowerLawKernel(1.0, 1.0, 1.0))
        history = EventTimes([1.0], horizon=4.0)
        # elapsed x = 2, kernel = 1 / (2 + 1)^2
        assert hawkes_intensity(model, history, 3.0) == pytest.approx(2.0 + 1.0 / 9.0)

    def test_nan_time_rejected(self):
        model = HawkesModel(1.0, ExponentialKernel(0.5, 1.0))
        with pytest.raises(ParameterError, match="t must be >= 0, got nan"):
            hawkes_intensity(model, EventTimes([1.0, 2.0], horizon=5.0), math.nan)


def brute_force_ogata(mu, alpha, beta, horizon, rng):
    """Textbook thinning: the intensity bound is recomputed by summing
    the kernel over the whole history at every step."""
    times = []
    s = 0.0
    while True:
        bound = mu + sum(alpha * math.exp(-beta * (s - t)) for t in times)
        s += -math.log(rng.uniform()) / bound
        if s > horizon:
            return times
        lam = mu + sum(alpha * math.exp(-beta * (s - t)) for t in times)
        if rng.uniform() * bound <= lam:
            times.append(s)


def scalar_ogata(mu, alpha, beta, horizon, rng):
    """The O(1) excitation recursion with one uniform() call per variate:
    the reference for the values and the draws of simulate_hawkes."""
    times, excitation, s = [], 0.0, 0.0
    while True:
        bound = mu + excitation
        w = exponential_draw(rng, bound)
        excitation *= math.exp(-beta * w)
        s += w
        if s > horizon:
            return times
        if rng.uniform() * bound <= mu + excitation:
            times.append(s)
            excitation += alpha


class TestSimulateHawkes:
    def test_deterministic(self):
        model = HawkesModel(1.0, ExponentialKernel(0.5, 1.0))
        a = simulate_hawkes(model, 200.0, RngStream(17))
        b = simulate_hawkes(model, 200.0, RngStream(17))
        assert np.array_equal(a.times, b.times)

    def test_matches_brute_force_history_sums(self):
        # same seed => same draw sequence; the O(1) excitation recursion
        # must reproduce the quadratic history-sum implementation
        model = HawkesModel(1.2, ExponentialKernel(0.8, 1.5))
        for seed in range(5):
            ev = simulate_hawkes(model, 50.0, RngStream(seed))
            ref = brute_force_ogata(1.2, 0.8, 1.5, 50.0, RngStream(seed))
            assert len(ev) == len(ref)
            assert np.allclose(ev.times, ref, rtol=1e-9)

    @pytest.mark.parametrize("horizon", [0.5, 50.0, 500.0])  # part of a block to several
    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_matches_scalar_draws(self, seed, horizon):
        model = HawkesModel(1.2, ExponentialKernel(0.8, 1.5))
        rng, ref = RngStream(seed), RngStream(seed)
        ev = simulate_hawkes(model, horizon, rng)
        assert ev.times.tolist() == scalar_ogata(1.2, 0.8, 1.5, horizon, ref)
        assert stream_state(rng) == final_state(simulate_hawkes, model, horizon, seed=seed)

    def test_overflowing_excitation_raises(self):
        # each accepted event adds 1e308, so the second one overflows the bound to inf
        model = HawkesModel(1.0, ExponentialKernel(1e308, 1.0))
        with pytest.warns(RuntimeWarning, match="supercritical"):
            with pytest.raises(ParameterError, match="conditional intensity overflows at t = "):
                simulate_hawkes(model, 10.0, FiniteRng(0))

    @pytest.mark.filterwarnings("ignore:branching factor")
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    def test_kernel_altered_past_its_checks_stops(self, alpha):
        # an alpha set after construction puts a bad bound in the thinning loop
        # after the first event; a negative bound would otherwise never leave it
        kernel = ExponentialKernel(0.5, 1.0)
        object.__setattr__(kernel, "alpha", alpha)
        with pytest.raises(ParameterError, match="conditional intensity overflows at t = "):
            simulate_hawkes(HawkesModel(0.5, kernel), 100.0, RngStream(0))

    def test_zero_alpha_reduces_to_poisson(self):
        model = HawkesModel(2.0, ExponentialKernel(0.0, 1.0))
        gaps = np.concatenate(
            [
                inter_arrival_times(simulate_hawkes(model, 100.0, RngStream(s)))
                for s in range(30)
            ]
        )
        assert stats.kstest(gaps, "expon", args=(0, 0.5)).pvalue > 0.01

    def test_stationary_rate(self):
        model = HawkesModel(1.0, ExponentialKernel(0.5, 1.0))
        n = sum(len(simulate_hawkes(model, 1000.0, RngStream(s))) for s in range(10))
        assert n / 10_000 == pytest.approx(2.0, rel=0.1)

    def test_supercritical_warns_but_runs(self):
        model = HawkesModel(0.1, ExponentialKernel(1.2, 1.0))
        with pytest.warns(RuntimeWarning, match="supercritical"):
            ev = simulate_hawkes(model, 5.0, RngStream(3))
        assert ev.horizon == 5.0

    def test_critical_warns(self):
        model = HawkesModel(0.5, ExponentialKernel(1.0, 1.0))
        with pytest.warns(RuntimeWarning, match="critical"):
            simulate_hawkes(model, 2.0, RngStream(0))

    def test_power_law_not_simulable(self):
        model = HawkesModel(1.0, PowerLawKernel(1.0, 2.0, 1.5))
        with pytest.raises(ParameterError, match="exponential"):
            simulate_hawkes(model, 10.0, RngStream(0))

    def test_requires_positive_mu(self):
        model = HawkesModel(0.0, ExponentialKernel(0.5, 1.0))
        with pytest.raises(ParameterError, match="mu"):
            simulate_hawkes(model, 10.0, RngStream(0))

    def test_events_within_horizon(self):
        model = HawkesModel(1.0, ExponentialKernel(0.9, 2.0))
        ev = simulate_hawkes(model, 30.0, RngStream(4))
        assert ev.times[0] > 0 and ev.times[-1] <= 30.0
        assert np.all(np.diff(ev.times) > 0)
