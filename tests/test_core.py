import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pointproc import (
    Cylinder,
    EventTimes,
    ExponentialKernel,
    Grid,
    GridSpec,
    HawkesModel,
    IntensityFn,
    ParameterError,
    PowerLawKernel,
    Region,
    RngStream,
    SpaceTimeEvents,
    SpatialPattern,
    core,
    detect,
    exponential_draw,
    gi_star,
    inter_arrival_times,
    kde_surface,
    poisson_count_pmf,
    simulate_csr,
    simulate_hawkes,
    simulate_hpp,
    simulate_nhpp,
    spatial,
)

# not whole numbers, or not numbers: refused wherever a count is asked for
NOT_COUNTS = [2.5, math.nan, math.inf, -math.inf, "3"]


class TestRngStream:
    def test_same_seed_same_draws(self):
        a, b = RngStream(123), RngStream(123)
        assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]
        assert np.array_equal(a.uniforms(0, 1, 100), b.uniforms(0, 1, 100))
        assert a.poisson(40.0) == b.poisson(40.0)

    def test_different_seeds_differ(self):
        a, b = RngStream(1), RngStream(2)
        assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]

    def test_uniform_open_interval(self):
        rng = RngStream(7)
        us = [rng.uniform() for _ in range(20_000)]
        assert min(us) > 0.0
        assert max(us) < 1.0

    def test_root_is_pcg64_of_the_seed(self):
        direct = np.random.Generator(np.random.PCG64(1000))
        assert np.array_equal(RngStream(1000).uniforms(0, 1, 50), direct.random(50))

    @pytest.mark.parametrize("index", [5, np.int64(5), 5.0])
    def test_substream_is_a_spawn_key(self, index):
        tree = np.random.SeedSequence(1000, spawn_key=(5,))
        direct = np.random.Generator(np.random.PCG64(tree))
        sub = RngStream(1000).substream(index)
        assert repr(sub) == "RngStream(seed=1000, path=(5,))"
        assert np.array_equal(sub.uniforms(0, 1, 50), direct.random(50))

    @pytest.mark.parametrize("index", [-1, -(2**64), *NOT_COUNTS])
    def test_negative_substream_index_rejected(self, index):
        message = f"substream index must be an integer >= 0, got {index!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            RngStream(7).substream(index)

    @pytest.mark.parametrize("seed, masked",
                             [(-1, 2**64 - 1), (2**64 + 5, 5), (np.int64(-2), 2**64 - 2)])
    def test_seed_is_taken_modulo_two_to_the_64(self, seed, masked):
        rng = RngStream(seed)
        assert type(rng.seed) is int and rng.seed == masked
        same = RngStream(masked)
        assert np.array_equal(rng.uniforms(0, 1, 50), same.uniforms(0, 1, 50))
        sub, same_sub = rng.substream(3), same.substream(3)
        assert np.array_equal(sub.uniforms(0, 1, 50), same_sub.uniforms(0, 1, 50))

    def test_substreams_leave_parent_untouched(self):
        a, b = RngStream(9), RngStream(9)
        a.substream(3)
        assert a.uniform() == b.uniform()


class SequenceGen:
    """A generator stub that replays fixed values, one by one or in blocks."""

    def __init__(self, values):
        self.values, self.pos = list(values), 0

    def random(self, size=None):
        if size is None:
            self.pos += 1
            return self.values[self.pos - 1]
        self.pos += size
        return np.array(self.values[self.pos - size:self.pos])


def stream_state(rng):
    return rng._gen.bit_generator.state


BLOCK = core._UNIFORM_BLOCK


def test_nested_substreams_do_not_collide():
    # every stream shares the root's seed; the path tells them apart
    a = RngStream(7).substream(3).substream(1)
    b = RngStream(7).substream(4)
    assert a.uniforms(0, 1, 4).tolist() != b.uniforms(0, 1, 4).tolist()


class TestUniformDraws:
    @pytest.mark.parametrize("m", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    def test_same_values_as_scalar_calls(self, m):
        rng, ref = RngStream(5), RngStream(5)
        draws = rng.uniform_draws()
        assert [next(draws) for _ in range(m)] == [ref.uniform() for _ in range(m)]

    @pytest.mark.parametrize("m", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    def test_stream_ends_at_a_whole_block(self, m):
        rng, ref = RngStream(5), RngStream(5)
        draws = rng.uniform_draws()
        for _ in range(m):
            next(draws)
        ref._gen.random(-(-m // BLOCK) * BLOCK)
        assert stream_state(rng) == stream_state(ref)

    def test_unstarted_generator_draws_nothing(self):
        rng = RngStream(5)
        rng.uniform_draws()
        assert stream_state(rng) == stream_state(RngStream(5))

    @pytest.mark.parametrize("m", [1, 2, BLOCK - 3, BLOCK - 2, BLOCK, 2 * BLOCK - 4])
    def test_skips_zeros_like_uniform(self, m):
        # zeros at a block's start and end, in a run, and across a block boundary
        zeros = {0, 5, 6, 7, BLOCK - 1, BLOCK, 2 * BLOCK - 2, 2 * BLOCK - 1, 2 * BLOCK}
        values = [0.0 if i in zeros else (i + 1) / (4 * BLOCK) for i in range(4 * BLOCK)]
        rng, ref = RngStream(0), RngStream(0)
        rng._gen, ref._gen = SequenceGen(values), SequenceGen(values)
        draws = rng.uniform_draws()
        got = [next(draws) for _ in range(m)]
        assert got == [ref.uniform() for _ in range(m)]
        assert 0.0 not in got


class TestExponentialDraw:
    def test_positive(self):
        rng = RngStream(0)
        assert all(exponential_draw(rng, 2.0) > 0 for _ in range(1000))

    def test_matches_inversion_formula(self):
        u = RngStream(42).uniform()
        assert exponential_draw(RngStream(42), 3.0) == -math.log(u) / 3.0

    def test_distribution(self):
        rng = RngStream(11)
        xs = [exponential_draw(rng, 2.5) for _ in range(20_000)]
        assert stats.kstest(xs, "expon", args=(0, 1 / 2.5)).pvalue > 0.01

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_bad_rate(self, rate):
        with pytest.raises(ParameterError):
            exponential_draw(RngStream(0), rate)


class TestEventTimes:
    def test_basic(self):
        ev = EventTimes([1.0, 2.5, 7.0], horizon=10.0)
        assert len(ev) == 3
        assert ev.count_by(2.5) == 2
        assert ev.count_by(0.5) == 0
        assert ev.count_by(10.0) == 3

    def test_empty(self):
        ev = EventTimes([], horizon=5.0)
        assert len(ev) == 0
        assert inter_arrival_times(ev).size == 0

    def test_boundary_times_allowed(self):
        EventTimes([10.0], horizon=10.0)  # closing endpoint belongs to the window

    @pytest.mark.parametrize(
        "times,horizon",
        [
            ([0.0, 1.0], 5.0),  # zero start excluded from (0, T]
            ([1.0, 1.0], 5.0),  # ties
            ([2.0, 1.0], 5.0),  # unsorted
            ([1.0, 6.0], 5.0),  # beyond horizon
            ([math.nan], 5.0),
            ([1.0], 0.0),
            ([1.0], -1.0),
        ],
    )
    def test_rejects_invalid(self, times, horizon):
        with pytest.raises(ParameterError):
            EventTimes(times, horizon)

    def test_times_are_frozen(self):
        ev = EventTimes([1.0], horizon=2.0)
        with pytest.raises(ValueError):
            ev.times[0] = 0.5

    def test_inter_arrivals_first_from_zero(self):
        ev = EventTimes([1.0, 3.0, 3.5], horizon=4.0)
        assert np.allclose(inter_arrival_times(ev), [1.0, 2.0, 0.5])

    @given(st.lists(st.floats(0.001, 100.0), min_size=1, max_size=30))
    def test_gaps_cumsum_back_to_times(self, gaps):
        times = np.cumsum(gaps)
        ev = EventTimes(times, horizon=float(times[-1]))
        assert np.allclose(np.cumsum(inter_arrival_times(ev)), ev.times)


class TestRegion:
    def test_properties(self):
        r = Region(0, 2, -1, 1)
        assert r.width == 2 and r.height == 2 and r.area == 4

    def test_contains_inclusive(self):
        r = Region(0, 1, 0, 1)
        assert r.contains(0.0, 0.0) and r.contains(1.0, 1.0)
        assert not r.contains(1.0001, 0.5)

    @pytest.mark.parametrize("bounds", [(1, 1, 0, 1), (0, 1, 2, 2), (0, -1, 0, 1)])
    def test_rejects_empty(self, bounds):
        with pytest.raises(ParameterError):
            Region(*bounds)

    @pytest.mark.parametrize("bounds", [(math.nan, 1, 0, 1), (0, math.inf, 0, 1),
                                        (0, 1, -math.inf, 1), (0, 1, 0, math.nan)])
    def test_rejects_non_finite(self, bounds):
        with pytest.raises(ParameterError, match="^region bounds must be finite$"):
            Region(*bounds)

    def test_covers(self):
        assert Region(0, 2, 0, 2).covers(Region(0.5, 1.5, 0, 2))
        assert not Region(0, 1, 0, 1).covers(Region(0, 2, 0, 1))


class TestGridSpec:
    def test_cell_geometry(self):
        spec = GridSpec(Region(0, 1, 0, 2), 4, 8)
        assert spec.cell_width == 0.25 and spec.cell_height == 0.25
        assert spec.ncells == 32
        assert np.allclose(spec.x_centres(), [0.125, 0.375, 0.625, 0.875])

    def test_centre_points_x_major(self):
        spec = GridSpec(Region(0, 1, 0, 1), 2, 3)
        pts = spec.centre_points()
        xc, yc = spec.x_centres(), spec.y_centres()
        for ix in range(2):
            for iy in range(3):
                assert tuple(pts[ix * 3 + iy]) == (xc[ix], yc[iy])

    def test_half_open_cells(self):
        spec = GridSpec(Region(0, 1, 0, 1), 2, 2)
        ix, iy = spec.cell_indices([0.5], [0.25])
        assert (ix[0], iy[0]) == (1, 0)  # internal boundary goes to the upper cell
        ix, iy = spec.cell_indices([1.0], [1.0])
        assert (ix[0], iy[0]) == (1, 1)  # closing edge stays in the last cell

    def test_out_of_bounds_lists_indices(self):
        spec = GridSpec(Region(0, 1, 0, 1), 2, 2)
        with pytest.raises(ParameterError, match=r"\[1, 3, 5, 6, 7\]"):
            spec.cell_indices([0.5, 1.5, 0.2, -0.1, 0.5, np.nan, np.inf, -np.inf],
                              [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize("bad", [0, -1, *NOT_COUNTS])
    def test_rejects_cell_counts_that_are_not_whole(self, bad):
        for nx, ny, name in ((bad, 3, "nx"), (3, bad, "ny")):
            message = f"{name} must be an integer >= 1, got {bad!r}"
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                GridSpec(Region(0, 1, 0, 1), nx, ny)

    def test_whole_cell_counts_become_ints(self):
        spec = GridSpec(Region(0, 1, 0, 1), np.int64(3), 3.0)
        assert spec == GridSpec(Region(0, 1, 0, 1), 3, 3)
        assert type(spec.nx) is int and type(spec.ny) is int

    @pytest.mark.parametrize(
        "region, nx, ny",
        [
            (Region(-1e308, 1e308, 0, 1), 2, 1),  # the width overflows to inf
            (Region(0, 1, -1e308, 1e308), 1, 2),
            (Region(0, 1e-320, 0, 1), 10**4, 1),  # a cell's width underflows to 0
            (Region(0, 1, 0, 1e-320), 1, 10**4),
        ],
        ids=["width-inf", "height-inf", "width-0", "height-0"],
    )
    def test_rejects_cells_not_positive_and_finite(self, region, nx, ny):
        with pytest.raises(ParameterError, match="grid cells must be positive and finite"):
            GridSpec(region, nx, ny)

    @given(
        st.lists(st.floats(0, 1), min_size=1, max_size=50),
        st.lists(st.floats(0, 1), min_size=1, max_size=50),
    )
    @settings(max_examples=50)
    def test_indices_in_range_for_interior_points(self, xs, ys):
        m = min(len(xs), len(ys))
        spec = GridSpec(Region(0, 1, 0, 1), 7, 3)
        ix, iy = spec.cell_indices(xs[:m], ys[:m])
        assert np.all((ix >= 0) & (ix < 7) & (iy >= 0) & (iy < 3))


class TestSpatialPattern:
    def test_basic(self):
        pat = SpatialPattern([[0.1, 0.2], [0.9, 0.8]], Region(0, 1, 0, 1))
        assert len(pat) == 2
        assert pat.intensity == 2.0

    def test_empty(self):
        pat = SpatialPattern([], Region(0, 1, 0, 1))
        assert len(pat) == 0

    def test_rejects_outside(self):
        with pytest.raises(ParameterError, match=r"\[1\]"):
            SpatialPattern([[0.5, 0.5], [1.5, 0.5]], Region(0, 1, 0, 1))

    def test_rejects_bad_shape(self):
        with pytest.raises(ParameterError):
            SpatialPattern([[1.0, 2.0, 3.0]], Region(0, 5, 0, 5))


class TestSpaceTimeEvents:
    def test_basic(self):
        ev = SpaceTimeEvents([[0.1, 0.2, 0.0], [0.5, 0.5, 2.0]], Region(0, 1, 0, 1), 2.0)
        assert len(ev) == 2
        assert np.allclose(ev.t, [0.0, 2.0])
        assert len(ev.spatial()) == 2

    def test_rejects_time_outside(self):
        for t in (3.0, -1.0, np.nan, np.inf, -np.inf):  # nan and +-inf are outside too
            with pytest.raises(ParameterError,
                               match=r"^event times outside \[0, horizon\] at indices \[1\]$"):
                SpaceTimeEvents([[0.5, 0.5, 1.0], [0.5, 0.5, t]], Region(0, 1, 0, 1), 2.0)

    def test_rejects_space_outside(self):
        # the coordinates are checked as a SpatialPattern checks them, with its wording
        cases = [((2.0, 0.5), r"^points outside region at indices \[1\]$"),
                 *(((x, 0.5), "^point coordinates must be finite$")
                   for x in (np.nan, np.inf, -np.inf))]
        for xy, message in cases:
            with pytest.raises(ParameterError, match=message):
                SpaceTimeEvents([[0.5, 0.5, 1.0], [*xy, 1.0]], Region(0, 1, 0, 1), 2.0)

    @pytest.mark.parametrize("events", [[[0.5, 0.5]], [0.5, 0.5, 1.0], [[[0.5, 0.5, 1.0]]]])
    def test_rejects_bad_shape(self, events):
        with pytest.raises(ParameterError, match=r"^events must be \(n, 3\) as \(x, y, t\)"):
            SpaceTimeEvents(events, Region(0, 1, 0, 1), 2.0)

    def test_spatial_is_the_pattern_it_holds(self):
        ev = SpaceTimeEvents([[0.1, 0.2, 0.5], [0.5, 0.5, 1.0]], Region(0, 1, 0, 1), 2.0)
        assert ev.spatial() is ev.spatial()
        assert ev.spatial().points is ev.xy


UNIT_SQUARE = Region(0, 1, 0, 1)
FAR = np.full((10**5, 2), 2.0)  # 10^5 points outside the unit square


class TestOutsideIndexLists:
    """Every "outside" error lists at most ten indices, then the count."""

    @pytest.mark.parametrize("make", [
        lambda: GridSpec(UNIT_SQUARE, 3, 3).cell_indices(FAR[:, 0], FAR[:, 1]),
        lambda: SpatialPattern(FAR, UNIT_SQUARE),
        lambda: SpaceTimeEvents(np.column_stack([FAR, np.zeros(len(FAR))]), UNIT_SQUARE, 1.0),
        lambda: SpaceTimeEvents(np.full((10**5, 3), 0.5) * [1, 1, 9], UNIT_SQUARE, 1.0),
        lambda: core.aggregate_to_grid(SpatialPattern(FAR, Region(0, 3, 0, 3)),
                                       GridSpec(UNIT_SQUARE, 3, 3)),
    ], ids=["cell_indices", "SpatialPattern", "SpaceTimeEvents-space",
            "SpaceTimeEvents-time", "aggregate_to_grid"])
    def test_message_stays_short(self, make):
        with pytest.raises(ParameterError) as info:
            make()
        message = str(info.value)
        assert message.endswith("at indices [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...] (100000 in all)")
        assert len(message) < 150

    def test_ten_indices_are_listed_in_full(self):
        with pytest.raises(ParameterError, match=r"indices \[0, 1, 2, 3, 4, 5, 6, 7, 8, 9\]$"):
            SpatialPattern(FAR[:10], UNIT_SQUARE)


class TestCountGrid:
    def test_basic(self):
        spec = GridSpec(Region(0, 1, 0, 1), 2, 2)
        grid = Grid(spec, [[1, 2], [3, 4]])
        assert grid.values.sum() == 10

    def test_shape_mismatch(self):
        spec = GridSpec(Region(0, 1, 0, 1), 2, 2)
        with pytest.raises(ParameterError):
            Grid(spec, [[1, 2, 3], [4, 5, 6]])


class TestGrid:
    SPEC = GridSpec(Region(0, 1, 0, 1), 2, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ParameterError, match="finite"):
            Grid(self.SPEC, [[1.0], [bad]])

    @pytest.mark.parametrize("values, dtype", [
        ([[1], [2]], np.int64),
        (np.array([[1], [2]], dtype=np.int32), np.int64),
        (np.array([[1], [2]], dtype=np.uint8), np.int64),
        ([[1.0], [2.0]], np.float64),
        ([[1.5], [-2.0]], np.float64),
        (np.array([[0.5], [2.0]], dtype=np.float32), np.float64),
        (np.array([[True], [False]]), np.float64),
    ])
    def test_integers_stay_int64_anything_else_float64(self, values, dtype):
        grid = Grid(self.SPEC, values)
        assert grid.values.dtype == dtype
        assert np.array_equal(grid.values, np.asarray(values))

    def test_values_are_a_frozen_copy(self):
        src = np.array([[1], [2]])
        grid = Grid(self.SPEC, src)
        src[0, 0] = 9
        assert grid.values[0, 0] == 1
        with pytest.raises(ValueError):
            grid.values[0, 0] = 5


class TestIndexedMap:
    @pytest.mark.parametrize("cpus, threads, count, workers", [
        (2, 100_000, 100_000, 6),  # min(32, cpus + 4)
        (None, 8, 100, 5),  # cpu_count unknown counts as one
        (64, 100, 1000, 32),
        (2, 100, 3, 3),  # never more workers than calls
        (1, 4, 10, 4),  # the stdlib default still allows a real pool on one CPU
        (2, 1, 10, None),  # one thread: no pool
        (2, 4, 1, None),  # one call: no pool
        (2, np.int64(2), 10, 2),  # a whole number of any type
        (2, 2.0, 10, 2),
    ])
    def test_pool_size_is_capped(self, monkeypatch, cpus, threads, count, workers):
        seen = []

        class FakePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(core, "ThreadPoolExecutor", FakePool)
        monkeypatch.setattr(core.os, "cpu_count", lambda: cpus)
        assert core.indexed_map(lambda i: i * i, count, threads) == [i * i for i in range(count)]
        assert seen == ([] if workers is None else [workers])

    @pytest.mark.parametrize("threads", [0, 2.9, *NOT_COUNTS])
    def test_threads_must_be_whole(self, threads):
        message = f"threads must be an integer >= 1, got {threads!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            core.indexed_map(lambda i: i, 4, threads)

    @pytest.mark.parametrize("threads", [0, 2.9, *NOT_COUNTS])
    @pytest.mark.parametrize("entry", ["csr_envelope", "space_time_scan"])
    def test_entry_points_refuse_threads_before_any_work(self, monkeypatch, entry, threads):
        reached = []
        for module, name in ((spatial, "g_function"), (detect, "_candidate_discs")):
            def spy(*args, real=getattr(module, name), name=name, **kwargs):
                reached.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        region = Region(0, 1, 0, 1)
        xy = RngStream(5).uniforms(0, 1, 40).reshape(20, 2)
        run = {
            "csr_envelope": lambda t: spatial.csr_envelope(
                SpatialPattern(xy, region), "g", [0.1, 0.2], 19, RngStream(0), threads=t),
            "space_time_scan": lambda t: detect.space_time_scan(
                SpaceTimeEvents(np.column_stack([xy, xy[:, 0]]), region, 1.0),
                GridSpec(region, 4, 4), 2, [0.3], [0.5], 99, RngStream(0), threads=t),
        }[entry]
        message = f"threads must be an integer >= 1, got {threads!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            run(threads)
        assert reached == []
        run(1)  # a valid call passes the spy
        assert reached


_GRID = Grid(GridSpec(Region(0, 1, 0, 1), 2, 2), [[1, 2], [3, 4]])
_PATTERN = SpatialPattern([[0.5, 0.5]], Region(0, 1, 0, 1))
_KERNEL = ExponentialKernel(0.5, 1.0)

# (site, parameter name in the message, zero accepted, call with the value)
SCALAR_SITES = [
    ("EventTimes", "horizon", False, lambda v: EventTimes([], v)),
    ("SpaceTimeEvents", "horizon", False, lambda v: SpaceTimeEvents([], Region(0, 1, 0, 1), v)),
    ("gi_star", "neighbourhood radius", False, lambda v: gi_star(_GRID, v)),
    ("Cylinder", "radius", False, lambda v: Cylinder(0.5, 0.5, v, 0.0, 1.0)),
    ("simulate_csr", "rate", False, lambda v: simulate_csr(v, Region(0, 1, 0, 1), RngStream(0))),
    ("kde_surface", "bandwidth", False, lambda v: kde_surface(_PATTERN, _GRID.spec, v)),
    ("poisson_count_pmf", "rate", False, lambda v: poisson_count_pmf(v, 0.0, 1.0, 0)),
    ("simulate_hpp.rate", "rate", False, lambda v: simulate_hpp(v, 1.0, RngStream(0))),
    ("simulate_hpp.horizon", "horizon", False, lambda v: simulate_hpp(1.0, v, RngStream(0))),
    ("simulate_nhpp", "horizon", False,
     lambda v: simulate_nhpp(IntensityFn.constant(1.0, 1.0), v, RngStream(0))),
    ("simulate_hawkes.mu", "mu", False,
     lambda v: simulate_hawkes(HawkesModel(v, _KERNEL), 1.0, RngStream(0))),
    ("simulate_hawkes.horizon", "horizon", False,
     lambda v: simulate_hawkes(HawkesModel(1.0, _KERNEL), v, RngStream(0))),
    ("IntensityFn.constant", "rate", True, lambda v: IntensityFn.constant(v, 1.0)),
    ("IntensityFn.constant.horizon", "horizon", False, lambda v: IntensityFn.constant(1.0, v)),
    ("IntensityFn.sinusoid", "period", False, lambda v: IntensityFn.sinusoid(2.0, 1.0, v, 1.0)),
    ("IntensityFn.sinusoid.horizon", "horizon", False,
     lambda v: IntensityFn.sinusoid(2.0, 1.0, 1.0, v)),
    ("ExponentialKernel.alpha", "alpha", True, lambda v: ExponentialKernel(v, 1.0)),
    ("ExponentialKernel.beta", "beta", False, lambda v: ExponentialKernel(0.5, v)),
    ("PowerLawKernel.alpha", "alpha", True, lambda v: PowerLawKernel(v, 1.0, 1.0)),
    ("PowerLawKernel.delta", "delta", False, lambda v: PowerLawKernel(0.5, v, 1.0)),
    ("PowerLawKernel.eta", "eta", False, lambda v: PowerLawKernel(0.5, 1.0, v)),
    ("HawkesModel", "mu", True, lambda v: HawkesModel(v, _KERNEL)),
]


class TestScalarChecks:
    @pytest.mark.filterwarnings("ignore:branching factor")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name,zero_ok,call", [s[1:] for s in SCALAR_SITES],
                             ids=[s[0] for s in SCALAR_SITES])
    def test_non_finite_and_negative_values_name_the_parameter(self, name, zero_ok, call, value):
        with pytest.raises(ParameterError) as info:
            call(value)
        assert str(info.value).startswith(f"{name} must be ")

    @pytest.mark.parametrize("name,zero_ok,call", [s[1:] for s in SCALAR_SITES],
                             ids=[s[0] for s in SCALAR_SITES])
    def test_zero(self, name, zero_ok, call):
        if zero_ok:
            call(0.0)
        else:
            with pytest.raises(ParameterError, match=f"^{name} must be positive and finite"):
                call(0.0)

    def test_messages(self):
        assert core._positive(3, "period") == 3.0
        assert core._non_negative(0, "mu") == 0.0
        with pytest.raises(ParameterError, match=r"^rate must be positive and finite, got -1\.0$"):
            core._positive(-1)
        with pytest.raises(ParameterError, match=r"^mu must be >= 0 and finite, got nan$"):
            core._non_negative(math.nan, "mu")
