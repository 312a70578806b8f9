import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import _oracles as brute
from pointproc import (
    Cylinder,
    DegenerateDataError,
    Grid,
    GridSpec,
    ParameterError,
    Region,
    RngStream,
    ScanResult,
    ScanResults,
    SpaceTimeEvents,
    SpatialPattern,
    aggregate_to_grid,
    gi_star,
    rss,
    simulate_csr,
    space_time_scan,
)
from pointproc import detect
from pointproc.detect import _poisson_llr

UNIT = Region(0, 1, 0, 1)


class TestAggregateToGrid:
    def test_placement_and_total(self):
        spec = GridSpec(UNIT, 2, 2)
        pat = SpatialPattern([[0.1, 0.1], [0.6, 0.1], [0.6, 0.9], [0.9, 0.8]], UNIT)
        grid = aggregate_to_grid(pat, spec)
        assert grid.values.sum() == 4
        assert np.array_equal(grid.values, [[1, 0], [1, 2]])

    def test_empty_pattern(self):
        grid = aggregate_to_grid(SpatialPattern([], UNIT), GridSpec(UNIT, 3, 3))
        assert grid.values.sum() == 0

    def test_boundary_points(self):
        spec = GridSpec(UNIT, 2, 2)
        pat = SpatialPattern([[0.5, 0.5], [1.0, 1.0]], UNIT)
        grid = aggregate_to_grid(pat, spec)
        assert grid.values[1, 1] == 2  # half-open cells, closed final edges

    def test_out_of_bounds_reports_indices(self):
        spec = GridSpec(Region(0, 0.5, 0, 0.5), 2, 2)
        pat = SpatialPattern([[0.1, 0.1], [0.9, 0.9]], UNIT)
        with pytest.raises(ParameterError, match=r"\[1\]"):
            aggregate_to_grid(pat, spec)

    def test_grid_must_cover_region_even_when_points_fit(self):
        spec = GridSpec(Region(0, 0.5, 0, 0.5), 2, 2)
        pat = SpatialPattern([[0.1, 0.1], [0.4, 0.3]], UNIT)
        with pytest.raises(ParameterError, match=r"cover.*\[\]"):
            aggregate_to_grid(pat, spec)


class TestRss:
    def test_identity_zero(self):
        grid = aggregate_to_grid(simulate_csr(100, UNIT, RngStream(0)), GridSpec(UNIT, 4, 4))
        assert rss(grid, grid) == 0.0

    def test_hand_value(self):
        spec = GridSpec(UNIT, 2, 2)
        a = Grid(spec, [[5, 0], [0, 0]])
        b = Grid(spec, [[2, 0], [0, 3]])
        assert rss(a, b) == 18.0  # 3^2 + 3^2

    def test_symmetry(self):
        spec = GridSpec(UNIT, 2, 2)
        a = Grid(spec, [[1, 2], [3, 4]])
        b = Grid(spec, [[4, 3], [2, 1]])
        assert rss(a, b) == rss(b, a)

    def test_spec_mismatch(self):
        a = Grid(GridSpec(UNIT, 2, 2), np.zeros((2, 2), dtype=int))
        b = Grid(GridSpec(UNIT, 2, 3), np.zeros((2, 3), dtype=int))
        with pytest.raises(ParameterError, match="same grid"):
            rss(a, b)


COLLIDED = GridSpec(Region(1e16, 1e16 + 64, 0, 1), 64, 2)  # x centres collide in pairs

LATTICE_GEOMETRIES = pytest.mark.parametrize("spec", [
    GridSpec(UNIT, 10, 10), GridSpec(UNIT, 17, 23), COLLIDED, GridSpec(UNIT, 1, 7),
    GridSpec(UNIT, 23, 1), GridSpec(Region(-3.25, 9.75, 2.5, 11.5), 13, 9),
], ids=["10-10", "17-23", "collided", "1x7", "23x1", "offset-13x9"])


def tie_radii(spec):
    """Every distinct lattice distance np.hypot(k * cell_width, l *
    cell_height) > 0: the radii that put a cell on a disc's edge."""
    k = np.arange(spec.nx)[:, None] * spec.cell_width
    l = np.arange(spec.ny)[None, :] * spec.cell_height
    d = np.unique(np.hypot(k, l))
    return d[d > 0]


def around(radii):
    """The radii and their neighbours one ulp below and above."""
    radii = np.asarray(radii, dtype=float)
    return np.unique([np.nextafter(radii, 0.0), radii, np.nextafter(radii, np.inf)])


class TestDiscTemplate:
    @LATTICE_GEOMETRIES
    def test_matches_the_lattice_oracle_at_every_tie_radius(self, spec):
        for r in around(tie_radii(spec)):
            assert np.array_equal(detect._disc_template(spec, r), brute.disc_template(spec, r)), r

    def test_ties_are_outside(self):
        # a radius of exactly one cell holds the centre cell alone
        spec = GridSpec(UNIT, 10, 10)
        assert detect._disc_template(spec, 0.1).tolist() == [0] + [-1] * 9
        assert detect._disc_template(spec, np.nextafter(0.1, 1)).tolist() == [1, 0] + [-1] * 8

    def test_extreme_radii_and_cells(self):
        assert detect._disc_template(GridSpec(UNIT, 3, 4), 1e308).tolist() == [3, 3, 3]
        tiny = GridSpec(Region(0, 1e-300, 0, 1e-300), 4, 4)
        assert detect._disc_template(tiny, 1e-300).tolist() == [3, 3, 3, 2]
        assert detect._disc_template(tiny, 5e-324).tolist() == [0, -1, -1, -1]


class TestGiStar:
    def test_matches_dense_reference(self):
        spec = GridSpec(UNIT, 6, 5)
        for seed in range(5):
            grid = aggregate_to_grid(simulate_csr(250, UNIT, RngStream(seed)), spec)
            z = gi_star(grid, 0.25).values.ravel()
            ref = brute.gi_star(grid.values.ravel(), spec.centre_points(), 0.25)
            assert np.allclose(z, ref, rtol=1e-12, atol=1e-12)

    def test_hot_cell_has_positive_max_z(self):
        spec = GridSpec(UNIT, 5, 5)
        counts = np.full((5, 5), 2, dtype=int)
        counts[2, 2] = 40
        zg = gi_star(Grid(spec, counts), 0.21)
        assert zg.values[2, 2] == zg.values.max()
        assert zg.values[2, 2] > 0
        assert (zg.values >= 1.96)[2, 2]

    def test_cold_region_negative(self):
        spec = GridSpec(UNIT, 5, 5)
        counts = np.full((5, 5), 20, dtype=int)
        counts[0, 0] = counts[0, 1] = counts[1, 0] = counts[1, 1] = 0
        zg = gi_star(Grid(spec, counts), 0.21)
        assert zg.values[0, 0] < 0

    def test_uniform_counts_degenerate(self):
        spec = GridSpec(UNIT, 4, 4)
        with pytest.raises(DegenerateDataError, match="equal"):
            gi_star(Grid(spec, np.full((4, 4), 3, dtype=int)), 0.3)

    def test_radius_covering_grid_degenerate(self):
        spec = GridSpec(UNIT, 3, 3)
        counts = np.arange(9).reshape(3, 3)
        with pytest.raises(DegenerateDataError, match="whole grid"):
            gi_star(Grid(spec, counts), 5.0)

    def test_full_coverage_raises_before_any_sum(self):
        # 3,600 cells at radius 2 have 13 million (centre, cell) pairs; the
        # template decides full coverage first.  GI* calls no scipy, so
        # tracemalloc sees every allocation
        grid = Grid(GridSpec(UNIT, 60, 60), np.arange(3600).reshape(60, 60) % 7)
        tracemalloc.start()
        try:
            with pytest.raises(DegenerateDataError, match="whole grid"):
                gi_star(grid, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_partial_full_coverage_gets_zero(self):
        # middle cell of a 1x5 strip sees everything at radius 3; corners do not
        region = Region(0, 5, 0, 1)
        spec = GridSpec(region, 5, 1)
        counts = np.array([[5], [1], [2], [0], [4]])
        zg = gi_star(Grid(spec, counts), 3.0)
        assert zg.values[2, 0] == 0.0
        assert zg.values[0, 0] != 0.0

    def test_weights_are_symmetric_in_sign(self):
        # flipping counts around the mean flips z
        spec = GridSpec(UNIT, 4, 4)
        c = np.arange(16).reshape(4, 4)
        z1 = gi_star(Grid(spec, c), 0.3).values
        z2 = gi_star(Grid(spec, (15 - c)), 0.3).values
        assert np.allclose(z1, -z2, atol=1e-12)

    def test_neighbourhood_includes_the_cell(self):
        # below the cell spacing each neighbourhood is the cell alone (W = 1),
        # so z is the standardised count; without the self pair W would be 0
        spec = GridSpec(UNIT, 4, 5)
        counts = np.arange(20).reshape(4, 5) % 7
        x = counts.ravel().astype(float)
        z = gi_star(Grid(spec, counts), 0.1).values.ravel()
        assert np.array_equal(z, (x - x.mean()) / x.std())

    def test_bad_radius(self):
        grid = Grid(GridSpec(UNIT, 2, 2), [[1, 2], [3, 4]])
        with pytest.raises(ParameterError):
            gi_star(grid, 0.0)

    @LATTICE_GEOMETRIES
    def test_matches_the_template_rule_at_every_tie_radius(self, spec):
        # every lattice distance, and one ulp either side, puts cells on
        # or next to the edge of the open disc
        counts = np.arange(spec.ncells).reshape(spec.nx, spec.ny) * 7 % 11
        grid, radii = Grid(spec, counts), around(tie_radii(spec))
        for r, ref in zip(radii, brute.gi_star_lattice(counts.ravel(), spec, radii)):
            try:
                z = gi_star(grid, r).values.ravel()
            except DegenerateDataError:  # every neighbourhood is the whole grid
                z = np.zeros(spec.ncells)
            assert np.array_equal(z, ref), r

    def test_large_radius_lists_no_pairs(self):
        # radius 0.9 leaves corner cells uncovered, so GI* is defined; it
        # has 12 million (centre, cell) pairs, but GI* sums column runs
        grid = Grid(GridSpec(UNIT, 60, 60), np.arange(3600).reshape(60, 60) % 7)
        tracemalloc.start()
        try:
            z = gi_star(grid, 0.9).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(z)) and np.any(z != 0.0)
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("nx,ny", [(20000, 1), (1, 20000)])
    def test_long_strip_holds_no_axis_table(self, nx, ny):
        # an (n, n) table of offsets along the strip would take 3.2 GB;
        # each centre's neighbourhood is the 7 cells within 3.5 cells
        spec = GridSpec(UNIT, nx, ny)
        grid = Grid(spec, (np.arange(spec.ncells) % 5).reshape(nx, ny))
        tracemalloc.start()
        try:
            z = gi_star(grid, 3.5 / spec.ncells).values.ravel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        x = grid.values.ravel().astype(float)
        window = np.convolve(x, np.ones(7))[3:-3]
        size = np.convolve(np.ones_like(x), np.ones(7))[3:-3]
        n = spec.ncells
        ref = (window - x.mean() * size) / (x.std() * np.sqrt((n * size - size**2) / (n - 1)))
        assert np.allclose(z, ref, rtol=1e-12, atol=1e-12)
        assert peak < 32 * 2**20

    def test_tiny_region_matches_the_unit_grid(self):
        # squared offsets of 1e-171 would underflow to 0; np.hypot does not
        counts = np.arange(100).reshape(10, 10) % 7
        tiny = GridSpec(Region(0, 1e-170, 0, 1e-170), 10, 10)
        z = gi_star(Grid(tiny, counts), 1.5e-171).values
        assert np.array_equal(z, gi_star(Grid(GridSpec(UNIT, 10, 10), counts), 0.15).values)


class TestPoissonLlr:
    def test_hand_value(self):
        llr = _poisson_llr(np.array(10.0), np.array(5.0), 100.0)
        expect = 10 * math.log(10 / 5) + 90 * math.log(90 / 95)
        assert float(llr) == pytest.approx(expect, rel=1e-12)

    def test_zero_when_not_elevated(self):
        assert float(_poisson_llr(np.array(5.0), np.array(5.0), 100.0)) == 0.0
        assert float(_poisson_llr(np.array(3.0), np.array(5.0), 100.0)) == 0.0
        assert float(_poisson_llr(np.array(0.0), np.array(0.0), 100.0)) == 0.0

    def test_all_mass_inside(self):
        llr = _poisson_llr(np.array(100.0), np.array(5.0), 100.0)
        assert float(llr) == pytest.approx(100 * math.log(20), rel=1e-12)

    def test_zero_expectation_infinite_evidence(self):
        assert math.isinf(float(_poisson_llr(np.array(3.0), np.array(0.0), 100.0)))

    def test_monotone_in_observed(self):
        ns = np.arange(6.0, 30.0)
        vals = _poisson_llr(ns, np.full_like(ns, 5.0), 100.0)
        assert np.all(np.diff(vals) > 0)


def run_masks(spec, runs):
    """Column runs [lo, hi) of iy expanded to one dense 0/1 row per disc:
    +1 at each lo and -1 at each hi, cumulated down the column."""
    disc, ix = np.indices(runs.shape[:2])
    edges = np.zeros((len(runs), spec.nx, spec.ny + 1))
    np.add.at(edges, (disc, ix, runs[..., 0]), 1.0)
    np.add.at(edges, (disc, ix, runs[..., 1]), -1.0)
    return edges.cumsum(axis=2)[..., :-1].reshape(len(runs), spec.ncells)


DISC_GEOMETRIES = pytest.mark.parametrize("spec,radii", [
    (GridSpec(UNIT, 30, 30), [0.05, 0.1, 0.15]),
    (GridSpec(UNIT, 17, 23), [0.15, 0.05, 0.3, 0.05]),
    (GridSpec(UNIT, 1, 1), [0.2]),
    (GridSpec(UNIT, 6, 4), [100.0]),
    (GridSpec(Region(0, 1e-100, 0, 1e-100), 8, 8), [1e-101, 3e-101, 7e-101]),
    (COLLIDED, [0.5, 1.0, 2.5]),
    (GridSpec(UNIT, 10, 13), None),
    # squared distances would underflow; hypot does not
    (GridSpec(Region(0, 1e-158, 0, 7e-159), 7, 5), None),
    (GridSpec(UNIT, 17, 23), None),
], ids=["bench", "17x23", "1x1", "radius-100", "1e-100-wide", "collided", "on-boundary",
        "1e-158-wide", "17x23-on-boundary"])


class TestCandidateDiscs:
    """The column-run disc builder against the dense-mask reference: the
    same cells and the same representatives, in the same order."""

    @DISC_GEOMETRIES
    def test_matches_dense_masks(self, spec, radii):
        radii = tie_radii(spec) if radii is None else np.asarray(radii, dtype=float)
        runs, reps = detect._candidate_discs(spec, radii)
        want, want_reps = brute.dense_discs(spec, radii)
        assert runs.shape == (len(want), spec.nx, 2)
        assert np.array_equal(run_masks(spec, runs), want)
        assert np.array_equal(reps, np.array(want_reps))

    @DISC_GEOMETRIES
    def test_run_sums_match_the_dense_members(self, spec, radii):
        radii = tie_radii(spec) if radii is None else np.asarray(radii, dtype=float)
        runs, _ = detect._candidate_discs(spec, radii)
        members, _ = brute.dense_discs(spec, radii)
        counts = np.random.default_rng(spec.ncells).integers(0, 50, (spec.ncells, 6))
        cum = np.zeros((spec.ncells, 7))
        np.cumsum(counts, axis=1, out=cum[:, 1:])
        sums = detect._run_matrix(runs, spec.ny) @ detect._prefix_sums(counts, spec.nx, spec.ny)
        assert np.array_equal(sums, members @ cum)

    def test_whole_region_radius_lists_no_pairs(self):
        # radius 2 puts every cell in every disc: 13 million (centre, cell)
        # pairs, about 1 GB of numpy buffers if measured at once; the
        # template is measured once per column offset
        tracemalloc.start()
        try:
            runs, reps = detect._candidate_discs(GridSpec(UNIT, 60, 60), np.array([2.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        members = run_masks(GridSpec(UNIT, 60, 60), runs)
        assert members.shape == (1, 3600) and np.count_nonzero(members) == 3600
        assert reps.shape == (1, 3) and reps[0, 2] == 2.0
        assert peak < 32 * 2**20


def disc_masks(spec, radii):
    """The scan's distinct discs as a set of (nx, ny) boolean masks in bytes."""
    runs, _ = detect._candidate_discs(spec, np.asarray(radii, dtype=float))
    masks = run_masks(spec, runs).reshape(-1, spec.nx, spec.ny) > 0
    return masks, {m.tobytes() for m in masks}


class TestOneShapePerRadius:
    """A radius gives one disc shape, wherever its centre lies."""

    @pytest.mark.parametrize("spec,radius", [
        (GridSpec(UNIT, 30, 30), 0.1), (GridSpec(UNIT, 17, 17), 2 / 17),
        (GridSpec(UNIT, 60, 60), 0.05), (GridSpec(UNIT, 17, 23), 0.15),
        (GridSpec(Region(-3.25, 9.75, 2.5, 11.5), 13, 9), 3.0),
    ], ids=["bench-3-cells", "17x17-2-cells", "60x60-3-cells", "17x23", "offset-13x9"])
    def test_interior_discs_are_translates_of_one_shape(self, spec, radius):
        runs, reps = detect._candidate_discs(spec, np.array([radius]))
        ix = np.rint((reps[:, 0] - spec.region.xmin) / spec.cell_width - 0.5).astype(int)
        iy = np.rint((reps[:, 1] - spec.region.ymin) / spec.cell_height - 0.5).astype(int)
        half = brute.disc_template(spec, radius)
        rx, ry = np.count_nonzero(half >= 0) - 1, half.max()
        interior = (rx <= ix) & (ix < spec.nx - rx) & (ry <= iy) & (iy < spec.ny - ry)
        # every interior centre gives a disc of its own, and all are one shape
        assert np.count_nonzero(interior) == (spec.nx - 2 * rx) * (spec.ny - 2 * ry) > 0
        shapes = set()
        for d in np.flatnonzero(interior):
            cols = slice(ix[d] - rx, ix[d] + rx + 1)
            assert np.count_nonzero(runs[d, :, 1] > runs[d, :, 0]) == 2 * rx + 1
            shapes.add((runs[d, cols] - iy[d]).tobytes())
        assert len(shapes) == 1

    @pytest.mark.parametrize("spec,radii", [
        (GridSpec(UNIT, 17, 23), around([2 / 17, 3 / 23, 0.15])),
        (GridSpec(UNIT, 30, 30), around([0.05, 0.1, 0.15])),
    ], ids=["17x23", "bench"])
    def test_mirrors_mirror_the_discs_and_gi_star(self, spec, radii):
        masks, discs = disc_masks(spec, radii)
        assert {m[::-1].tobytes() for m in masks} == discs
        assert {m[:, ::-1].tobytes() for m in masks} == discs
        counts = np.random.default_rng(3).integers(0, 9, (spec.nx, spec.ny))
        for r in radii:
            z = gi_star(Grid(spec, counts), r).values
            for flip in (np.flipud, np.fliplr):
                # only x.mean() and x.std() depend on the order of the cells
                mirrored = gi_star(Grid(spec, flip(counts)), r).values
                assert np.allclose(flip(mirrored), z, rtol=1e-12, atol=1e-12), r

    @pytest.mark.parametrize("spec", [
        GridSpec(UNIT, 10, 10), GridSpec(Region(0, 17, 0, 23), 17, 23),
    ], ids=["10x10", "17x23-unit-cells"])
    def test_transposing_square_cells_transposes_the_discs_and_gi_star(self, spec):
        r0 = spec.region
        flipped = GridSpec(Region(r0.ymin, r0.ymax, r0.xmin, r0.xmax), spec.ny, spec.nx)
        radii = around(tie_radii(spec)[:12])
        masks, _ = disc_masks(spec, radii)
        assert {m.T.tobytes() for m in masks} == disc_masks(flipped, radii)[1]
        counts = np.random.default_rng(4).integers(0, 9, (spec.nx, spec.ny))
        for r in around(tie_radii(spec)):
            try:
                z = gi_star(Grid(spec, counts), r).values
            except DegenerateDataError:
                continue
            transposed = gi_star(Grid(flipped, counts.T), r).values
            assert np.allclose(transposed.T, z, rtol=1e-12, atol=1e-12), r


def make_events(seed, n=60, horizon=1.0):
    g = np.random.default_rng(seed)
    data = np.column_stack([g.random(n), g.random(n), horizon * g.random(n)])
    return SpaceTimeEvents(data, UNIT, horizon)


class TestSpaceTimeScan:
    SPEC = GridSpec(UNIT, 5, 5)

    def scan(self, events, seed=1, nsim=99, **kw):
        return space_time_scan(
            events, self.SPEC, 5, [0.15, 0.3], [0.2, 0.4], nsim, RngStream(seed), **kw
        )

    def test_deterministic(self):
        ev = make_events(0)
        a = self.scan(ev)
        b = self.scan(ev)
        assert [(r.llr, r.p_value, r.cylinder) for r in a] == [
            (r.llr, r.p_value, r.cylinder) for r in b
        ]

    def test_thread_count_does_not_change_result(self):
        ev = make_events(0)
        a = self.scan(ev, threads=1)
        b = self.scan(ev, threads=4)
        assert [(r.llr, r.p_value) for r in a] == [(r.llr, r.p_value) for r in b]

    def test_sorted_by_llr(self):
        res = self.scan(make_events(3))
        llrs = [r.llr for r in res]
        assert llrs == sorted(llrs, reverse=True)

    def test_p_value_bounds(self):
        res = self.scan(make_events(4))
        assert all(1 / 100 <= r.p_value <= 1.0 for r in res)

    def test_windows_end_at_the_horizon(self):
        # 35 * (0.7 / 35) rounds above 0.7: the last window end is clamped
        res = space_time_scan(make_events(5, horizon=0.7), self.SPEC, 35, [0.3], [0.5], 99,
                              RngStream(1))
        t_end = res.columns[4]
        assert t_end.max() == 0.7
        assert [r.cylinder.t_end for r in res] == t_end.tolist()

    def test_duration_past_the_horizon_covers_every_slice(self):
        # 1e308 slices overflow to inf; like the horizon itself, they clamp to 5
        ev = make_events(6)
        a, b = (space_time_scan(ev, self.SPEC, 5, [0.3], [d], 99, RngStream(1)).columns
                for d in (1e308, ev.horizon))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_observed_matches_direct_count(self):
        ev = make_events(5)
        res = self.scan(ev)
        top = res[0]
        c = top.cylinder
        # recount at scan resolution: cell centres inside the disc,
        # whole slices inside the window
        ix = np.minimum((ev.xy[:, 0] * 5).astype(int), 4)
        iy = np.minimum((ev.xy[:, 1] * 5).astype(int), 4)
        cx, cy = (ix + 0.5) / 5, (iy + 0.5) / 5
        s = np.minimum((ev.t * 5).astype(int), 4)
        inside = (
            (np.sqrt((cx - c.cx) ** 2 + (cy - c.cy) ** 2) <= c.radius)
            & (s >= round(c.t_start * 5))
            & (s < round(c.t_end * 5))
        )
        assert top.observed == int(inside.sum())

    def test_expected_scales_with_volume(self):
        ev = make_events(6, n=100)
        res = self.scan(ev)
        for r in res:
            assert r.expected > 0
        # uniform baseline: expected = N * cylinder volume fraction
        top = res[0]
        assert top.expected <= 100.0

    def test_all_events_in_one_cylinder_attains_max(self):
        # every event in the same cell and slice: that cylinder is unbeatable
        g = np.random.default_rng(2)
        n = 40
        data = np.column_stack(
            [0.5 + 0.05 * (g.random(n) - 0.5), 0.5 + 0.05 * (g.random(n) - 0.5), 0.45 + 0.1 * g.random(n)]
        )
        ev = SpaceTimeEvents(data, UNIT, 1.0)
        res = self.scan(ev)
        top = res[0]
        assert top.observed == n
        assert top.llr == max(r.llr for r in res)
        # the top cylinder is the tightest one containing everything
        assert top.cylinder.radius == 0.15

    def test_baseline_rescaling_invariance(self):
        ev = make_events(7)
        base1 = [
            Grid(self.SPEC, np.full((5, 5), 4, dtype=int)) for _ in range(5)
        ]
        base5 = [
            Grid(self.SPEC, np.full((5, 5), 20, dtype=int)) for _ in range(5)
        ]
        r1 = self.scan(ev, baseline=base1)
        r5 = self.scan(ev, baseline=base5)
        assert [(r.llr, r.p_value, r.expected) for r in r1] == [
            (r.llr, r.p_value, r.expected) for r in r5
        ]

    def test_uniform_baseline_equals_default(self):
        # same null up to float rounding (area*length vs normalised counts)
        ev = make_events(8)
        uniform = [Grid(self.SPEC, np.ones((5, 5), dtype=int)) for _ in range(5)]
        a = {r.cylinder: r for r in self.scan(ev)}
        b = {r.cylinder: r for r in self.scan(ev, baseline=uniform)}
        assert a.keys() == b.keys()
        for cyl, ra in a.items():
            assert ra.llr == pytest.approx(b[cyl].llr, rel=1e-9, abs=1e-12)
            assert ra.observed == b[cyl].observed

    def test_uniform_baseline_gives_the_default_columns_exactly(self):
        # the explicit baseline searches the cumulative mass 1, 2, ..., M for
        # each draw; the default truncates it: the same cells, the same bytes
        ev = make_events(8)
        uniform = [Grid(self.SPEC, np.ones((5, 5), dtype=int)) for _ in range(5)]
        for a, b in zip(self.scan(ev).columns, self.scan(ev, baseline=uniform).columns):
            np.testing.assert_array_equal(a, b, strict=True)

    @pytest.mark.parametrize("kind", ["default", "integer", "float"])
    def test_float32_replicates_match_float64(self, kind):
        g = np.random.default_rng(9)
        baseline = {
            "default": None,
            "integer": [Grid(self.SPEC, g.integers(0, 4, (5, 5))) for _ in range(5)],
            "float": [Grid(self.SPEC, g.random((5, 5)) + 0.1) for _ in range(5)],
        }[kind]
        ev = make_events(10)
        runs = {}
        for limit in (detect._F32_EXACT, 0):
            spy = mock.patch.object(detect, "_prefix_sums", wraps=detect._prefix_sums)
            with mock.patch.object(detect, "_F32_EXACT", limit), spy as prefix:
                runs[limit] = self.scan(ev, baseline=baseline).columns
            # the replicates' prefix sums are the calls that name a dtype
            assert {c.args[3] for c in prefix.call_args_list if len(c.args) > 3} == {
                np.float32 if limit else np.float64
            }
        for a, b in zip(*runs.values()):
            np.testing.assert_array_equal(a, b, strict=True)

    def test_concentrated_baseline_absorbs_cluster(self):
        # all events in one corner cell: glaring under a uniform baseline,
        # unremarkable once the baseline carries the same concentration
        g = np.random.default_rng(3)
        n = 30
        data = np.column_stack(
            [0.1 * g.random(n), 0.1 * g.random(n), g.random(n)]
        )
        ev = SpaceTimeEvents(data, UNIT, 1.0)
        mass = np.zeros((5, 5), dtype=int)
        mass[0, 0] = 100
        matched = [Grid(self.SPEC, mass) for _ in range(5)]
        hot = self.scan(ev)
        calm = self.scan(ev, baseline=matched)
        assert hot[0].p_value == 0.01
        assert calm[0].p_value > 0.05
        assert calm[0].llr < hot[0].llr / 5

    def test_planted_cluster_recovered(self):
        g = np.random.default_rng(11)
        bg = np.column_stack([g.random(50), g.random(50), g.random(50)])
        rr = 0.1 * np.sqrt(g.random(30))
        th = 2 * np.pi * g.random(30)
        inj = np.column_stack(
            [0.5 + rr * np.cos(th), 0.5 + rr * np.sin(th), 0.4 + 0.2 * g.random(30)]
        )
        ev = SpaceTimeEvents(np.vstack([bg, inj]), UNIT, 1.0)
        res = space_time_scan(
            ev, GridSpec(UNIT, 10, 10), 10, [0.08, 0.1, 0.15], [0.1, 0.2, 0.4], 99, RngStream(5)
        )
        top = res[0]
        assert top.p_value <= 0.05
        assert top.observed >= 30
        # planted window [0.4, 0.6] is recovered
        assert top.cylinder.t_start == pytest.approx(0.4)
        assert top.cylinder.t_end == pytest.approx(0.6)

    def test_validation_errors(self):
        ev = make_events(0)
        with pytest.raises(ParameterError, match="99"):
            self.scan(ev, nsim=98)
        with pytest.raises(ParameterError, match="radii"):
            space_time_scan(ev, self.SPEC, 5, [], [0.2], 99, RngStream(0))
        with pytest.raises(ParameterError, match="durations"):
            space_time_scan(ev, self.SPEC, 5, [0.1], [-0.2], 99, RngStream(0))
        with pytest.raises(ParameterError, match="slice"):
            space_time_scan(ev, self.SPEC, 0, [0.1], [0.2], 99, RngStream(0))
        with pytest.raises(ParameterError, match="event"):
            space_time_scan(
                SpaceTimeEvents([], UNIT, 1.0), self.SPEC, 5, [0.1], [0.2], 99, RngStream(0)
            )

    def test_grid_must_cover_the_events(self):
        # the scan bins through aggregate_to_grid's check, which lists the outside events
        ev = SpaceTimeEvents([[0.1, 0.1, 0.5], [0.9, 0.2, 0.5], [0.3, 0.4, 0.5]], UNIT, 1.0)
        small = GridSpec(Region(0, 0.5, 0, 0.5), 5, 5)
        with pytest.raises(ParameterError, match=r"cover.*at indices \[1\]$"):
            space_time_scan(ev, small, 5, [0.1], [0.2], 99, RngStream(0))

    def test_baseline_validation(self):
        ev = make_events(0)
        short = [Grid(self.SPEC, np.ones((5, 5), dtype=int))] * 4
        with pytest.raises(ParameterError, match="per slice"):
            self.scan(ev, baseline=short)
        other_spec = GridSpec(UNIT, 4, 4)
        wrong = [Grid(other_spec, np.ones((4, 4), dtype=int))] * 5
        with pytest.raises(ParameterError, match="match"):
            self.scan(ev, baseline=wrong)
        zero = [Grid(self.SPEC, np.zeros((5, 5), dtype=int))] * 5
        with pytest.raises(DegenerateDataError, match="zero total"):
            self.scan(ev, baseline=zero)

    def test_negative_baseline_rejected(self):
        mass = np.ones((5, 5))
        mass[2, 3] = -0.5
        grids = [Grid(self.SPEC, np.ones((5, 5)))] * 4 + [Grid(self.SPEC, mass)]
        with pytest.raises(ParameterError, match="baseline grid 4 has a negative value"):
            self.scan(make_events(0), baseline=grids)

    def test_fractional_baseline_is_mass(self):
        # 0.5 per cell is the integer baseline 4 scaled by 2**-3: exactly the same null
        ev = make_events(7)
        whole = self.scan(ev, baseline=[Grid(self.SPEC, np.full((5, 5), 4))] * 5)
        half = self.scan(ev, baseline=[Grid(self.SPEC, np.full((5, 5), 0.5))] * 5)
        assert scan_rows(whole) == scan_rows(half)


def scan_rows(results):
    return [(r.cylinder, r.observed, r.expected, r.llr, r.p_value) for r in results]


def float_mass_bound(spec, n_slices, total):
    """The bound on |expected - exact| for a float baseline: k * eps *
    total, k = 4 * (nx + ny + n_slices).  A 2-D prefix sum rounds ny +
    n_slices times, a disc sums 2 nx of them, a window takes the
    difference of two disc sums, and the scaling to the total rounds a few
    times more: each rounding is at most eps / 2 of the total mass."""
    return 4 * (spec.nx + spec.ny + n_slices) * np.finfo(float).eps * total


def assert_rows_within(got, want, bound):
    """A float-baseline scan against the exact oracle: the same cylinders,
    counts and p-values in the same order, `expected` within `bound` and
    the LLR to the relative change that implies."""
    got = scan_rows(got)
    assert [(r[0], r[1], r[4]) for r in got] == [(r[0], r[1], r[4]) for r in want]
    expected = np.array([[r[2] for r in got], [r[2] for r in want]])
    assert np.all(np.abs(expected[0] - expected[1]) <= bound)
    assert [r[3] for r in got] == pytest.approx([r[3] for r in want], rel=1e-12)


class TestScanMatchesDenseReference:
    """The grouped-maximum replicates and vectorised p-values against the
    dense path that evaluates every cylinder in every replicate."""

    SPEC = GridSpec(UNIT, 5, 5)
    ARGS = (5, [0.15, 0.3], [0.2, 0.4], 99)

    def check(self, events, seed, baseline=None, bound=None, spec=SPEC, args=ARGS, threads=1):
        want, max_llrs = brute.space_time_scan(
            events, spec, *args, RngStream(seed), baseline=baseline
        )
        got = space_time_scan(events, spec, *args, RngStream(seed), baseline=baseline,
                              threads=threads)
        if bound is None:  # integer mass: exact
            assert scan_rows(got) == want
        else:
            assert_rows_within(got, want, bound)
        return want, max_llrs

    @pytest.mark.parametrize("uniform_grids", [False, True], ids=["volume", "grids"])
    def test_uniform_baseline(self, uniform_grids):
        baseline = None
        if uniform_grids:
            baseline = [Grid(self.SPEC, np.ones((5, 5), dtype=int)) for _ in range(5)]
        self.check(make_events(0), 1, baseline=baseline)

    def test_baseline_with_zero_mass_cells(self):
        g = np.random.default_rng(9)
        grids = []
        for _ in range(5):
            m = g.integers(0, 6, size=(5, 5))
            m[:, 0] = 0  # events in these cells have no expectation: LLR inf
            grids.append(Grid(self.SPEC, m))
        want, _ = self.check(make_events(1), 2, baseline=grids)
        assert math.isinf(want[0][3])

    def test_fractional_baseline(self):
        g = np.random.default_rng(10)
        events = make_events(2)
        self.check(events, 3, baseline=[Grid(self.SPEC, g.random((5, 5))) for _ in range(5)],
                   bound=float_mass_bound(self.SPEC, 5, len(events)))

    def test_tied_llrs(self):
        want, max_llrs = self.check(make_events(0, n=10), 0)
        pos = np.array([r[3] for r in want if r[3] > 0])
        assert np.unique(pos).size < pos.size  # ties among cylinders
        assert np.isin(pos, max_llrs).any()  # ties with replicate maxima

    # The replicates cut each class of discs with equal expected rows to its
    # maximum per window, one strided difference per window width.

    def test_unsorted_durations_one_past_the_horizon(self):
        want, _ = self.check(make_events(3), 4, args=(5, [0.15, 0.3], [0.4, 1.7, 0.2], 99))
        assert any(r[0].t_start == 0.0 and r[0].t_end == 1.0 for r in want)

    def test_durations_that_floor_to_one_width(self):
        # 0.2, 0.21 and 0.2 are all two slices of 0.1: one set of windows
        args = (10, [0.15, 0.3], [0.2, 0.35, 0.21, 0.2], 99)
        want, _ = self.check(make_events(4), 5, args=args)
        assert sorted({round(r[0].t_end - r[0].t_start, 9) for r in want}) == [0.2, 0.3]
        per_disc = Counter((r[0].cx, r[0].cy, r[0].radius) for r in want)
        assert set(per_disc.values()) == {9 + 8}  # each window of widths 2 and 3 once

    def test_integer_baseline_with_zeros_leaves_every_disc_alone(self):
        g = np.random.default_rng(13)
        grids = [Grid(self.SPEC, g.integers(1, 40, size=(5, 5)) * (g.random((5, 5)) > 0.3))
                 for _ in range(5)]
        want, _ = self.check(make_events(5), 6, baseline=grids)
        rows = expected_rows(want)
        assert len(set(rows)) == len(rows)
        assert any(r[2] == 0.0 for r in want)

    @pytest.mark.parametrize("threads", [1, 2])  # both equal the oracle, so each other
    def test_clipped_discs_share_an_expected_row_not_a_run(self, threads):
        # a baseline symmetric in x: a disc and its mirror image, clipped at
        # opposite edges, share every expected count; a disc about the
        # middle column is its own mirror, alone unless it ties another
        spec = GridSpec(Region(0, 1.5, 0, 1), 9, 6)
        g = np.random.default_rng(7)
        grids = []
        for _ in range(4):
            left, middle = g.integers(1, 9, size=(4, 6)), g.integers(1, 9, size=(1, 6))
            grids.append(Grid(spec, np.concatenate([left, middle, left[::-1]])))
        data = np.column_stack([1.5 * g.random(80), g.random(80), g.random(80)])
        events = SpaceTimeEvents(data, spec.region, 1.0)
        args = (4, [0.2, 0.35], [0.25, 0.5], 99)
        want, _ = self.check(events, 8, baseline=grids, spec=spec, args=args, threads=threads)
        sizes = Counter(expected_rows(want)).values()
        assert max(sizes) > 1 and min(sizes) == 1


def expected_rows(rows):
    """Each disc's expected counts, one per window, from the oracle's rows."""
    by_disc = {}
    for cylinder, _, expected, _, _ in rows:
        key = (cylinder.cx, cylinder.cy, cylinder.radius)
        by_disc.setdefault(key, {})[cylinder.t_start, cylinder.t_end] = expected
    return [tuple(windows[w] for w in sorted(windows)) for windows in by_disc.values()]


class TestScanMatchesDenseReferenceAtScale:
    """A grid whose float mass cancels in larger prefix sums than the 5x5
    grids above, and one where centres collide, so disc keys tie in the
    rank order."""

    def test_expected_follows_the_dense_product(self):
        spec = GridSpec(UNIT, 20, 20)
        g = np.random.default_rng(11)
        baseline = [Grid(spec, g.random((20, 20))) for _ in range(4)]
        args = (spec, 4, [0.1, 0.2], [0.25, 0.5], 99)
        want, _ = brute.space_time_scan(make_events(4, n=200), *args, RngStream(5), baseline)
        got = space_time_scan(make_events(4, n=200), *args, RngStream(5), baseline=baseline)
        assert_rows_within(got, want, float_mass_bound(spec, 4, 200))

    def test_collided_centres_keep_the_lexsort_order(self):
        g = np.random.default_rng(12)
        data = np.column_stack([1e16 + 64 * g.random(80), g.random(80), g.random(80)])
        events = SpaceTimeEvents(data, COLLIDED.region, 1.0)
        args = (COLLIDED, 5, [0.5, 1.0, 2.5], [0.2, 0.4], 99)
        want, _ = brute.space_time_scan(events, *args, RngStream(6))
        got = space_time_scan(events, *args, RngStream(6))
        assert scan_rows(got) == want
        assert len({(r[0].cx, r[0].cy) for r in want}) < COLLIDED.ncells


class TestFloatMassCancellation:
    """Prefix sums of a float mass cancel.  On a gamma baseline with an
    interior block of zero mass, plain differences leave most zero-mass
    cylinders nonzero and some sums below 0; with a tiny positive block
    instead, some still fall below 0."""

    SPEC = GridSpec(UNIT, 15, 13)
    RADII = [0.1, 0.2, 0.3]

    def scan(self, block, seed):
        mass = np.random.default_rng(seed).gamma(0.5, 1.0, (15, 13, 8))
        mass[4:11, 3:10, 2:6] = block
        res = space_time_scan(make_events(seed, n=300), self.SPEC, 8, self.RADII,
                              np.arange(1, 9) / 8, 99, RngStream(seed),
                              baseline=[Grid(self.SPEC, mass[..., s]) for s in range(8)])
        return mass.reshape(-1, 8), res

    @pytest.mark.parametrize("block", [0.0, 1e-300], ids=["zero", "tiny"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_zero_mass_gives_zero_and_none_is_negative(self, block, seed):
        mass, res = self.scan(block, seed)
        cx, cy, radius, t_start, t_end, _, expected, _, _ = res.columns
        assert np.all(expected >= 0.0)
        # the exact count of positive-mass (cell, slice) pairs per disc and window
        masks, reps = brute.dense_discs(self.SPEC, self.RADII)
        cum = np.zeros((len(masks), 9))
        np.cumsum(masks @ (mass > 0), axis=1, out=cum[:, 1:])
        positive = {(*rep, s0 / 8, (s0 + w) / 8): cum[d, s0 + w] > cum[d, s0]
                    for d, rep in enumerate(reps) for s0 in range(8) for w in range(1, 9 - s0)}
        zero = ~np.array([positive[key] for key in zip(cx, cy, radius, t_start, t_end)])
        assert zero.any() == (block == 0.0)
        assert np.all(expected[zero] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_tiny_mass_is_summed_pair_by_pair(self, seed):
        mass, res = self.scan(1e-300, seed)
        cx, cy, radius, t_start, t_end, _, expected, llr, _ = res.columns
        assert np.all(expected > 0.0) and np.all(np.isfinite(llr))
        # every cylinder well inside the prefix sums' rounding of 0, found by
        # sums of non-negative terms, against its exact mass
        masks, reps = brute.dense_discs(self.SPEC, self.RADII)
        per_slice = masks @ mass
        bound = float_mass_bound(self.SPEC, 8, mass.sum())
        exact_total = sum(map(Fraction, mass.ravel().tolist()), Fraction(0))
        row = {key: k for k, key in enumerate(zip(cx, cy, radius, t_start, t_end))}
        got, want = [], []
        for d, rep in enumerate(reps):
            for s0 in range(8):
                for w in range(1, 9 - s0):
                    if per_slice[d, s0:s0 + w].sum() > bound / 4:
                        continue
                    pairs = mass[masks[d] > 0, s0:s0 + w].ravel().tolist()
                    exact = sum(map(Fraction, pairs), Fraction(0))
                    want.append(float(300 * exact / exact_total))
                    got.append(expected[row[(*rep, s0 / 8, (s0 + w) / 8)]])
        assert len(want) > 100
        assert got == pytest.approx(want, rel=4 * np.finfo(float).eps, abs=0)


class TestScanResults:
    @pytest.fixture(scope="class")
    def res(self):
        return space_time_scan(
            make_events(3), GridSpec(UNIT, 5, 5), 5, [0.15, 0.3], [0.2, 0.4], 99, RngStream(1)
        )

    def test_len_counts_every_cylinder(self, res):
        # 25 single-cell discs + 25 distinct 3x3 (clipped) discs; 5 + 4 windows
        assert len(res) == 50 * 9
        assert sum(1 for _ in res) == len(res)

    def test_indexing(self, res):
        everything = list(res)
        assert all(everything[k] == res[k] for k in range(len(res)))
        assert res[-1] == everything[-1]
        assert res[-len(res)] == everything[0]
        with pytest.raises(IndexError):
            res[len(res)]
        with pytest.raises(IndexError):
            res[-len(res) - 1]

    def test_slices_are_lists(self, res):
        everything = list(res)
        for sl in (slice(None, 3), slice(5, 12), slice(None, None, -7), slice(-4, None)):
            got = res[sl]
            assert type(got) is list
            assert got == everything[sl]
        assert res[len(res) + 10:] == []

    def test_iteration_stops(self, res):
        it = iter(res)
        for _ in range(len(res)):
            next(it)
        with pytest.raises(StopIteration):
            next(it)

    def test_read_only(self, res):
        with pytest.raises(TypeError):
            res[0] = res[1]
        with pytest.raises(AttributeError):
            res.append(res[0])
        with pytest.raises(AttributeError):
            res.columns = res.columns
        assert type(res.columns) is tuple
        for c in res.columns:
            with pytest.raises(ValueError, match="read-only"):
                c[0] = c[1]

    def test_columns_in_rank_order(self, res):
        cx, cy, radius, t_start, t_end, observed, expected, llr, p_value = res.columns
        assert all(len(c) == len(res) for c in res.columns)
        assert observed.dtype == np.int64
        # decreasing LLR; ties broken by centre x, y, radius and start
        keys = list(zip(-llr, cx, cy, radius, t_start))
        assert keys == sorted(keys)
        assert np.all(p_value[:-1] <= p_value[1:])

    def test_rows_read_from_columns(self, res):
        rows = list(zip(*(c.tolist() for c in res.columns)))
        assert list(res) == [
            ScanResult(Cylinder(*row[:5]), *row[5:]) for row in rows
        ]
        assert all(res[k] == ScanResult(Cylinder(*rows[k][:5]), *rows[k][5:])
                   for k in range(len(res)))

    @pytest.mark.parametrize("k", [1, 7, 100, 300, 449, 450, 10**6, 0, -3])
    def test_top_matches_the_full_rank(self, k):
        def fresh():
            return space_time_scan(make_events(3), GridSpec(UNIT, 5, 5), 5, [0.15, 0.3],
                                   [0.2, 0.4], 99, RngStream(1))
        top, full = fresh().top(k), fresh().columns
        # k = 300 cuts inside the llr == 0 ties
        assert np.sum(full[7] > 0) < 300 < len(full[7])
        assert all(np.array_equal(a, b[:k]) for a, b in zip(top, full, strict=True))

    def test_columns_given_in_any_order_are_ranked(self, res):
        shuffled = np.random.default_rng(0).permutation(len(res))
        again = ScanResults(tuple(c[shuffled] for c in res.columns))
        # the rank keys match row for row; rows tied on all of them (one
        # start, two durations) keep the order they were given in
        assert all(np.array_equal(again.columns[i], res.columns[i]) for i in (0, 1, 2, 3, 7))
        rows = [sorted(zip(*(c.tolist() for c in r.columns))) for r in (again, res)]
        assert rows[0] == rows[1]


class TestCylinder:
    def test_validation(self):
        with pytest.raises(ParameterError):
            Cylinder(0.5, 0.5, 0.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            Cylinder(0.5, 0.5, 0.1, 1.0, 1.0)

    def test_fields(self):
        c = Cylinder(0.5, 0.5, 0.1, 0.2, 0.6)
        assert (c.cx, c.cy, c.radius, c.t_start, c.t_end) == (0.5, 0.5, 0.1, 0.2, 0.6)
