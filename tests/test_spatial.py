import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.spatial import cKDTree

import _oracles as brute
from pointproc import (
    DegenerateDataError,
    EnvelopeResult,
    GridSpec,
    InsufficientDataError,
    NNI_MAX_HEX,
    ParameterError,
    Region,
    RngStream,
    SpatialPattern,
    csr_envelope,
    dispersion_by_block,
    f_function,
    g_function,
    kde_surface,
    mean_min_distance,
    nni,
    quadrat_counts,
    ripleys_k,
    simulate_csr,
    spatial,
)

UNIT = Region(0, 1, 0, 1)
# not whole numbers, or not numbers: refused wherever a count is asked for
NOT_COUNTS = [2.5, math.nan, math.inf, -math.inf, "3"]
# valid regions whose area underflows to 0 or overflows to inf
DEGENERATE_AREAS = [Region(0, 1e-170, 0, 1e-170), Region(0, 1e200, 0, 1e200)]
# points 1e199 apart in a region of finite area: the k-d tree's squared
# distances across them overflow
FAR_APART = SpatialPattern([[0, 0], [1e199, 0], [2e199, 0]], Region(0, 1e200, 0, 1e-100))


def random_pattern(seed, n=None, region=UNIT):
    g = np.random.default_rng(seed)
    if n is None:
        n = int(g.integers(2, 201))
    pts = np.column_stack(
        [
            g.uniform(region.xmin, region.xmax, n),
            g.uniform(region.ymin, region.ymax, n),
        ]
    )
    return SpatialPattern(pts, region)


class TestSimulateCsr:
    def test_deterministic(self):
        a = simulate_csr(100, UNIT, RngStream(5))
        b = simulate_csr(100, UNIT, RngStream(5))
        assert np.array_equal(a.points, b.points)

    def test_count_distribution(self):
        ns = [len(simulate_csr(50, UNIT, RngStream(s))) for s in range(400)]
        assert np.mean(ns) == pytest.approx(50, rel=0.05)
        assert np.var(ns) / np.mean(ns) == pytest.approx(1.0, abs=0.2)

    def test_respects_region(self):
        region = Region(2, 5, -1, 0)
        pat = simulate_csr(30, region, RngStream(1))
        assert np.all(region.contains(pat.x, pat.y))

    def test_uniform_across_cells(self):
        pat = simulate_csr(2000, UNIT, RngStream(9))
        res = quadrat_counts(pat, GridSpec(UNIT, 4, 4))
        assert res.p_value > 0.01

    def test_rejects_bad_rate(self):
        with pytest.raises(ParameterError):
            simulate_csr(0.0, UNIT, RngStream(0))

    @pytest.mark.parametrize("rate, region", [(1e20, UNIT), (1e300, Region(0, 1e10, 0, 1e10))])
    def test_rejects_a_mean_too_large_for_an_array(self, rate, region):
        # the second mean overflows to inf; neither is drawn nor allocated
        with pytest.raises(ParameterError, match="too large for an array"):
            simulate_csr(rate, region, RngStream(0))

    @pytest.mark.parametrize("region", DEGENERATE_AREAS)
    def test_rejects_an_area_of_zero_or_inf(self, region):
        with pytest.raises(DegenerateDataError, match="region area"):
            simulate_csr(1.0, region, RngStream(0))
        pat = SpatialPattern([[0.0, 0.0], [1e-171, 1e-171]], region)
        with pytest.raises(DegenerateDataError, match="region area"):
            pat.intensity


class TestKdeSurface:
    def test_matches_brute_force(self):
        spec = GridSpec(UNIT, 9, 7)
        for seed in range(5):
            pat = random_pattern(seed)
            surf = kde_surface(pat, spec, 0.13)
            ref = brute.kde_values(pat.points, spec.centre_points(), 0.13)
            assert np.array_equal(surf.values.ravel(), ref)

    def test_empty_pattern_zero_surface(self):
        surf = kde_surface(SpatialPattern([], UNIT), GridSpec(UNIT, 4, 4), 0.1)
        assert np.all(surf.values == 0.0)
        assert surf.values.sum() * surf.spec.cell_area == 0.0

    def test_single_point_exact_disc_mass(self):
        spec = GridSpec(UNIT, 5, 5)
        bw = 0.05  # smaller than half the centre spacing: one covering cell
        pat = SpatialPattern([[0.5, 0.5]], UNIT)
        surf = kde_surface(pat, spec, bw)
        assert surf.values[2, 2] == 1.0 / (math.pi * bw**2)
        assert np.count_nonzero(surf.values) == 1

    def test_interior_mass_near_point_count(self):
        spec = GridSpec(UNIT, 50, 50)
        bw = 0.15
        pat = simulate_csr(300, UNIT, RngStream(2))
        surf = kde_surface(pat, spec, bw)
        xc, yc = np.meshgrid(spec.x_centres(), spec.y_centres(), indexing="ij")
        depth = np.minimum.reduce([xc, 1 - xc, yc, 1 - yc])
        interior_mass = surf.values[depth >= bw].sum() * spec.cell_area
        pdepth = np.minimum.reduce([pat.x, 1 - pat.x, pat.y, 1 - pat.y])
        interior_points = np.count_nonzero(pdepth >= bw)
        assert interior_mass == pytest.approx(interior_points, rel=0.1)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ParameterError):
            kde_surface(random_pattern(0), GridSpec(UNIT, 3, 3), 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "points, bw, fails",
        [
            ([[0.5, 0.5]], 1e-100, False),  # 1 / (pi bw^2) is finite
            ([[0.5, 0.5]], 1e-155, True),  # 1 / (pi bw^2) overflows
            ([[0.5, 0.5]], 1e-170, True),  # pi bw^2 underflows to 0: 1 / 0
            ([[0.2, 0.2]], 1e-160, False),  # no point within bw: 0 / tiny area
            ([[0.2, 0.2]], 1e-170, True),  # 0 / 0
            ([], 1e-300, True),
        ],
    )
    def test_tiny_bandwidth(self, points, bw, fails):
        pat = SpatialPattern(points, UNIT)
        spec = GridSpec(UNIT, 5, 5)
        if fails:
            with pytest.raises(ParameterError, match=f"bandwidth {bw} is too small"):
                kde_surface(pat, spec, bw)
        else:
            assert np.all(np.isfinite(kde_surface(pat, spec, bw).values))

    def test_rejects_points_too_far_apart_for_the_tree(self):
        with pytest.raises(DegenerateDataError, match="too far apart"):
            kde_surface(FAR_APART, GridSpec(FAR_APART.region, 2, 2), 1e199)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bw", [1e154, 1e308])
    def test_huge_bandwidth_gives_a_zero_surface(self, bw):
        # pi * bw**2 overflows at 1e154, and bw**2 itself at 1e308
        surf = kde_surface(random_pattern(0), GridSpec(UNIT, 3, 3), bw)
        assert np.array_equal(surf.values, np.zeros((3, 3)))


class TestQuadrat:
    def test_hand_statistic(self):
        # 3 points left, 1 point right on a 2x1 grid: cbar=2, stat=(1+1)/2=1
        pat = SpatialPattern([[0.1, 0.5], [0.2, 0.5], [0.3, 0.5], [0.8, 0.5]], UNIT)
        res = quadrat_counts(pat, GridSpec(UNIT, 2, 1))
        assert res.statistic == pytest.approx(1.0)
        assert res.dof == 1
        assert res.p_value == pytest.approx(float(stats.chi2.sf(1.0, 1)))
        assert np.array_equal(res.grid.values, [[3], [1]])

    def test_statistic_matches_formula(self):
        pat = random_pattern(3, n=120)
        spec = GridSpec(UNIT, 4, 4)
        res = quadrat_counts(pat, spec)
        c = res.grid.values.astype(float)
        cbar = c.mean()
        assert res.statistic == pytest.approx(((c - cbar) ** 2).sum() / cbar)

    def test_empty_pattern_degenerate(self):
        with pytest.raises(DegenerateDataError):
            quadrat_counts(SpatialPattern([], UNIT), GridSpec(UNIT, 2, 2))

    def test_single_cell_degenerate(self):
        with pytest.raises(DegenerateDataError):
            quadrat_counts(random_pattern(0), GridSpec(UNIT, 1, 1))

    def test_grid_must_cover_pattern(self):
        pat = random_pattern(1, region=Region(0, 2, 0, 2))
        with pytest.raises(ParameterError, match="cover"):
            quadrat_counts(pat, GridSpec(UNIT, 2, 2))


class TestDispersion:
    def test_hand_case(self):
        # counts per cell on a 2x2 grid: [[4, 0], [0, 0]] -> var/mean = 4
        pts = [[0.1, 0.1], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4]]
        pat = SpatialPattern(pts, UNIT)
        out = dispersion_by_block(pat, GridSpec(UNIT, 2, 2), [1])
        (b, idx), = out
        assert b == 1
        assert idx == pytest.approx(4.0)  # var ddof=1 of (4,0,0,0) = 4, mean = 1

    def test_block_merging(self):
        pat = random_pattern(7, n=160)
        spec = GridSpec(UNIT, 4, 4)
        out = dict(dispersion_by_block(pat, spec, [1, 2]))
        counts = quadrat_counts(pat, spec).grid.values
        merged2 = counts.reshape(2, 2, 2, 2).sum(axis=(1, 3))
        assert out[2] == pytest.approx(merged2.var(ddof=1) / merged2.mean())

    def test_full_merge_rejected(self):
        pat = random_pattern(7, n=160)
        with pytest.raises(ParameterError, match="two blocks"):
            dispersion_by_block(pat, GridSpec(UNIT, 4, 4), [4])

    def test_non_dividing_block_rejected(self):
        pat = random_pattern(5)
        with pytest.raises(ParameterError, match="divide"):
            dispersion_by_block(pat, GridSpec(UNIT, 4, 4), [3])

    @pytest.mark.parametrize("b", [0, -2, *NOT_COUNTS])
    def test_block_size_must_be_whole(self, b):
        message = f"block size must be an integer >= 1, got {b!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            dispersion_by_block(random_pattern(5), GridSpec(UNIT, 4, 4), [1, b])

    def test_whole_block_sizes_of_any_type(self):
        pat, spec = random_pattern(7, n=160), GridSpec(UNIT, 4, 4)
        out = dispersion_by_block(pat, spec, [np.int64(2), 2.0])
        assert out == dispersion_by_block(pat, spec, [2, 2])
        assert all(type(b) is int for b, _ in out)

    def test_csr_near_one_on_average(self):
        spec = GridSpec(UNIT, 8, 8)
        idx = np.array(
            [
                [v for _, v in dispersion_by_block(simulate_csr(3000, UNIT, RngStream(s)), spec, [1, 2])]
                for s in range(30)
            ]
        )
        assert idx[:, 0].mean() == pytest.approx(1.0, abs=0.15)
        assert idx[:, 1].mean() == pytest.approx(1.0, abs=0.3)

    def test_empty_degenerate(self):
        with pytest.raises(DegenerateDataError):
            dispersion_by_block(SpatialPattern([], UNIT), GridSpec(UNIT, 2, 2), [1])


class TestDistanceStatistics:
    def test_g_matches_brute_force_exactly(self):
        radii = np.linspace(0.0, 0.3, 16)
        for seed in range(8):
            pat = random_pattern(seed)
            assert np.array_equal(g_function(pat, radii), brute.g_function(pat.points, radii))

    def test_f_matches_brute_force_exactly(self):
        radii = np.linspace(0.0, 0.3, 16)
        probe = GridSpec(UNIT, 11, 13)
        for seed in range(8):
            pat = random_pattern(seed + 100)
            assert np.array_equal(
                f_function(pat, probe, radii),
                brute.f_function(pat.points, probe.centre_points(), radii),
            )

    def test_k_matches_brute_force_exactly(self):
        radii = np.linspace(0.02, 0.25, 12)
        for seed in range(8):
            pat = random_pattern(seed + 200)
            for corr in ("none", "border"):
                got = ripleys_k(pat, radii, correction=corr)
                want = brute.ripleys_k(pat.points, UNIT, radii, correction=corr)
                assert np.array_equal(got, want, equal_nan=True)

    def test_mean_min_matches_brute_force_exactly(self):
        for seed in range(8):
            pat = random_pattern(seed + 300)
            assert mean_min_distance(pat) == brute.mean_min_distance(pat.points)

    def test_duplicates_handled(self):
        pts = np.array([[0.2, 0.2], [0.2, 0.2], [0.7, 0.7]])
        pat = SpatialPattern(pts, UNIT)
        assert mean_min_distance(pat) == brute.mean_min_distance(pts)
        radii = [0.0, 0.1, 1.0]
        assert np.array_equal(g_function(pat, radii), brute.g_function(pts, radii))

    def test_g_is_monotone_cdf(self):
        pat = random_pattern(12)
        g = g_function(pat, np.linspace(0, 1.5, 40))
        assert np.all(np.diff(g) >= 0)
        assert g[-1] == 1.0  # max radius exceeds the region diameter

    def test_g_value_is_fraction(self):
        # 2 points at distance 0.5: G jumps from 0 to 1 there
        pat = SpatialPattern([[0.25, 0.5], [0.75, 0.5]], UNIT)
        assert np.allclose(g_function(pat, [0.4, 0.5, 0.6]), [0.0, 1.0, 1.0])

    def test_insufficient_data(self):
        single = SpatialPattern([[0.5, 0.5]], UNIT)
        with pytest.raises(InsufficientDataError):
            g_function(single, [0.1])
        with pytest.raises(InsufficientDataError):
            mean_min_distance(single)
        with pytest.raises(InsufficientDataError):
            ripleys_k(single, [0.1])
        with pytest.raises(InsufficientDataError):
            f_function(SpatialPattern([], UNIT), GridSpec(UNIT, 3, 3), [0.1])

    def test_radii_validation(self):
        pat = random_pattern(0)
        with pytest.raises(ParameterError):
            g_function(pat, [0.2, 0.1])
        with pytest.raises(ParameterError):
            g_function(pat, [-0.1, 0.2])
        with pytest.raises(ParameterError):
            ripleys_k(pat, [0.0, 0.1])  # K needs strictly positive radii
        with pytest.raises(ParameterError):
            g_function(pat, [])
        for bad in (math.nan, math.inf):
            with pytest.raises(ParameterError, match="^radii must be finite$"):
                g_function(pat, [0.1, bad])

    def test_other_tree_errors_pass_through(self):
        # only an overflow in the k-d tree is the data's fault
        with pytest.raises(ValueError, match="^bad query$") as info:
            with spatial._tree_overflow():
                raise ValueError("bad query")
        assert type(info.value) is ValueError


class TestNni:
    def test_square_lattice_hand_value(self):
        # 2x2 lattice, spacing 0.5, lambda-hat = 4: expected NN distance
        # under CSR = 1/(2*sqrt(4)) = 0.25, so NNI = 0.5/0.25 = 2
        pts = [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]]
        assert nni(SpatialPattern(pts, UNIT)) == pytest.approx(2.0)

    def test_coincident_points_zero(self):
        pat = SpatialPattern([[0.5, 0.5], [0.5, 0.5]], UNIT)
        assert nni(pat) == 0.0

    def test_hexagonal_constant(self):
        assert NNI_MAX_HEX == pytest.approx(2.1491, abs=2e-4)

    def test_csr_near_one(self):
        vals = [nni(simulate_csr(200, UNIT, RngStream(s))) for s in range(60)]
        assert np.mean(vals) == pytest.approx(1.0, abs=0.06)

    def test_insufficient(self):
        with pytest.raises(InsufficientDataError):
            nni(SpatialPattern([[0.5, 0.5]], UNIT))


class TestRipleysK:
    def test_csr_expectation(self):
        radii = np.linspace(0.02, 0.1, 5)
        ks = np.mean(
            [
                ripleys_k(simulate_csr(300, UNIT, RngStream(s)), radii, correction="border")
                for s in range(60)
            ],
            axis=0,
        )
        assert np.allclose(ks, np.pi * radii**2, rtol=0.15)

    def test_uncorrected_underestimates_near_edge(self):
        radii = [0.2]
        vals_none = []
        vals_border = []
        for s in range(40):
            pat = simulate_csr(300, UNIT, RngStream(1000 + s))
            vals_none.append(ripleys_k(pat, radii)[0])
            vals_border.append(ripleys_k(pat, radii, correction="border")[0])
        assert np.mean(vals_none) < np.mean(vals_border)

    def test_border_all_excluded_is_nan(self):
        pat = SpatialPattern([[0.05, 0.5], [0.95, 0.5]], UNIT)
        out = ripleys_k(pat, [0.2], correction="border")
        assert math.isnan(out[0])

    def test_bad_correction(self):
        with pytest.raises(ParameterError):
            ripleys_k(random_pattern(0), [0.1], correction="ripley")

    @pytest.mark.filterwarnings("error")
    def test_radius_whose_square_overflows_counts_every_pair(self):
        pat = random_pattern(0)
        k = ripleys_k(pat, [0.1, 1e308])
        assert k[1] == (len(pat) - 1) / pat.intensity


def _lattice_case():
    g = np.random.default_rng(4)
    pts = g.integers(0, 33, (60, 2)) / 32
    return SpatialPattern(pts, UNIT), np.arange(1, 13) / 32


def _pair_distance_case():
    # every pair distance is a radius; at two of them pow(r, 2) != r * r,
    # and a pair's dx*dx + dy*dy falls between the two
    pat = random_pattern(5, n=40)
    return pat, np.unique(brute.pairwise(pat.points)[np.triu_indices(40, 1)])


# Cases where points tie with a radius: the tree counts a pair when
# dx*dx + dy*dy <= r*r, and the dense reference's sqrt can round the other way.
K_TREE_CASES = {
    "lattice": _lattice_case,
    "pair_distance": _pair_distance_case,
    "duplicates": lambda: (
        SpatialPattern([[0.3, 0.3], [0.3, 0.3], [0.3, 0.3], [0.6, 0.7], [0.6, 0.7]], UNIT),
        [1e-9, 0.1, 0.5, 0.6],
    ),
    "past_diagonal": lambda: (random_pattern(6, n=30), [0.2, 1.5, 2.0]),
    "two_points": lambda: (SpatialPattern([[0.25, 0.5], [0.75, 0.5]], UNIT), [0.25, 0.5, 0.6]),
    "one_kept": lambda: (
        SpatialPattern([[0.5, 0.5], [0.5, 0.95], [0.1, 0.5], [0.55, 0.5]], UNIT),
        [0.04, 0.05, 0.3, 0.45, 0.5],
    ),
}


class TestRipleysKTreeReference:
    @pytest.mark.parametrize("case", sorted(K_TREE_CASES))
    @pytest.mark.parametrize("corr", ["none", "border"])
    def test_matches_per_radius_tree_loop(self, case, corr):
        pat, radii = K_TREE_CASES[case]()
        got = ripleys_k(pat, radii, correction=corr)
        assert np.array_equal(got, brute.ripleys_k_tree(pat, radii, corr), equal_nan=True)

    def test_border_past_diagonal_is_all_nan(self):
        pat, radii = K_TREE_CASES["past_diagonal"]()
        assert np.all(np.isnan(ripleys_k(pat, radii[1:], correction="border")))

    @pytest.mark.parametrize("corr", ["none", "border"])
    def test_all_pairs_in_constant_memory(self, corr):
        # every one of the ~2 million pairs is within 1.5.  tracemalloc sees
        # numpy's buffers (not scipy's own), so a pair list that numpy indexes
        # or masks would show as tens of MiB
        pat = random_pattern(7, n=2000)
        tracemalloc.start()
        try:
            ripleys_k(pat, [0.5, 1.0, 1.5], correction=corr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def k_on_path(pat, radii, corr, pair_list):
    """K from the pair list, or from the bounded-memory band loop."""
    with mock.patch.object(spatial, "_K_PAIR_BUDGET", 2**62 if pair_list else 0):
        return ripleys_k(pat, radii, correction=corr)


@st.composite
def k_inputs(draw):
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 150))
    kind = draw(st.sampled_from(["uniform", "clustered", "lattice"]))
    if kind == "uniform":
        pts = g.random((n, 2))
    elif kind == "clustered":
        parents = g.random((int(g.integers(1, 6)), 2))
        pts = np.clip(parents[g.integers(len(parents), size=n)] + g.normal(0, 0.03, (n, 2)), 0, 1)
    else:
        pts = g.integers(0, 17, (n, 2)) / 16
    radii = draw(
        st.one_of(
            st.just([0.1, 1e308]),  # 1e308 * 1e308 overflows
            st.lists(st.integers(1, 24), min_size=1, max_size=10, unique=True).map(
                lambda ks: [k / 16 for k in sorted(ks)]  # lattice spacings: ties
            ),
            st.lists(st.floats(1e-3, 1.6), min_size=1, max_size=10, unique=True).map(sorted),
        )
    )
    return SpatialPattern(pts, UNIT), radii


@st.composite
def bound_inputs(draw):
    scale = draw(st.sampled_from([1.0, 1e-170, 1e150]))
    w, h = draw(st.sampled_from([(1.0, 1.0), (7.0, 0.5), (1e-3, 1.0), (1.0, 1e-3)]))
    offset = draw(st.sampled_from([0.0, 1e15])) if min(w, h) >= 0.5 else 0.0
    region = Region(offset * scale, (offset + w) * scale, offset * scale, (offset + h) * scale)
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 200))
    u = g.random((n, 2))
    kind = draw(st.sampled_from(["uniform", "corners", "edges", "equal", "lattice"]))
    if kind == "corners":
        u = np.round(u)
    elif kind == "edges":
        u[:, int(g.integers(2))] = g.integers(0, 2, n)
    elif kind == "equal":
        u[:] = u[0]
    elif kind == "lattice":
        u = np.round(u * 8) / 8
    pts = np.column_stack(
        [
            np.clip(region.xmin + u[:, 0] * region.width, region.xmin, region.xmax),
            np.clip(region.ymin + u[:, 1] * region.height, region.ymin, region.ymax),
        ]
    )
    # past the diagonal from a factor above 1
    reach = math.hypot(region.width, region.height) * draw(st.floats(1e-4, 3.0))
    return pts, region, reach


class TestRipleysKPaths:
    """The pair list and the bounded-memory band loop count the same pairs."""

    @pytest.mark.parametrize("case", sorted(K_TREE_CASES))
    @pytest.mark.parametrize("corr", ["none", "border"])
    def test_tree_cases_agree(self, case, corr):
        pat, radii = K_TREE_CASES[case]()
        listed = k_on_path(pat, radii, corr, pair_list=True)
        assert np.array_equal(listed, k_on_path(pat, radii, corr, pair_list=False), equal_nan=True)
        assert np.array_equal(listed, brute.ripleys_k_tree(pat, radii, corr), equal_nan=True)

    @settings(max_examples=150, deadline=None)
    @given(k_inputs(), st.sampled_from(["none", "border"]))
    def test_random_patterns_agree(self, inputs, corr):
        pat, radii = inputs
        assert np.array_equal(
            k_on_path(pat, radii, corr, pair_list=True),
            k_on_path(pat, radii, corr, pair_list=False),
            equal_nan=True,
        )

    @settings(max_examples=300, deadline=None)
    @given(bound_inputs())
    def test_bound_never_undercounts(self, inputs):
        pts, region, reach = inputs
        listed = cKDTree(pts).query_pairs(reach, output_type="ndarray")
        bound = spatial._neighbour_bound(SpatialPattern(pts, region), reach)
        assert bound >= 2 * len(listed) + len(pts)

    @pytest.mark.parametrize("region", DEGENERATE_AREAS, ids=str)
    @pytest.mark.parametrize("reach", [1e-300, 1.0, 1e199, math.inf])
    def test_bound_of_an_area_of_zero_or_inf(self, region, reach):
        # no query to compare with: distances this large overflow in the tree
        pts = np.array([[region.xmin, region.ymin], [region.xmax, region.ymax]] * 3)
        assert 6 <= spatial._neighbour_bound(SpatialPattern(pts, region), reach) <= 36

    @pytest.mark.parametrize("corr", ["none", "border"])
    def test_a_width_that_overflows_never_reaches_the_bound(self, corr):
        region = Region(-1e308, 1e308, -1e308, 1e308)  # its width overflows to inf
        pts = [[region.xmin, region.ymin], [region.xmax, region.ymax]] * 3
        with pytest.raises(DegenerateDataError, match="region area"):
            ripleys_k(SpatialPattern(pts, region), [1.0], correction=corr)

    @pytest.mark.parametrize("pair_list", [True, False])
    def test_points_too_far_apart_for_the_tree(self, pair_list):
        with pytest.raises(DegenerateDataError, match="too far apart"):
            k_on_path(FAR_APART, [1e199], "none", pair_list)
        # every point lies on the boundary, so the border correction keeps none
        # at any radius: K is NaN everywhere, with no query of the tree
        spy = mock.patch.object(spatial, "_pair_list_counts", wraps=spatial._pair_list_counts)
        with spy as listed:
            assert np.isnan(k_on_path(FAR_APART, [1e199], "border", pair_list)).all()
        listed.assert_not_called()
        # the nearest-neighbour distances overflow to inf on the same points
        with pytest.raises(DegenerateDataError, match="too far apart"):
            g_function(FAR_APART, [1e199])
        with pytest.raises(DegenerateDataError, match="too far apart"):
            f_function(FAR_APART, GridSpec(FAR_APART.region, 2, 2), [1e199])
        with pytest.raises(DegenerateDataError, match="too far apart"):
            nni(FAR_APART)

    @pytest.mark.parametrize("corr", ["none", "border"])
    def test_pair_list_memory_is_bounded(self, corr):
        # 1024 points in one cell: the bound is n**2, exactly the budget, and the
        # list holds all 523,776 pairs, 8 MiB.  scipy owns the list's buffer, so
        # tracemalloc sees only the numpy buffers that score it, in chunks
        g = np.random.default_rng(3)
        pat = SpatialPattern(0.5 + g.uniform(-0.01, 0.01, (1024, 2)), UNIT)
        radii = [0.01, 0.02, 0.05]
        ripleys_k(pat, radii[:1], correction=corr)  # scipy's import outside the trace
        spy = mock.patch.object(spatial, "_pair_list_counts", wraps=spatial._pair_list_counts)
        tracemalloc.start()
        try:
            with spy as listed:
                ripleys_k(pat, radii, correction=corr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        listed.assert_called_once()
        assert peak < 2 * 2**20


class TestCsrEnvelope:
    def test_deterministic(self):
        pat = random_pattern(42, n=150)
        radii = np.linspace(0.01, 0.1, 8)
        a = csr_envelope(pat, "g", radii, 19, RngStream(7))
        b = csr_envelope(pat, "g", radii, 19, RngStream(7))
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)

    def test_thread_count_does_not_change_result(self):
        pat = random_pattern(42, n=150)
        radii = np.linspace(0.01, 0.1, 8)
        a = csr_envelope(pat, "k", radii, 19, RngStream(7), threads=1)
        b = csr_envelope(pat, "k", radii, 19, RngStream(7), threads=4)
        assert np.array_equal(a.lower, b.lower) and np.array_equal(a.upper, b.upper)
        assert np.array_equal(a.observed, b.observed)

    def test_band_ordering(self):
        pat = random_pattern(11, n=100)
        env = csr_envelope(pat, "g", np.linspace(0.01, 0.2, 10), 19, RngStream(3))
        assert np.all(env.lower <= env.upper)
        assert env.nsim == 19

    def test_f_requires_probe(self):
        with pytest.raises(ParameterError, match="probe"):
            csr_envelope(random_pattern(0), "f", [0.1], 19, RngStream(0))

    def test_f_statistic_works(self):
        pat = random_pattern(5, n=80)
        env = csr_envelope(
            pat, "F", [0.05, 0.1], 19, RngStream(1), probe_spec=GridSpec(UNIT, 8, 8)
        )
        assert env.observed.shape == (2,)

    @pytest.mark.parametrize("nsim", [18, 19.5, *NOT_COUNTS])
    def test_min_nsim_enforced(self, nsim):
        message = f"nsim must be an integer >= 19, got {nsim!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            csr_envelope(random_pattern(0), "g", [0.1], nsim, RngStream(0))

    def test_whole_nsim_of_any_type(self):
        pat = random_pattern(0, n=50)
        want = csr_envelope(pat, "g", [0.05, 0.1], 19, RngStream(0))
        for nsim in (np.int64(19), 19.0):
            env = csr_envelope(pat, "g", [0.05, 0.1], nsim, RngStream(0))
            assert np.array_equal(env.lower, want.lower) and np.array_equal(env.upper, want.upper)
            assert type(env.nsim) is int

    @pytest.mark.parametrize("statistic, n, seed", [
        ("g", 3, 3), ("g", 4, 3), ("g", 5, 3),
        ("f", 3, 2), ("f", 4, 5), ("f", 5, 7),
        ("k", 3, 3), ("k", 4, 3), ("k", 5, 3),
    ])
    def test_small_replicates_redrawn_from_their_stream(self, statistic, n, seed):
        # mean counts of 3 to 5: some replicates hold fewer points than G
        # and K (2) or F (1) need, and are drawn again from the same substream
        pat = random_pattern(seed, n=n)
        radii = np.array([0.05, 0.1, 0.2, 0.3])
        kw = {"g": {}, "f": {"probe_spec": GridSpec(UNIT, 6, 6)}, "k": {"correction": "border"}}
        name = {"g": "g_function", "f": "f_function", "k": "ripleys_k"}[statistic]
        real, curves = getattr(spatial, name), []

        def recorded(*args, **kwargs):  # the curves the statistic returns, in order
            curves.append(real(*args, **kwargs))
            return curves[-1]

        with mock.patch.object(spatial, name, recorded):
            env = csr_envelope(pat, statistic, radii, 39, RngStream(seed), **kw[statistic])
        observed, replicates, redraws = brute.csr_envelope(
            pat, statistic, radii, 39, RngStream(seed), **kw[statistic])
        assert redraws > 0
        np.testing.assert_array_equal(np.stack(curves), np.vstack([observed, replicates]))
        np.testing.assert_array_equal(env.observed, observed)
        np.testing.assert_array_equal(env.lower, replicates.min(axis=0))
        np.testing.assert_array_equal(env.upper, replicates.max(axis=0))

    @pytest.mark.parametrize("statistic, message", [
        ("g", "G needs at least two points"),
        ("f", "F needs at least one point"),
        ("k", "K needs at least two points"),
    ])
    def test_empty_pattern_refused_by_the_statistic(self, statistic, message):
        empty = SpatialPattern([], UNIT)
        with pytest.raises(InsufficientDataError, match=f"^{message}$"):
            csr_envelope(empty, statistic, [0.1], 19, RngStream(0),
                         probe_spec=GridSpec(UNIT, 4, 4))

    def test_unknown_statistic(self):
        with pytest.raises(ParameterError):
            csr_envelope(random_pattern(0), "j", [0.1], 19, RngStream(0))

    def test_clustered_pattern_escapes_g_band(self):
        # a tight clump: nearest-neighbour distances far below CSR
        g = np.random.default_rng(0)
        pts = 0.5 + 0.01 * g.standard_normal((80, 2))
        pat = SpatialPattern(np.clip(pts, 0, 1), UNIT)
        env = csr_envelope(pat, "g", [0.01, 0.02, 0.05], 39, RngStream(2))
        assert env.outside().any()
        assert np.all(env.observed >= env.upper - 1e-12)

    def test_envelope_result_validation(self):
        with pytest.raises(ParameterError, match="lower"):
            EnvelopeResult(
                radii=np.array([0.1]),
                observed=np.array([0.5]),
                lower=np.array([0.9]),
                upper=np.array([0.2]),
                nsim=19,
            )
        with pytest.raises(ParameterError, match="length"):
            EnvelopeResult(
                radii=np.array([0.1, 0.2]),
                observed=np.array([0.5]),
                lower=np.array([0.1, 0.2]),
                upper=np.array([0.3, 0.4]),
                nsim=19,
            )
