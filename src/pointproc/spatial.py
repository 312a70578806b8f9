"""Density and distance statistics for planar point patterns.

All statistics are edge-uncorrected unless stated otherwise; the Monte
Carlo envelope applies the identical estimator to CSR replicates, so
rank comparisons against the envelope are unaffected by edge bias.
Distance queries go through a k-d tree, and every ball is closed.  G
and F compare distances (d <= r); K, like the KDE's disc counts, counts
a pair when dx*dx + dy*dy <= r*r, which can differ from d <= r at an
exact tie.

K counts in one of two ways.  It lists the pairs within its largest
radius once (`query_pairs`), finds each pair's first radius by that r*r
rule, and counts both ends at once for every radius and border band.  A
pair list grows with n^2 r^2, so a cell-count bound on its length is
taken first: when the bound allows more than 2**19 pairs (8 MiB), K
counts through `count_neighbors` instead, one tree per border band.
With no correction every point is in the one band; with no point kept
at any radius there is no band, no query, and K is NaN throughout.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    DegenerateDataError,
    Grid,
    GridSpec,
    InsufficientDataError,
    ParameterError,
    Region,
    RngStream,
    SpatialPattern,
    _check_array_size,
    _count,
    _finite_area,
    _positive,
    aggregate_to_grid,
    indexed_map,
)

# scipy's submodules are imported where they are used: together they take
# ~0.3 s to import, and most CLI commands need neither
if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "EnvelopeResult",
    "NNI_MAX_HEX",
    "QuadratResult",
    "csr_envelope",
    "dispersion_by_block",
    "f_function",
    "g_function",
    "kde_surface",
    "mean_min_distance",
    "nni",
    "quadrat_counts",
    "ripleys_k",
    "simulate_csr",
]

# diameter of the densest possible arrangement relative to random:
# perfectly hexagonal packing; nni values live in [0, ~2.149]
NNI_MAX_HEX = 2.0 * math.sqrt(2.0 / math.sqrt(3.0))


def simulate_csr(rate: float, region: Region, rng: RngStream) -> SpatialPattern:
    """Complete spatial randomness: Poisson count, uniform placement."""
    mean = _positive(rate) * _finite_area(region)
    _check_array_size("CSR pattern of mean size", mean, 2)  # an inf mean too
    n = rng.poisson(mean)
    xs = rng.uniforms(region.xmin, region.xmax, n)
    ys = rng.uniforms(region.ymin, region.ymax, n)
    return SpatialPattern(np.column_stack([xs, ys]), region)


@contextlib.contextmanager
def _tree_overflow():
    """scipy's k-d tree refuses a pair or disc query when a squared distance
    across the points' bounding box overflows: report that as an error of the
    data."""
    try:
        yield
    except ValueError as e:
        if "overflow" not in str(e):
            raise
        raise DegenerateDataError(
            "points too far apart for the k-d tree: a squared distance overflows"
        ) from None


def kde_surface(pattern: SpatialPattern, spec: GridSpec, bandwidth: float) -> Grid:
    """Disc-count density: points within `bandwidth` of each cell centre,
    divided by the disc area pi * bandwidth**2.

    Near the boundary part of the disc hangs outside the region, so the
    surface under-estimates there; its integral over the region is below
    n by exactly the mass the discs lose.
    """
    from scipy.spatial import cKDTree

    bandwidth = _positive(bandwidth, "bandwidth")
    centres = spec.centre_points()
    if len(pattern) == 0:  # an empty tree's query is unchecked on the oldest supported scipy
        counts = np.zeros(spec.ncells)
    else:
        tree = cKDTree(pattern.points)
        with _tree_overflow():
            counts = tree.query_ball_point(centres, bandwidth, return_length=True)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = counts / (math.pi * np.float64(bandwidth) ** 2)  # inf where Python's ** raises
    if not np.all(np.isfinite(vals)):  # count / area overflows, or the area is 0
        raise ParameterError(f"bandwidth {bandwidth} is too small: the density overflows")
    return Grid(spec, vals.reshape(spec.nx, spec.ny))


@dataclass(frozen=True)
class QuadratResult:
    """Chi-square test of equal cell counts."""

    grid: Grid
    statistic: float
    dof: int
    p_value: float


def quadrat_counts(pattern: SpatialPattern, spec: GridSpec) -> QuadratResult:
    """Counts per cell plus the chi-square CSR test.

    Statistic: sum (c - cbar)^2 / cbar against chi-square with
    ncells - 1 degrees of freedom.
    """
    from scipy.special import chdtrc

    if spec.ncells < 2:
        raise DegenerateDataError("quadrat test needs at least two cells")
    grid = aggregate_to_grid(pattern, spec)
    counts = grid.values
    cbar = len(pattern) / spec.ncells
    if cbar == 0.0:
        raise DegenerateDataError("quadrat test needs at least one point")
    statistic = float(((counts - cbar) ** 2).sum() / cbar)
    dof = spec.ncells - 1
    p = float(chdtrc(dof, statistic))  # chi-square survival function
    return QuadratResult(grid, statistic, dof, p)


def dispersion_by_block(
    pattern: SpatialPattern, spec: GridSpec, block_sizes
) -> list[tuple[int, float]]:
    """Variance-to-mean ratio of counts merged into b-by-b blocks.

    Each block size must divide both grid dimensions.  Values near 1
    indicate randomness at that scale, above 1 clustering, below 1
    regularity.
    """
    base = aggregate_to_grid(pattern, spec).values
    out = []
    for b in block_sizes:
        b = _count(b, "block size", 1)
        if spec.nx % b or spec.ny % b:
            raise ParameterError(
                f"block size {b} must divide grid dimensions ({spec.nx}, {spec.ny})"
            )
        merged = base.reshape(spec.nx // b, b, spec.ny // b, b).sum(axis=(1, 3))
        if merged.size < 2:
            raise ParameterError(f"block size {b} leaves fewer than two blocks")
        mean = merged.mean()
        if mean == 0.0:
            raise DegenerateDataError("dispersion is undefined for an empty pattern")
        out.append((b, float(merged.var(ddof=1) / mean)))
    return out


def _nearest(points: np.ndarray, query: np.ndarray, k: int) -> np.ndarray:
    """Distance from each query point to its k-th nearest of `points`, once
    none has overflowed to inf in the k-d tree."""
    from scipy.spatial import cKDTree

    d = cKDTree(points).query(query, k=[k])[0][:, 0]
    if not np.all(np.isfinite(d)):
        raise DegenerateDataError(
            "points too far apart for the k-d tree: a nearest-neighbour distance overflows"
        )
    return d


def _validate_radii(radii, positive: bool = False) -> np.ndarray:
    arr = np.asarray(radii, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ParameterError("radii must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("radii must be finite")
    if np.any(np.diff(arr) <= 0.0):
        raise ParameterError("radii must be strictly ascending")
    if positive and arr[0] <= 0.0:
        raise ParameterError("radii must be positive")
    if not positive and arr[0] < 0.0:
        raise ParameterError("radii must be non-negative")
    return arr


def g_function(pattern: SpatialPattern, radii) -> np.ndarray:
    """Empirical CDF of nearest-neighbour distances at the given radii."""
    radii = _validate_radii(radii)
    if len(pattern) < 2:
        raise InsufficientDataError("G needs at least two points")
    nnd = _nearest(pattern.points, pattern.points, 2)  # the first is the point itself
    return (nnd[:, None] <= radii[None, :]).mean(axis=0)


def f_function(pattern: SpatialPattern, probe_spec: GridSpec, radii) -> np.ndarray:
    """Empty-space function: CDF of probe-to-nearest-point distances.

    Probes are the centres of `probe_spec`.
    """
    radii = _validate_radii(radii)
    if len(pattern) == 0:
        raise InsufficientDataError("F needs at least one point")
    d = _nearest(pattern.points, probe_spec.centre_points(), 1)
    return (d[:, None] <= radii[None, :]).mean(axis=0)


def mean_min_distance(pattern: SpatialPattern) -> float:
    """Average nearest-neighbour distance."""
    if len(pattern) < 2:
        raise InsufficientDataError("mean nearest-neighbour distance needs >= 2 points")
    return float(_nearest(pattern.points, pattern.points, 2).mean())


def nni(pattern: SpatialPattern) -> float:
    """Nearest-neighbour index: observed mean NN distance over the CSR
    expectation 1 / (2 sqrt(lambda)), lambda estimated as n / area.

    1 is random, 0 fully clustered, ~2.149 a perfect hexagonal lattice.
    """
    return _nni(mean_min_distance(pattern), pattern.intensity)


def _nni(d_obs: float, intensity: float) -> float:
    """The index of an observed mean NN distance at the given intensity."""
    return d_obs / (1.0 / (2.0 * math.sqrt(intensity)))


# `ripleys_k` lists its pairs only while at most this many ordered neighbours
# (i == j included) can be within reach: under 2**19 pairs, so the (pairs, 2)
# int64 list stays within 8 MiB.  Scoring the list, _K_PAIR_CHUNK pairs at a
# time, takes under 2 MiB of numpy buffers more.  Past the budget, K counts
# through the tree instead, in memory that does not grow with the pairs.
_K_PAIR_BUDGET = 2**20
_K_PAIR_CHUNK = 2**14


def _neighbour_bound(pattern: SpatialPattern, reach: float) -> int:
    """An upper bound on the ordered pairs (i, j), i == j included, within
    `reach`: each point times the points in its 3x3 block of cells.

    Cells are wider than `reach` by a slack for rounding: relative, and
    absolute where a squared distance is subnormal and the tree's own
    comparison is coarse.  They are also at least sqrt(area / n) wide, so
    there are at most n of them.
    """
    n, region = len(pattern), pattern.region
    side = max(reach * (1.0 + 2**-20) + 2**-520, math.sqrt(region.area / n))
    nx = max(1, int(min(region.width / side, n)))
    ny = max(1, int(min(region.height / side, n // nx)))
    counts = aggregate_to_grid(pattern, GridSpec(region, nx, ny)).values
    padded = np.pad(counts, 1)
    near = sum(padded[a : a + nx, b : b + ny] for a in range(3) for b in range(3))
    return int((counts * near).sum())


def _pair_list_counts(
    tree: cKDTree, radii: np.ndarray, reach: float, upto: np.ndarray
) -> np.ndarray:
    """Per radius j, the pairs (c, p) with j < upto[c] and dx*dx + dy*dy <=
    r*r, from one list of the pairs within `reach`."""
    xs, ys = tree.data.T
    m = radii.size
    with np.errstate(over="ignore"):  # an r*r that overflows is inf: every pair is in
        r2 = radii * radii
    ij = tree.query_pairs(reach, output_type="ndarray")
    # a pair end c whose pair first counts at radius f adds one at f .. upto[c] - 1
    steps = np.zeros(m + 1, dtype=np.int64)
    for s in range(0, len(ij), _K_PAIR_CHUNK):
        i, j = ij[s : s + _K_PAIR_CHUNK].T
        dx = xs[i] - xs[j]
        dy = ys[i] - ys[j]
        with np.errstate(over="ignore"):
            first = np.searchsorted(r2, dx * dx + dy * dy)
        first = np.concatenate([first, first])
        last = np.concatenate([upto[i], upto[j]])
        counted = first < last
        steps += np.bincount(first[counted], minlength=m + 1)
        steps -= np.bincount(last[counted], minlength=m + 1)
    return steps.cumsum()[:m]


def ripleys_k(pattern: SpatialPattern, radii, correction: str = "none") -> np.ndarray:
    """Ripley's K: mean count of other points within r, over lambda-hat.

    correction="border" averages only over points further than r from
    the region boundary; radii where no such point exists yield NaN.
    """
    from scipy.spatial import cKDTree

    radii = _validate_radii(radii, positive=True)
    if correction not in ("none", "border"):
        raise ParameterError(f"correction must be 'none' or 'border', got {correction!r}")
    if len(pattern) < 2:
        raise InsufficientDataError("K needs at least two points")
    lam = pattern.intensity
    pts = pattern.points
    n = len(pts)
    m = radii.size
    tree = cKDTree(pts)
    r = pattern.region
    if correction == "none":
        upto = np.full(n, m)
    else:
        depth = np.minimum.reduce(
            [pts[:, 0] - r.xmin, r.xmax - pts[:, 0], pts[:, 1] - r.ymin, r.ymax - pts[:, 1]]
        )
        # a point is kept at radii[j] exactly when j < upto (depth > radii[j])
        upto = np.searchsorted(radii, depth, "left")
    reach = float(radii[-1]) * (1.0 + 2**-20)  # the tree's rounding drops no pair within r
    with _tree_overflow():
        # n * n bounds the ordered neighbours too, and costs nothing to check; with
        # no point kept at any radius, the band loop has no band and makes no query
        if upto.any() and (
            n * n <= _K_PAIR_BUDGET or _neighbour_bound(pattern, reach) <= _K_PAIR_BUDGET
        ):
            total = _pair_list_counts(tree, radii, reach, upto)
        else:
            # count_neighbors compares with pow(r, 2), one ulp off a finite r*r for about
            # one radius in a thousand; those radii are counted per point, by the r*r rule
            odd = [j for j, s in enumerate(radii.tolist())
                   if math.isfinite(s * s) and math.pow(s, 2) != s * s]
            # the points sharing one upto form a band, counted in one pass over its
            # radii; with no correction, every point is in the one band
            total = np.zeros(m, dtype=np.int64)
            for u in np.unique(upto[upto > 0]):
                band = pts[upto == u]
                counts = cKDTree(band).count_neighbors(tree, radii[:u])
                for j in odd:
                    if j < u:
                        counts[j] = tree.query_ball_point(band, radii[j], return_length=True).sum()
                total[:u] += counts - len(band)
    kept = n - np.bincount(upto, minlength=m + 1).cumsum()[:-1]
    with np.errstate(invalid="ignore"):  # no kept point: 0 / 0 is NaN
        return total / kept / lam


def _curve(pattern: SpatialPattern, statistic: str, radii, correction: str,
           probe_spec: GridSpec | None) -> np.ndarray:
    """The curve `statistic` names: G, F over `probe_spec`'s centres, or K."""
    if statistic == "g":
        return g_function(pattern, radii)
    if statistic == "f":
        return f_function(pattern, probe_spec, radii)
    return ripleys_k(pattern, radii, correction=correction)


@dataclass(frozen=True)
class EnvelopeResult:
    """Observed summary curve with pointwise simulation extremes."""

    radii: np.ndarray
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    nsim: int

    def __post_init__(self):
        for name in ("radii", "observed", "lower", "upper"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.radii.size
        if any(getattr(self, k).size != n for k in ("observed", "lower", "upper")):
            raise ParameterError("curve arrays must share the radii length")
        ok = np.isfinite(self.lower) & np.isfinite(self.upper)
        if not np.all(self.lower[ok] <= self.upper[ok]):
            raise ParameterError("envelope lower bound exceeds upper bound")

    def outside(self) -> np.ndarray:
        """Boolean mask of radii where the observed curve escapes the band."""
        return (self.observed < self.lower) | (self.observed > self.upper)


def csr_envelope(
    pattern: SpatialPattern,
    statistic: str,
    radii,
    nsim: int,
    rng: RngStream,
    *,
    correction: str = "none",
    probe_spec: GridSpec | None = None,
    threads: int = 1,
) -> EnvelopeResult:
    """Pointwise min/max envelope of a summary statistic under CSR.

    Replicates are CSR with the pattern's empirical intensity, drawn again
    while the statistic refuses one as too small; each uses substream i+1
    of `rng`, so results do not depend on thread count.  With the minimum
    nsim=19, a pointwise exceedance is a 2/20 = 0.1 two-sided test at each radius.
    """
    statistic = str(statistic).lower()
    if statistic not in ("g", "f", "k"):
        raise ParameterError(f"statistic must be one of 'g', 'f', 'k', got {statistic!r}")
    nsim = _count(nsim, "nsim", 19)
    threads = _count(threads, "threads", 1)
    if statistic == "f" and probe_spec is None:
        raise ParameterError("the F statistic needs a probe_spec")
    radii = np.asarray(radii, dtype=float).reshape(-1)
    observed = _curve(pattern, statistic, radii, correction, probe_spec)
    lam = pattern.intensity
    region = pattern.region

    def replicate(i: int) -> np.ndarray:
        sub = rng.substream(i + 1)
        while True:
            with contextlib.suppress(InsufficientDataError):
                return _curve(simulate_csr(lam, region, sub), statistic, radii, correction,
                              probe_spec)

    curves = np.stack(indexed_map(replicate, nsim, threads))
    return EnvelopeResult(radii, observed, curves.min(axis=0), curves.max(axis=0), nsim)
