"""Hotspot and cluster detection on gridded point data.

Two detectors: Getis-Ord GI* z-scores on a count grid, and a cylindrical
space-time scan with a Poisson likelihood ratio and Monte Carlo
significance.  The scan evaluates everything at cell-by-time-slice
resolution — observed counts, baseline mass, and the multinomial null
replicates all live on the same discrete aggregation, so the rank-based
p-value is exact under the null.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .core import (
    DegenerateDataError,
    Grid,
    GridSpec,
    ParameterError,
    RngStream,
    SpaceTimeEvents,
    _check_array_size,
    _positive,
    aggregate_to_grid,
    indexed_map,
)

__all__ = [
    "Cylinder",
    "ScanResult",
    "ScanResults",
    "aggregate_to_grid",
    "gi_star",
    "rss",
    "space_time_scan",
]

# Candidate (centre, cell) pairs held at once by _centre_pairs.
_DISC_BLOCK_PAIRS = 2**18


def rss(a: Grid, b: Grid) -> float:
    """Residual sum of squares between two grids."""
    if a.spec != b.spec:
        raise ParameterError("grids must share the same grid specification")
    diff = a.values.astype(float) - b.values.astype(float)
    return float((diff * diff).sum())


def gi_star(grid: Grid, neighbourhood_radius: float) -> Grid:
    """Getis-Ord GI* z-scores of a grid of counts, with binary weights
    (centre distance <= radius, the cell itself included).

    z_i = (S_i - xbar W_i) / (s sqrt((n W_i - W_i^2) / (n - 1))), where
    S_i is the neighbourhood sum, W_i its size, and s the population
    standard deviation.  A neighbourhood that covers the whole grid has
    both numerator and variance identically zero; its z is 0.
    """
    radius = _positive(neighbourhood_radius, "neighbourhood radius")
    spec = grid.spec
    n = spec.ncells
    if n < 2:
        raise ParameterError("GI* needs at least two cells")
    x = grid.values.ravel().astype(float)
    s = x.std()  # population sd, matching the n-1 variance factor above
    if s == 0.0:
        raise DegenerateDataError("GI* is undefined when every cell count is equal")
    pairs = _centre_pairs(spec, radius)
    tree, reach = next(pairs)
    # full coverage raises before any pair is listed.  Centres round
    # monotonically, so no two lie further apart than cell 0 and the last
    # cell: when cell 0 sees the whole grid, every cell does
    if tree.query_ball_point(tree.data[0], reach, return_length=True) >= n:
        raise DegenerateDataError(
            "every neighbourhood covers the whole grid; GI* is identically zero"
        )
    # integer counts make S exact in any order
    W, S = np.zeros(n), np.zeros(n)
    for blk, centre, cell in pairs:
        size = blk.stop - blk.start
        W[blk] = np.bincount(centre, minlength=size)
        S[blk] = np.bincount(centre, weights=x[cell], minlength=size)
    xbar = x.mean()
    var_term = (n * W - W * W) / (n - 1.0)
    full = W >= n
    denom = s * np.sqrt(np.where(full, 1.0, var_term))
    z = np.where(full, 0.0, (S - xbar * W) / denom)
    return Grid(spec, z.reshape(spec.nx, spec.ny))


@dataclass(frozen=True)
class Cylinder:
    """Disc in space crossed with a time window."""

    cx: float
    cy: float
    radius: float
    t_start: float
    t_end: float

    def __post_init__(self):
        for name in ("cx", "cy", "t_start", "t_end"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "radius", _positive(self.radius, "radius"))
        if not self.t_end > self.t_start:
            raise ParameterError("cylinder must have t_end > t_start")


@dataclass(frozen=True)
class ScanResult:
    """One scanned cylinder with its evidence."""

    cylinder: Cylinder
    observed: int
    expected: float
    llr: float
    p_value: float


class ScanResults(Sequence):
    """Read-only scan results in rank order, as the columns of scan.csv.

    `columns` holds cx, cy, radius, t_start, t_end, observed, expected,
    llr and p_value, one read-only array each, row k being the k-th
    ranked cylinder.  A `ScanResult` is built only when indexed or
    iterated; a slice returns a list of them.
    """

    def __init__(self, columns):
        self._columns = tuple(columns)
        for c in self._columns:
            c.setflags(write=False)

    @property
    def columns(self) -> tuple:
        return self._columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        *cylinder, observed, expected, llr, p_value = (c[index] for c in self._columns)
        return ScanResult(
            Cylinder(*cylinder), int(observed), float(expected), float(llr), float(p_value)
        )

    def __repr__(self):
        return f"ScanResults({len(self)} cylinders)"


def _poisson_llr(n: np.ndarray, mu: np.ndarray, total: float) -> np.ndarray:
    """Kulldorff Poisson log likelihood ratio; zero unless n > mu.

    n log(n/mu) + (N-n) log((N-n)/(N-mu)); cylinders with observed mass
    but zero expectation come out +inf.
    """
    n = np.asarray(n, dtype=float)
    mu = np.asarray(mu, dtype=float)
    rem = total - n
    rem_mu = total - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = n * np.log(n / mu)
        outside = np.where(rem > 0.0, rem * np.log(rem / rem_mu), 0.0)
    return np.where(n > mu, inside + outside, 0.0)


def _centre_pairs(spec: GridSpec, radius: float):
    """Pairs of cell centres within `radius` of each other, a block at a time.

    First yields the k-d tree of the centres and the radius, both in the
    tree's units; then, for one block of centres at a time, a slice of
    the cells and the block's (centre, cell) pairs as two index arrays,
    in no particular order, with the centre counted from the slice start.
    A pair is kept when dx*dx + dy*dy <= radius*radius.  Those squared
    distances underflow for tiny cells, so the tree holds the centres
    rescaled by a power of two, which is exact and keeps them in the
    normal range.  A block holds at most about _DISC_BLOCK_PAIRS pairs,
    even when the radius spans the region.
    """
    centres = spec.centre_points()
    ncells = centres.shape[0]
    scale = math.ldexp(1.0, -math.frexp(max(spec.cell_width, spec.cell_height))[1])
    tree = cKDTree(centres * scale)
    reach = radius * scale
    yield tree, reach
    # the cells within the radius of a centre lie in a box of at most this many
    box = min(spec.nx, 2 * radius / spec.cell_width + 3) * min(
        spec.ny, 2 * radius / spec.cell_height + 3)
    block = max(1, int(_DISC_BLOCK_PAIRS // box))
    for b0 in range(0, ncells, block):
        blk = slice(b0, min(b0 + block, ncells))
        query = tree if block >= ncells else cKDTree(tree.data[blk])
        pairs = query.sparse_distance_matrix(tree, reach, output_type="ndarray")
        yield blk, pairs["i"], pairs["j"]


def _candidate_discs(spec: GridSpec, radii: np.ndarray):
    """Distinct cell sets reachable as (centre, radius) discs.

    Returns the discs as the rows of a CSR matrix of ones over the cells,
    and their (cx, cy, radius) representatives as an (ndiscs, 3) array.
    A cell is in a disc when the np.hypot of its offset from the centre is
    at most the radius; the centre pairs, taken with a margin, only
    propose candidate cells, so they may propose too many but never too
    few.  Discs containing identical cell sets are evaluated once; the
    first (centre, radius) producing a set, centre-major with the radii in
    the order given, is kept as its representative.
    """
    centres = spec.centre_points()
    ncells = centres.shape[0]
    pairs = _centre_pairs(spec, radii.max() * (1 + 1e-9))
    next(pairs)  # the tree; the discs need only the pairs
    radius_list = radii.tolist()
    seen: set[bytes] = set()
    rows: list[bytes] = []
    reps: list[tuple[float, float, float]] = []
    for blk, i, j in pairs:
        xy = centres[blk]
        centre, cell = np.divmod(np.sort(i.astype(np.int64) * ncells + j), ncells)
        cell = cell.astype(np.int32)
        d = np.hypot(centres[cell, 0] - xy[centre, 0], centres[cell, 1] - xy[centre, 1])
        bounds = np.searchsorted(centre, np.arange(len(xy) + 1)).tolist()
        for (x, y), lo, hi in zip(xy.tolist(), bounds, bounds[1:]):
            cells, dist = cell[lo:hi], d[lo:hi]
            for r in radius_list:
                row = cells[dist <= r].tobytes()
                if row not in seen:
                    seen.add(row)
                    rows.append(row)
                    reps.append((x, y, r))
    indices = np.frombuffer(bytearray().join(rows), dtype=np.int32)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    indptr //= indices.itemsize
    members = sparse.csr_matrix(
        (np.ones(indices.size), indices, indptr), shape=(len(rows), ncells)
    )
    return members, np.array(reps)


def _candidate_windows(n_slices: int, slice_len: float, durations: np.ndarray):
    """Distinct (start slice, slice count) windows for the durations.

    Durations are floored to whole slices, with a one-slice minimum:
    the scan cannot resolve below its slice length.
    """
    seen = set()
    windows: list[tuple[int, int]] = []
    for dur in durations:
        width = int(math.floor(dur / slice_len + 1e-9))
        width = min(max(width, 1), n_slices)
        for s0 in range(n_slices - width + 1):
            if (s0, width) not in seen:
                seen.add((s0, width))
                windows.append((s0, width))
    return windows


def space_time_scan(
    events: SpaceTimeEvents,
    spec: GridSpec,
    n_slices: int,
    radii,
    durations,
    nsim: int,
    rng: RngStream,
    *,
    baseline: list[Grid] | None = None,
    threads: int = 1,
) -> ScanResults:
    """Cylindrical space-time scan with a conditional Poisson null.

    Events are aggregated to (cell, time slice); candidate cylinders are
    every distinct disc of cell centres crossed with every distinct
    whole-slice window.  Expected counts scale the baseline mass (cell
    volume by default, or one grid of non-negative mass per slice, which
    need not be integers) to the observed total N.  Significance: the
    total is redistributed over (cell, slice) proportionally to the
    baseline nsim times; a cylinder's
    p-value is the rank of its LLR among the replicate maxima,
    (1 + #{max_sim >= llr}) / (nsim + 1).

    Results are sorted by decreasing LLR (ties: centre x, y, radius,
    start) and returned as a read-only `ScanResults` sequence, which
    holds them as the columns of scan.csv.  Each replicate uses
    substream i+1 of `rng`, so the output is independent of `threads`.
    """
    n_slices = int(n_slices)
    nsim = int(nsim)
    if len(events) == 0:
        raise ParameterError("scan needs at least one event")
    if n_slices < 1:
        raise ParameterError("n_slices must be at least 1")
    _check_array_size("cells x slices", spec.ncells, n_slices)
    if nsim < 99:
        raise ParameterError(f"nsim must be at least 99, got {nsim}")
    radii_arr = np.asarray(radii, dtype=float).reshape(-1)
    if radii_arr.size == 0 or np.any(~np.isfinite(radii_arr)) or np.any(radii_arr <= 0.0):
        raise ParameterError("radii must be non-empty, finite and positive")
    dur_arr = np.asarray(durations, dtype=float).reshape(-1)
    if dur_arr.size == 0 or np.any(~np.isfinite(dur_arr)) or np.any(dur_arr <= 0.0):
        raise ParameterError("durations must be non-empty, finite and positive")
    if not spec.region.covers(events.region):
        raise ParameterError("grid region must cover the event region")

    ncells = spec.ncells
    slice_len = events.horizon / n_slices

    # observed (cell, slice) counts
    ix, iy = spec.cell_indices(events.xy[:, 0], events.xy[:, 1])
    cell = ix * spec.ny + iy
    s_idx = np.minimum((events.t / slice_len).astype(np.int64), n_slices - 1)
    counts = np.zeros((ncells, n_slices))
    np.add.at(counts, (cell, s_idx), 1.0)
    total = float(len(events))

    # baseline mass per (cell, slice)
    if baseline is None:
        mass = np.full((ncells, n_slices), spec.cell_area * slice_len)
    else:
        if len(baseline) != n_slices:
            raise ParameterError(
                f"baseline needs one grid per slice ({n_slices}), got {len(baseline)}"
            )
        mass = np.empty((ncells, n_slices))
        for s, g in enumerate(baseline):
            if g.spec != spec:
                raise ParameterError(f"baseline grid {s} does not match the scan grid")
            if np.any(g.values < 0):
                raise ParameterError(f"baseline grid {s} has a negative value")
            mass[:, s] = g.values.ravel().astype(float)
    mass_total = mass.sum()
    if mass_total <= 0.0:
        raise DegenerateDataError("baseline has zero total mass")

    members, reps = _candidate_discs(spec, radii_arr)
    windows = _candidate_windows(n_slices, slice_len, dur_arr)
    starts = np.array([s0 for s0, _ in windows])
    ends = starts + np.array([w for _, w in windows])
    n_win = len(windows)

    def window_sums(per_slice: np.ndarray) -> np.ndarray:
        """(ndiscs, nslices) -> (ndiscs, nwindows) sums over each window."""
        cum = np.zeros((per_slice.shape[0], n_slices + 1), dtype=per_slice.dtype)
        np.cumsum(per_slice, axis=1, out=cum[:, 1:])
        return cum[:, ends] - cum[:, starts]

    # Integer counts make the sparse observed pass exact in any order.
    obs = window_sums(members @ counts)
    # `expected` stays on the dense BLAS product: scan.csv records its last
    # bits, and sparse or blocked sums of the float mass round differently.
    expected = total * window_sums(members.toarray() @ mass) / mass_total
    llr = _poisson_llr(obs, expected, total).ravel()

    # Null distribution of the maximum LLR.  The LLR is 0 for n <= mu and
    # rises with n above it, so each replicate's maximum is reached at the
    # largest count within a group of cylinders sharing the same expected
    # value: one LLR per group instead of one per cylinder.
    mu, group = np.unique(expected.ravel(), return_inverse=True)
    by_group = np.argsort(group, kind="stable")
    group_starts = np.searchsorted(group[by_group], np.arange(mu.size))
    # Each cylinder's window sum, in group order, is hi - lo in the flattened
    # (ndiscs, nslices + 1) product of the discs with the slice cumsums.
    disc, win = np.divmod(by_group, n_win)
    row = disc * (n_slices + 1)
    lo, hi = row + starts[win], row + ends[win]
    pvals = (mass / mass_total).ravel()

    def replicate(i: int) -> float:
        sub = rng.substream(i + 1)
        sim = sub.multinomial(int(total), pvals).reshape(ncells, n_slices)
        cum = np.zeros((ncells, n_slices + 1))
        np.cumsum(sim, axis=1, out=cum[:, 1:])
        sums = (members @ cum).ravel()
        sim_obs = np.take(sums, hi) - np.take(sums, lo)
        return float(_poisson_llr(np.maximum.reduceat(sim_obs, group_starts), mu, total).max())

    max_llrs = np.sort(indexed_map(replicate, nsim, threads))
    # (1 + #{max_sim >= llr}) / (nsim + 1), for every cylinder at once
    p_value = (1 + nsim - np.searchsorted(max_llrs, llr, side="left")) / (nsim + 1)

    cx, cy, radius = np.repeat(reps, n_win, axis=0).T
    t_start = np.tile(starts * slice_len, len(reps))
    t_end = np.tile(np.minimum(ends * slice_len, events.horizon), len(reps))
    observed = np.rint(obs).astype(np.int64).ravel()
    order = np.lexsort((t_start, radius, cy, cx, -llr))
    columns = (cx, cy, radius, t_start, t_end, observed, expected.ravel(), llr, p_value)
    return ScanResults(tuple(c[order] for c in columns))
