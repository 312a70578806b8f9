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

# (centre, cell) offsets held at once by _windows and its callers.
_DISC_BLOCK_PAIRS = 2**18


def rss(a: Grid, b: Grid) -> float:
    """Residual sum of squares between two grids."""
    if a.spec != b.spec:
        raise ParameterError("grids must share the same grid specification")
    diff = a.values.astype(float) - b.values.astype(float)
    return float((diff * diff).sum())


def gi_star(grid: Grid, neighbourhood_radius: float) -> Grid:
    """Getis-Ord GI* z-scores of a grid of counts, with binary weights: cell
    j is a neighbour of centre i when dx*dx + dy*dy <= radius*radius for
    their centre offset (dx, dy), the cell itself included.

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
    # squared offsets underflow for tiny cells; rescaling by a power of two
    # is exact and keeps them in the normal range
    scale = math.ldexp(1.0, -math.frexp(max(spec.cell_width, spec.cell_height))[1])
    cx, cy = spec.x_centres() * scale, spec.y_centres() * scale
    reach = radius * scale
    r2 = reach * reach
    # Centres round monotonically, so no two lie further apart than cell 0 and
    # the last cell: when those are neighbours, every cell sees the whole grid
    dx, dy = cx[-1] - cx[0], cy[-1] - cy[0]
    if dx * dx + dy * dy <= r2:
        raise DegenerateDataError(
            "every neighbourhood covers the whole grid; GI* is identically zero"
        )
    W, S = np.zeros(n), np.zeros(n)
    for blk, col, row, dx, dy in _windows(cx, cy, reach):
        near = (dx * dx)[:, :, None] + (dy * dy)[:, None, :] <= r2
        W[blk] = near.sum(axis=(1, 2))
        # integer counts make S exact in any order
        S[blk] = (near * x[col[:, :, None] * spec.ny + row[:, None, :]]).sum(axis=(1, 2))
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

    Built from nine columns, cx, cy, radius, t_start, t_end, observed,
    expected, llr and p_value, in any row order.  Ranking is by decreasing
    LLR, ties on cx, cy, radius and t_start, then the given order, and it
    is lazy: `columns` sorts every row on first use and keeps the result,
    one read-only array per column, row k being the k-th ranked cylinder;
    `top(k)` sorts only the rows with the k-th LLR or above.  A
    `ScanResult` is built only when indexed or iterated; a slice returns a
    list of them.
    """

    def __init__(self, columns):
        self._columns = tuple(columns)
        for c in self._columns:
            c.setflags(write=False)
        self._ranked = False

    @property
    def columns(self) -> tuple:
        if not self._ranked:
            # read once: a concurrent call may swap in ranked columns, and
            # ranking those again gives the same rows
            cols = self._columns
            order = self._order(cols)
            cols = tuple(c[order] for c in cols)
            for c in cols:
                c.setflags(write=False)
            self._columns, self._ranked = cols, True
        return self._columns

    def top(self, k: int) -> tuple:
        """The columns of the best k rows in rank order: `columns` cut to k
        rows, but unless they are already ranked, only the rows with the
        k-th LLR or above are sorted."""
        cols = self._columns
        if self._ranked or not 0 < k < len(self):
            return tuple(c[:k] for c in self.columns)
        key = -cols[7]
        # every row tied with the k-th LLR, and NaN ones, which sort last
        rows = np.flatnonzero(~(key > np.partition(key, k - 1)[k - 1]))
        rows = rows[self._order(tuple(c[rows] for c in cols))[:k]]
        return tuple(c[rows] for c in cols)

    @staticmethod
    def _order(columns) -> np.ndarray:
        cx, cy, radius, t_start, _, _, _, llr, _ = columns
        return np.lexsort((t_start, radius, cy, cx, -llr))

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        *cylinder, observed, expected, llr, p_value = (c[index] for c in self.columns)
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


def _span_ends(c: np.ndarray, reach: float) -> np.ndarray:
    """Per a, the first b > a with c[b] - c[a] > reach, or len(c): a
    vectorised bisection, since the offsets round monotonically in b."""
    n = len(c)
    lo, hi = np.arange(1, n + 1), np.full(n, n)
    live = np.flatnonzero(lo < hi)
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        ok = c[mid] - c[live] > reach
        hi[live[ok]] = mid[ok]
        lo[live[~ok]] = mid[~ok] + 1
        live = live[lo[live] < hi[live]]
    return lo


def _box(c: np.ndarray, reach: float):
    """Per centre, the start of a fixed-width window of cells along one axis.

    The cells within `reach` of centre a are one span holding a itself; its
    start is the end of the span on the reversed, negated axis, whose
    offsets are exactly the negated ones.  The window, as wide as the
    widest span and clipped to the axis, contains it.
    """
    n = len(c)
    first = n - _span_ends(-c[::-1], reach)[::-1]
    width = int((_span_ends(c, reach) - first).max())
    return np.clip(first, 0, n - width), width


def _windows(cx: np.ndarray, cy: np.ndarray, reach: float, per_centre: int = 0):
    """The cells near each grid centre, one block of centres at a time.

    Yields a slice of the centres, x-major, and per centre the columns and
    rows of its window with their offsets from it, as (block, bx) and
    (block, by) arrays.  The window, offsets within `reach` and a margin on
    each axis, holds every cell within `reach` by hypot or by squared
    offsets.  A block holds about _DISC_BLOCK_PAIRS offsets and `per_centre`
    more values per centre.
    """
    nx, ny = len(cx), len(cy)
    reach = reach * (1 + 1e-9)
    col0, bx = _box(cx, reach)
    row0, by = _box(cy, reach)
    block = max(1, _DISC_BLOCK_PAIRS // (bx * by + per_centre))
    for b0 in range(0, nx * ny, block):
        ix, iy = np.divmod(np.arange(b0, min(b0 + block, nx * ny)), ny)
        col = col0[ix, None] + np.arange(bx)
        row = row0[iy, None] + np.arange(by)
        yield slice(b0, b0 + len(ix)), col, row, cx[col] - cx[ix, None], cy[row] - cy[iy, None]


def _candidate_discs(spec: GridSpec, radii: np.ndarray):
    """Distinct cell sets reachable as (centre, radius) discs, as column runs.

    Returns the discs as an (ndiscs, nx, 2) int32 array of [lo, hi) bounds
    on iy, one run per grid column, (0, 0) where a disc misses the column;
    and their (cx, cy, radius) representatives as an (ndiscs, 3) array.  A
    cell is in a disc when the np.hypot of its offset from the centre is at
    most the radius.  Offsets round monotonically and hypot grows with
    |dy|, so in each column the members are one run of iy, placed by its
    first member and its size.  Each centre is measured only against the
    `_windows` box of the largest radius; no (centre, cell) pair is
    listed.  Discs with identical runs are evaluated once; the first
    (centre, radius) producing a set, centre-major with the radii in the
    order given, is kept as its representative.
    """
    nx, ny = spec.nx, spec.ny
    cx, cy = spec.x_centres(), spec.y_centres()
    radius_list = radii.tolist()
    nrad = len(radius_list)
    width = 2 * nx * np.dtype(np.int32).itemsize
    seen: set[bytes] = set()
    keys: list[bytes] = []
    reps: list[tuple[float, float, float]] = []
    for blk, col, row, dx, dy in _windows(cx, cy, radii.max(), nrad * nx):
        ncentres = blk.stop - blk.start
        dist = np.hypot(dx[:, :, None], dy[:, None, :])
        at = np.arange(ncentres)[:, None]
        runs = np.zeros((ncentres, nrad, nx, 2), dtype=np.int32)
        for k, r in enumerate(radius_list):
            inside = dist <= r
            size = inside.sum(axis=2)
            lo = np.where(size > 0, row[:, :1] + inside.argmax(axis=2), 0)
            runs[at, k, col, 0] = lo
            runs[at, k, col, 1] = lo + size
        buf = runs.tobytes()
        for m in range(ncentres * nrad):
            key = buf[m * width:(m + 1) * width]
            if key not in seen:
                seen.add(key)
                keys.append(key)
                centre, k = divmod(blk.start * nrad + m, nrad)
                reps.append((cx[centre // ny], cy[centre % ny], radius_list[k]))
    runs = np.frombuffer(b"".join(keys), dtype=np.int32).reshape(len(keys), nx, 2)
    return runs, np.array(reps)


def _run_matrix(runs: np.ndarray, ny: int):
    """The discs' runs as a CSR matrix over the rows of `_prefix_sums`.

    Row d holds +1 at each run's hi and -1 at its lo, so its product with
    the prefix sums is the sum over disc d's cells.
    """
    ndiscs, nx = runs.shape[:2]
    lo, hi = runs[..., 0], runs[..., 1]
    hit = hi > lo
    base = np.arange(nx) * (ny + 1)
    indices = np.stack([base + lo, base + hi], axis=-1)[hit].ravel()
    indptr = np.zeros(ndiscs + 1, dtype=np.int64)
    np.cumsum(2 * hit.sum(axis=1), out=indptr[1:])
    data = np.tile([-1.0, 1.0], indices.size // 2)
    return sparse.csr_matrix((data, indices, indptr), shape=(ndiscs, nx * (ny + 1)))


def _prefix_sums(per_cell: np.ndarray, nx: int, ny: int) -> np.ndarray:
    """(ncells, n) values -> (nx * (ny + 1), n + 1) 2-D prefix sums.

    Row ix * (ny + 1) + j, column s holds the sum over cells (ix, iy < j)
    and slices < s: cumulated along the slices, then down each column.
    """
    n = per_cell.shape[1]
    out = np.zeros((nx, ny + 1, n + 1))
    np.cumsum(per_cell.reshape(nx, ny, n).cumsum(axis=2), axis=1, out=out[:, 1:, 1:])
    return out.reshape(nx * (ny + 1), n + 1)


def _candidate_windows(n_slices: int, slice_len: float, durations: np.ndarray):
    """Distinct (start slice, slice count) windows for the durations.

    Durations are floored to whole slices, with a one-slice minimum:
    the scan cannot resolve below its slice length.  A duration past the
    horizon covers every slice, even where its slice count overflows.
    """
    seen = set()
    windows: list[tuple[int, int]] = []
    for dur in durations.tolist():
        width = max(math.floor(min(dur / slice_len + 1e-9, n_slices)), 1)
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

    Each disc is held as one run of cells per grid column, so one sparse
    product of +1/-1 run ends with 2-D prefix sums gives every disc's
    slice sums, for the observed counts and in each replicate.  Results
    come back as a read-only `ScanResults` sequence, the columns of
    scan.csv, ranked by decreasing LLR (ties: centre x, y, radius, start)
    on first use.  Each replicate uses substream i+1 of `rng`, so the
    output is independent of `threads`.
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

    runs, reps = _candidate_discs(spec, radii_arr)
    discs = _run_matrix(runs, spec.ny)
    windows = _candidate_windows(n_slices, slice_len, dur_arr)
    starts = np.array([s0 for s0, _ in windows])
    ends = starts + np.array([w for _, w in windows])
    n_win = len(windows)

    # Integer counts make the run sums exact in any order.
    obs = discs @ _prefix_sums(counts, spec.nx, spec.ny)
    obs = obs[:, ends] - obs[:, starts]
    # `expected` stays on the dense BLAS product of the 0/1 member rows:
    # scan.csv records its last bits, and sparse or blocked sums of the
    # float mass round differently.
    iy = np.arange(spec.ny)
    members = (runs[..., :1] <= iy) & (iy < runs[..., 1:])
    cum = np.zeros((len(runs), n_slices + 1))
    np.cumsum(members.reshape(len(runs), ncells).astype(float) @ mass, axis=1, out=cum[:, 1:])
    expected = total * (cum[:, ends] - cum[:, starts]) / mass_total
    llr = _poisson_llr(obs, expected, total).ravel()

    # Null distribution of the maximum LLR.  The LLR is 0 for n <= mu and
    # rises with n above it, so each replicate's maximum is reached at the
    # largest count within a group of cylinders sharing the same expected
    # value: one LLR per group instead of one per cylinder.
    mu, group = np.unique(expected.ravel(), return_inverse=True)
    by_group = np.argsort(group, kind="stable")
    group_starts = np.searchsorted(group[by_group], np.arange(mu.size))
    # Each cylinder's window sum, in group order, is hi - lo in the flattened
    # (ndiscs, nslices + 1) product of the runs with the prefix sums.
    disc, win = np.divmod(by_group, n_win)
    row = disc * (n_slices + 1)
    lo, hi = row + starts[win], row + ends[win]
    pvals = (mass / mass_total).ravel()

    def replicate(i: int) -> float:
        sub = rng.substream(i + 1)
        sim = sub.multinomial(int(total), pvals).reshape(ncells, n_slices)
        sums = (discs @ _prefix_sums(sim, spec.nx, spec.ny)).ravel()
        sim_obs = np.take(sums, hi) - np.take(sums, lo)
        return float(_poisson_llr(np.maximum.reduceat(sim_obs, group_starts), mu, total).max())

    max_llrs = np.sort(indexed_map(replicate, nsim, threads))
    # (1 + #{max_sim >= llr}) / (nsim + 1), for every cylinder at once
    p_value = (1 + nsim - np.searchsorted(max_llrs, llr, side="left")) / (nsim + 1)

    cx, cy, radius = np.repeat(reps, n_win, axis=0).T
    t_start = np.tile(starts * slice_len, len(reps))
    t_end = np.tile(np.minimum(ends * slice_len, events.horizon), len(reps))
    observed = np.rint(obs).astype(np.int64).ravel()
    return ScanResults((cx, cy, radius, t_start, t_end, observed, expected.ravel(), llr, p_value))
