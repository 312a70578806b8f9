"""Hotspot and cluster detection on gridded point data.

Two detectors: Getis-Ord GI* z-scores on a count grid, and a cylindrical
space-time scan with a Poisson likelihood ratio and Monte Carlo
significance.  The scan evaluates everything at cell-by-time-slice
resolution — observed counts, baseline mass, and the null replicates all
live on the same discrete aggregation, so the rank-based p-value is exact
under the null.  No scan sum calls BLAS, so no thread count changes it.
A replicate takes the sums of each window width as one strided difference
of its discs' slice sums, and cuts the discs with equal expected counts to
their largest count before any likelihood ratio.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    DegenerateDataError,
    Grid,
    GridSpec,
    ParameterError,
    RngStream,
    SpaceTimeEvents,
    _check_array_size,
    _grid_cells,
    _positive,
    _positives,
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

# Integers of magnitude up to 2**24 are exact in float32: a replicate of
# fewer events than this sums its counts in float32.
_F32_EXACT = 2**24


def rss(a: Grid, b: Grid) -> float:
    """Residual sum of squares between two grids."""
    if a.spec != b.spec:
        raise ParameterError("grids must share the same grid specification")
    diff = a.values.astype(float) - b.values.astype(float)
    return float((diff * diff).sum())


def _disc_template(spec: GridSpec, radius: float) -> np.ndarray:
    """The grid disc of `radius` as the half-height of its run per column.

    Entry k, for column offsets k = 0..nx-1, is the largest row offset
    j <= ny - 1 with np.hypot(k * cell_width, j * cell_height) < radius, or
    -1 when column offset k holds no cell.  The disc about a centre cell
    is this template moved there and clipped to the grid: one shape for
    every centre, symmetric under ±k and ±j.  The tie rule is strict, so
    a radius of exactly one cell holds the centre cell alone.  Offsets
    are whole multiples of the cell size, so they neither underflow nor
    round differently from one centre to the next.
    """
    ny, h = spec.ny, spec.cell_height
    dx = np.arange(spec.nx) * spec.cell_width
    # a first guess from the circle's half-chord, then exact hypot steps
    with np.errstate(invalid="ignore", over="ignore"):
        chord = np.sqrt(radius - dx) * np.sqrt(radius + dx) / h
    j = np.where(dx < radius, np.minimum(chord, ny - 1), -1).astype(np.int64)
    while np.any(out := (j >= 0) & ~(np.hypot(dx, j * h) < radius)):
        j -= out
    while np.any(more := (j < ny - 1) & (np.hypot(dx, (j + 1) * h) < radius)):
        j += more
    return j


def gi_star(grid: Grid, neighbourhood_radius: float) -> Grid:
    """Getis-Ord GI* z-scores of a grid of counts, with binary weights: cell
    j is a neighbour of centre i when their offset of (k, l) cells has
    np.hypot(k * cell_width, l * cell_height) < radius, the cell itself
    included (the `_disc_template` rule, shared with the scan).

    z_i = (S_i - xbar W_i) / (s sqrt((n W_i - W_i^2) / (n - 1))), where
    S_i is the neighbourhood sum, W_i its size, and s the population
    standard deviation.  A neighbourhood that covers the whole grid has
    both numerator and variance identically zero; its z is 0.
    """
    radius = _positive(neighbourhood_radius, "neighbourhood radius")
    spec = grid.spec
    nx, ny, n = spec.nx, spec.ny, spec.ncells
    if n < 2:
        raise ParameterError("GI* needs at least two cells")
    x = grid.values.ravel().astype(float)
    s = x.std()  # population sd, matching the n-1 variance factor above
    if s == 0.0:
        raise DegenerateDataError("GI* is undefined when every cell count is equal")
    half = _disc_template(spec, radius)
    # when cell 0 reaches the far corner, every cell sees the whole grid
    if half[-1] == ny - 1:
        raise DegenerateDataError(
            "every neighbourhood covers the whole grid; GI* is identically zero"
        )
    # W and S per centre, one template column offset k at a time: the run
    # sums of column c serve the centres in columns c + k and c - k
    cum = np.zeros((nx, ny + 1))
    np.cumsum(x.reshape(nx, ny), axis=1, out=cum[:, 1:])
    iy = np.arange(ny)
    W, S = np.zeros((nx, ny)), np.zeros((nx, ny))
    for k, j in enumerate(half[half >= 0].tolist()):
        lo, hi = np.maximum(iy - j, 0), np.minimum(iy + j + 1, ny)
        # integer counts make S exact in any order
        runs, size = cum[:, hi] - cum[:, lo], hi - lo
        S[k:] += runs[:nx - k]
        W[k:] += size
        if k:
            S[:nx - k] += runs[k:]
            W[:nx - k] += size
    W, S = W.ravel(), S.ravel()
    xbar = x.mean()
    var_term = (n * W - W * W) / (n - 1.0)
    full = W >= n
    denom = s * np.sqrt(np.where(full, 1.0, var_term))
    z = np.where(full, 0.0, (S - xbar * W) / denom)
    return Grid(spec, z.reshape(nx, ny))


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


def _candidate_discs(spec: GridSpec, radii: np.ndarray):
    """Distinct cell sets reachable as (centre, radius) discs, as column runs.

    Returns the discs as an (ndiscs, nx, 2) int32 array of [lo, hi) bounds
    on iy, one run per grid column, (0, 0) where a disc misses the column;
    and their (cx, cy, radius) representatives as an (ndiscs, 3) array.  A
    disc is its radius's `_disc_template` moved to the centre cell and
    clipped to the grid, so it holds the cells whose offset from the
    centre is under the radius, and every centre of a radius sees one
    shape.  The runs are built one grid column of centres at a time.
    Discs with identical runs are evaluated once; the first (centre,
    radius) producing a set, centre-major with the radii in the order
    given, is kept as its representative.
    """
    nx, ny = spec.nx, spec.ny
    nrad = len(radii)
    half = np.stack([_disc_template(spec, r) for r in radii.tolist()])
    iy = np.arange(ny)[:, None, None]
    width = 2 * nx * np.dtype(np.int32).itemsize
    first: dict[bytes, int] = {}  # runs -> flat (centre, radius) index, in insertion order
    for ix in range(nx):
        # (nrad, nx) half-heights about column ix, then (ny, nrad, nx) runs
        h = half[:, np.abs(np.arange(nx) - ix)]
        lo = np.where(h >= 0, np.maximum(iy - h, 0), 0)
        hi = np.where(h >= 0, np.minimum(iy + h + 1, ny), 0)
        buf = np.stack([lo, hi], axis=-1).astype(np.int32).tobytes()
        base = ix * ny * nrad
        for m in range(ny * nrad):
            first.setdefault(buf[m * width:(m + 1) * width], base + m)
    runs = np.frombuffer(b"".join(first), dtype=np.int32).reshape(len(first), nx, 2)
    cell, k = np.divmod(np.fromiter(first.values(), dtype=np.int64, count=len(first)), nrad)
    return runs, np.column_stack([spec.centre_points()[cell], radii[k]])


def _run_matrix(runs: np.ndarray, ny: int):
    """The discs' runs as a CSR matrix over the rows of `_prefix_sums`.

    Row d holds +1 at each run's hi and -1 at its lo, so its product with
    the prefix sums is the sum over disc d's cells.
    """
    from scipy import sparse  # on use: only the scan needs it, ~0.2 s to import

    ndiscs, nx = runs.shape[:2]
    lo, hi = runs[..., 0], runs[..., 1]
    hit = hi > lo
    base = np.arange(nx) * (ny + 1)
    indices = np.stack([base + lo, base + hi], axis=-1)[hit].ravel()
    indptr = np.zeros(ndiscs + 1, dtype=np.int64)
    np.cumsum(2 * hit.sum(axis=1), out=indptr[1:])
    data = np.tile([-1.0, 1.0], indices.size // 2)
    return sparse.csr_matrix((data, indices, indptr), shape=(ndiscs, nx * (ny + 1)))


def _prefix_sums(per_cell: np.ndarray, nx: int, ny: int, dtype=float) -> np.ndarray:
    """(ncells, n) values -> (nx * (ny + 1), n + 1) 2-D prefix sums in `dtype`.

    Row ix * (ny + 1) + j, column s holds the sum over cells (ix, iy < j)
    and slices < s: cumulated along the slices, then down each column.
    """
    n = per_cell.shape[1]
    out = np.zeros((nx, ny + 1, n + 1), dtype=dtype)
    np.cumsum(per_cell.reshape(nx, ny, n).cumsum(axis=2), axis=1, out=out[:, 1:, 1:])
    return out.reshape(nx * (ny + 1), n + 1)


def _window_widths(n_slices: int, slice_len: float, durations: np.ndarray) -> list[int]:
    """Distinct window widths in slices, in the order of the durations.

    A width w stands for the windows starting at slices 0 ... n_slices - w.
    Durations are floored to whole slices, with a one-slice minimum:
    the scan cannot resolve below its slice length.  A duration past the
    horizon covers every slice, even where its slice count overflows.
    """
    return list(dict.fromkeys(
        max(math.floor(min(dur / slice_len + 1e-9, n_slices)), 1) for dur in durations.tolist()
    ))


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
    whole-slice window.  Expected counts scale the baseline mass (one unit
    per (cell, slice) by default, or one grid of non-negative mass per
    slice, which need not be integers) to the observed total N.
    Significance: nsim times, N events are drawn over (cell, slice) in
    proportion to the mass; a cylinder's p-value is the rank of its LLR
    among the replicate maxima, (1 + #{max_sim >= llr}) / (nsim + 1).

    Each disc is held as one run of cells per grid column, so one sparse
    product of +1/-1 run ends with 2-D prefix sums gives every disc's
    slice sums: of the counts, the mass and each replicate.  A replicate's
    counts, prefix sums, disc sums and every partial sum between are
    integers in [-N, N]: float32 while N < 2**24, float64 from there on,
    exact either way.  An integer mass gives `expected` rounded once; a
    float mass may cancel by a few eps of the total, never below 0, and
    gives 0 where none is positive.
    A cylinder whose positive mass is within that rounding of 0 is summed
    again over its (cell, slice) pairs, to a few eps of its own mass.
    A replicate's maximum LLR needs only the largest count among the
    cylinders that share an expected value.  Discs whose expected rows are
    equal form a class, found once; each replicate takes one strided
    difference of its slice sums per window width, cuts every class to its
    maximum, and evaluates one LLR per distinct expected value.
    Results come back as a read-only `ScanResults` sequence, the columns of
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
    radii_arr = _positives(radii, "radii")
    dur_arr = _positives(durations, "durations")

    ncells = spec.ncells
    slice_len = events.horizon / n_slices

    # observed (cell, slice) counts
    cell = _grid_cells(events.spatial(), spec)
    s_idx = np.minimum((events.t / slice_len).astype(np.int64), n_slices - 1)
    counts = np.bincount(cell * n_slices + s_idx, minlength=ncells * n_slices)
    counts = counts.reshape(ncells, n_slices)
    total = float(len(events))

    # baseline mass per (cell, slice); cells and slices share one volume
    if baseline is None:
        mass = np.ones((ncells, n_slices))
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
    widths = _window_widths(n_slices, slice_len, dur_arr)
    per_width = [n_slices + 1 - w for w in widths]  # windows of each width, by start
    starts = np.concatenate([np.arange(n) for n in per_width])
    ends = starts + np.repeat(widths, per_width)
    n_win = len(starts)

    def cylinder_sums(per_cell: np.ndarray) -> np.ndarray:
        sums = discs @ _prefix_sums(per_cell, spec.nx, spec.ny)
        return sums[:, ends] - sums[:, starts]

    # Integer values sum exactly in any order: the counts, and an integer
    # mass.  A float mass cancels in the prefix sums; its sums are kept
    # >= 0, and a cylinder with no positive-mass (cell, slice) pair gets 0.
    obs = cylinder_sums(counts)
    positive = cylinder_sums(mass > 0) > 0
    in_mass = np.where(positive, np.maximum(cylinder_sums(mass), 0.0), 0.0)
    # A positive mass within the prefix sums' rounding of 0 may have
    # cancelled to nothing: sum those cylinders over their pairs instead.
    bound = 4 * (spec.nx + spec.ny + n_slices) * np.finfo(float).eps * mass_total
    near = positive & (in_mass <= bound)
    for d in np.flatnonzero(near.any(axis=1)).tolist():
        cells = np.concatenate([
            np.arange(ix * spec.ny + lo, ix * spec.ny + hi)
            for ix, (lo, hi) in enumerate(runs[d].tolist())
        ])
        per_slice = [math.fsum(col) for col in mass[cells].T.tolist()]
        for j in np.flatnonzero(near[d]).tolist():
            in_mass[d, j] = math.fsum(per_slice[starts[j]:ends[j]])
    expected = total * in_mass / mass_total
    llr = _poisson_llr(obs, expected, total).ravel()

    # Null distribution of the maximum LLR.  The LLR is 0 for n <= mu and
    # rises with n above it, so each replicate's maximum is reached at the
    # largest count within a group of cylinders sharing the same expected
    # value: one LLR per group instead of one per cylinder.  Discs with
    # equal expected rows share their group at every window, so each such
    # class is first cut to its maximum count per window.  The classes of
    # two or more discs are made contiguous and the lone discs follow,
    # passed through: a reduceat over one-disc segments costs more than
    # the gather it saves, and a non-uniform baseline leaves most discs alone.
    narrow = np.float32 if total < _F32_EXACT else np.float64
    order = np.lexsort(expected.T)
    ranked = expected[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    label = np.cumsum(first) - 1
    shared = np.bincount(label)[label] > 1
    order = np.concatenate([order[shared], order[~shared]])
    class_starts = np.flatnonzero(first[shared])
    n_shared = np.count_nonzero(shared)
    class_discs = discs[order].astype(narrow, copy=False)
    # (window, column) entries, a column being one class or one lone disc
    columns = np.concatenate([order[class_starts], order[n_shared:]])
    mu, group = np.unique(expected[columns].T.ravel(), return_inverse=True)
    by_group = np.argsort(group, kind="stable")
    group_starts = np.searchsorted(group[by_group], np.arange(mu.size))
    width_rows = np.cumsum([0] + per_width).tolist()
    n_classes = len(class_starts)
    # N categorical (cell, slice) draws: given N, the multinomial law.  The
    # default mass sums to 1, 2, ..., M, so a draw u in [0, M) lands in cell
    # floor(u); any other mass is searched with the uniforms sorted.
    cum_mass = np.cumsum(mass.ravel())

    def replicate(i: int) -> float:
        u = rng.substream(i + 1).uniforms(0.0, cum_mass[-1], total)
        if baseline is None:
            cells = u.astype(np.int64)
        else:
            cells = np.searchsorted(cum_mass, np.sort(u), side="right")
        sim = np.bincount(cells, minlength=mass.size).reshape(ncells, n_slices)
        # (slices + 1, ndiscs) slice sums: a width's window sums are one
        # strided difference, cut to each class's maximum
        st = (class_discs @ _prefix_sums(sim, spec.nx, spec.ny, narrow)).T.copy()
        best = np.empty((n_win, len(columns)), dtype=narrow)
        for k, w in enumerate(widths):
            rows = slice(width_rows[k], width_rows[k + 1])
            sim_obs = st[w:] - st[:n_slices + 1 - w]
            np.maximum.reduceat(sim_obs[:, :n_shared], class_starts, axis=1,
                                out=best[rows, :n_classes])
            best[rows, n_classes:] = sim_obs[:, n_shared:]
        peaks = np.maximum.reduceat(np.take(best, by_group), group_starts)
        return float(_poisson_llr(peaks, mu, total).max())

    max_llrs = np.sort(indexed_map(replicate, nsim, threads))
    # (1 + #{max_sim >= llr}) / (nsim + 1), for every cylinder at once
    p_value = (1 + nsim - np.searchsorted(max_llrs, llr, side="left")) / (nsim + 1)

    cx, cy, radius = np.repeat(reps, n_win, axis=0).T
    t_start = np.tile(starts * slice_len, len(reps))
    t_end = np.tile(np.minimum(ends * slice_len, events.horizon), len(reps))
    observed = np.rint(obs).astype(np.int64).ravel()
    return ScanResults((cx, cy, radius, t_start, t_end, observed, expected.ravel(), llr, p_value))
