"""Hotspot and cluster detection on gridded point data.

Two detectors: Getis-Ord GI* z-scores on a count grid, and a cylindrical
space-time scan with a Poisson likelihood ratio and Monte Carlo
significance.  The scan evaluates everything at cell-by-time-slice
resolution — observed counts, baseline mass, and the null replicates all
live on the same discrete aggregation, so the rank-based p-value is exact
under the null.  The scan's whole-number sums are exact in any order, so
no BLAS kernel or thread count changes them; a float baseline mass is
summed by cumsums in one fixed order.
Each candidate disc is built as one sparse row of run ends, so one product
with the prefix sums gives every disc's slice sums.  A replicate takes
each window width's sums as one strided difference of them, and cuts the
discs with equal expected counts to their largest count before any
likelihood ratio.  Replicates run in batches of `_BATCH` through one such
product, in arrays that each worker thread allocates once and reuses.  A
replicate of N events sums whole numbers in [-N, N], so its arrays take
the narrowest exact dtype: int16 below 2**15 events, float32 below 2**24,
float64 beyond.
"""

from __future__ import annotations

import functools
import math
import threading
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
    _count,
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

# A replicate of N events sums its counts as whole numbers in [-N, N]:
# in int16 while N is below 2**15, in float32 while N is below 2**24,
# where float32's exact integers end, and in float64 beyond.
_I16_EXACT = 2**15
_F32_EXACT = 2**24
# The longest grid column or slice axis whose prefix sums come from 0/1
# triangle products; past it two cumsums cost less.
_TRIANGLE_MAX = 256
# The fewest Monte Carlo replicates `space_time_scan` takes: p-values to 0.01.
_SCAN_NSIM_MIN = 99
# Scan replicates evaluated together, through one sparse product.
_BATCH = 4
# Observed cylinders scored per likelihood-ratio call, which bounds its temporaries.
_LLR_BLOCK = 2**14


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
        finite = all(map(math.isfinite, (self.cx, self.cy, self.t_start, self.t_end)))
        if not (finite and self.t_end > self.t_start):
            raise ParameterError("cylinder needs a finite centre and finite t_end > t_start")


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

    Built from a scan's factors, its rows being discs x windows: row
    d * n_win + j is disc d over window j.  `reps` holds each disc's
    (cx, cy, radius), `t_start` and `t_end` each window's bounds; `obs`,
    `expected` and `llr` one value per row, the LLR being 0 unless
    observed > expected; `max_llrs` the sorted replicate maxima, from
    which each row's p-value is found when the row is built.  Ranking is
    by decreasing LLR, ties on cx, cy, radius and t_start, then the
    disc-major order, and it is lazy: `columns` ranks every row once and
    keeps the nine read-only columns beside the factors, row k being the
    k-th ranked cylinder; `top(k)` ranks only the rows with the k-th LLR
    or above, and builds the nine columns for the k it keeps.  A
    `ScanResult` is built only when indexed or iterated; a slice returns
    a list of them.
    """

    def __init__(self, reps, t_start, t_end, obs, expected, llr, max_llrs):
        self._reps, self._t_start, self._t_end = reps, t_start, t_end
        self._obs, self._expected, self._llr, self._max_llrs = obs, expected, llr, max_llrs
        self._columns = None

    @property
    def columns(self) -> tuple:
        # read once: a concurrent call may rank and keep the same columns
        columns = self._columns
        if columns is None:
            columns = self._take(self._order(np.arange(len(self))))
            for c in columns:
                c.setflags(write=False)
            self._columns = columns
        return columns

    def top(self, k: int) -> tuple:
        """The columns of the best k rows in rank order: `columns` cut to k
        rows, but unless they are already ranked, only the rows with the
        k-th LLR or above are sorted."""
        k = _count(k, "top k")
        if k == 0:
            return self._take(np.arange(0))
        if self._columns is not None or k >= len(self):
            return tuple(c[:k] for c in self.columns)
        key = -self._llr
        # every row tied with the k-th LLR, and NaN ones, which sort last
        cut = np.flatnonzero(~(key > np.partition(key, k - 1)[k - 1]))
        return self._take(cut[self._order(cut)[:k]])

    def _order(self, rows) -> np.ndarray:
        """`rows` ranked, as positions into them."""
        disc, win = np.divmod(rows, len(self._t_start))
        cx, cy, radius = (self._reps[disc, i] for i in range(3))
        return np.lexsort((self._t_start[win], radius, cy, cx, -self._llr[rows]))

    def _take(self, rows) -> tuple:
        """The nine columns at `rows`."""
        disc, win = np.divmod(rows, len(self._t_start))
        nsim, llr = len(self._max_llrs), self._llr[rows]
        # (1 + #{max_sim >= llr}) / (nsim + 1)
        p_value = (1 + nsim - np.searchsorted(self._max_llrs, llr, side="left")) / (nsim + 1)
        return (*(self._reps[disc, i] for i in range(3)), self._t_start[win], self._t_end[win],
                np.rint(self._obs[rows]).astype(np.int64), self._expected[rows], llr, p_value)

    def __len__(self) -> int:
        return self._llr.size

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
    rem = total - n
    rem_mu = total - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        inside = n * np.log(n / mu)
        outside = np.where(rem > 0.0, rem * np.log(rem / rem_mu), 0.0)
    return np.where(n > mu, inside + outside, 0.0)


def _disc_rows(spec: GridSpec, radii: np.ndarray):
    """Distinct cell sets reachable as (centre, radius) discs, as the rows of
    a CSR matrix over the rows of `_prefix_sums`.

    A disc is its radius's `_disc_template` moved to the centre cell and
    clipped to the grid, so it holds the cells whose offset from the
    centre is under the radius, and every centre of a radius sees one
    shape.  It hits a contiguous range of grid columns, in one run
    [lo, hi) of iy each; its row holds -1 at ix * (ny + 1) + lo and +1 at
    ix * (ny + 1) + hi for each hit column ix, so its product with the
    prefix sums is the sum over its cells.  The rows are built one grid
    column of centres and one radius at a time, as (ny, hits, 2) ends.
    Discs with identical rows, and so identical cells, are evaluated once;
    the first (centre, radius) producing a set, centre-major with the radii
    in the order given, is kept as its representative.  Returns the matrix
    and the representatives' (cx, cy, radius) as an (ndiscs, 3) array.
    """
    from scipy import sparse  # on use: only the scan needs it, ~0.2 s to import

    nx, ny = spec.nx, spec.ny
    nrad = len(radii)
    dtype = np.dtype(np.int32 if nx * (ny + 1) <= np.iinfo(np.int32).max else np.int64)
    halves = [_disc_template(spec, r) for r in radii.tolist()]
    iy = np.arange(ny, dtype=dtype)[:, None]
    first: dict[bytes, int] = {}  # row ends -> flat (centre, radius) index, in insertion order
    for ix in range(nx):
        keys = []  # per radius, the rows of the column's ny centres
        for half in halves:
            h = half[np.abs(np.arange(nx) - ix)]
            cols = np.flatnonzero(h >= 0)
            h, base = h[cols].astype(dtype), (cols * (ny + 1)).astype(dtype)
            buf = np.stack([base + np.maximum(iy - h, 0), base + np.minimum(iy + h + 1, ny)],
                           axis=-1).tobytes()
            width = len(buf) // ny
            keys.append([buf[m * width:(m + 1) * width] for m in range(ny)])
        flat = ix * ny * nrad  # centre (ix, iy) with radius k is flat + iy * nrad + k
        for m, key in enumerate(key for row in zip(*keys) for key in row):
            first.setdefault(key, flat + m)
    ndiscs = len(first)
    indptr = np.cumsum([0, *map(len, first)], dtype=np.int64) // dtype.itemsize
    cell, k = np.divmod(np.fromiter(first.values(), dtype=np.int64, count=ndiscs), nrad)
    indices = np.frombuffer(b"".join(first), dtype=dtype)
    del first
    data = np.tile([-1.0, 1.0], indices.size // 2)
    discs = sparse.csr_matrix((data, indices, indptr), shape=(ndiscs, nx * (ny + 1)))
    return discs, np.column_stack([spec.centre_points()[cell], radii[k]])


@functools.lru_cache(maxsize=8)
def _triangle(n: int, dtype) -> np.ndarray:
    """The read-only (n, n + 1) 0/1 matrix with 1 where row < column."""
    tri = np.triu(np.ones((n, n + 1), dtype=dtype), 1)
    tri.setflags(write=False)
    return tri


def _prefix_sums(per_cell: np.ndarray, nx: int, ny: int, dtype=float, *, out=None) -> np.ndarray:
    """(ncells, ..., n) values -> (nx * (ny + 1), ..., n + 1) 2-D prefix sums in `dtype`.

    Row ix * (ny + 1) + j, column s holds the sum over cells (ix, iy < j)
    and slices < s: summed along the slices, then down each column.  Axes
    between the first and the last are stacked sets of values, each
    summed on its own; they stay in the middle, so the result is one
    C-contiguous row per prefix-sum row.  `out`, if given, is a
    C-contiguous array of the result's shape and `dtype`, written in full
    and never read.  `dtype` is a float: a scan's int16 replicates take
    these float32 sums and cast them.
    Integer or bool input takes two products with 0/1 triangles, each
    built once per size and dtype.  The caller keeps each set's total
    below `dtype`'s exact integers (2**24 in float32, 2**53 in float64),
    so every partial sum is exact and any BLAS kernel, thread count or
    blocking gives the bits of the cumsums.  Float input keeps the
    cumsums: a product would round its partial sums in another order.
    So does a column or slice axis past `_TRIANGLE_MAX`, where the
    product, quadratic in that length, costs more.  The cumsums run in
    the input's dtype and are then cast to `dtype`.
    """
    *stack, n = per_cell.shape[1:]
    if out is None:
        out = np.empty((nx * (ny + 1), *stack, n + 1), dtype=dtype)
    if per_cell.dtype.kind in "biu" and max(ny, n) <= _TRIANGLE_MAX:
        along = per_cell.reshape(-1, n).astype(dtype) @ _triangle(n, dtype)
        np.matmul(_triangle(ny, dtype).T, along.reshape(nx, ny, -1),
                  out=out.reshape(nx, ny + 1, -1))
        return out
    grid = out.reshape(nx, ny + 1, -1, n + 1)
    grid[:, 0] = 0
    grid[..., 0] = 0
    # in the input's dtype, then cast: the bits of a cumsum into `out`, but
    # `out` is written without reading what it held
    along = per_cell.reshape(nx, ny, -1, n).cumsum(axis=-1)
    grid[:, 1:, :, 1:] = along.cumsum(axis=1, out=along)
    return out


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

    Each disc covers one run of cells in each grid column it hits, and is
    built directly as one sparse row of -1/+1 at its runs' ends, so one
    product with 2-D prefix sums gives every disc's slice sums: of the
    counts, the mass and each replicate.  A replicate's counts, prefix
    sums, disc sums and every partial sum between are integers in
    [-N, N], so its arrays take one of three rungs, exact on each: int16
    while N < 2**15, float32 while N < 2**24, float64 from there on.  On
    the int16 rung the prefix sums are float32 triangle products cast once
    per batch, and the sparse product, the window differences and the
    class and group maxima move half the bytes of float32.  The bound
    holds for replicate counts only, which sum to N; the observed sums, the
    mass and its positive part are never narrowed.  So the prefix sums of
    the counts, of each replicate
    and of where the mass is positive come from BLAS products with 0/1
    triangles while the grid columns and the slices are at most
    `_TRIANGLE_MAX` long: the same bits under any kernel or thread count.
    The mass itself is float and keeps two cumsums, whose order of
    rounding is fixed: a product would make `expected` depend on the
    BLAS kernel.  An integer mass gives `expected` rounded once; a
    float mass may cancel by a few eps of the total, never below 0, and
    gives 0 where none is positive.
    A cylinder whose positive mass is within that rounding of 0 is summed
    again over its (cell, slice) pairs, to a few eps of its own mass.
    A replicate's maximum LLR needs only the largest count among the
    cylinders that share an expected value.  Discs whose expected rows are
    equal form a class, found once; each replicate takes one strided
    difference of its slice sums per window width, cuts every class to its
    maximum, and evaluates one LLR per distinct expected value.
    Replicates run `_BATCH` at a time: their prefix sums are stacked
    side by side, so one product gives the slice sums of the batch, and
    one window, class and group pass cuts them.  Each worker thread
    allocates the batch's counts, prefix sums, slice sums and maxima once
    and reuses them for every batch it runs, so the loop does not fault
    in fresh pages per batch.  The observed LLR is scored in blocks of
    `_LLR_BLOCK` cylinders, which bounds its temporaries.
    Results come back as a `ScanResults` over the scan's factors.  Each
    replicate uses substream i+1 of `rng`, so the output is independent
    of `threads`.
    """
    if len(events) == 0:
        raise ParameterError("scan needs at least one event")
    n_slices = _count(n_slices, "n_slices", 1)
    _check_array_size("cells x slices", spec.ncells, n_slices)
    nsim = _count(nsim, "nsim", _SCAN_NSIM_MIN)
    threads = _count(threads, "threads", 1)
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
            mass[:, s] = g.values.ravel()
    mass_total = mass.sum()
    if mass_total <= 0.0:
        raise DegenerateDataError("baseline has zero total mass")

    discs, reps = _disc_rows(spec, radii_arr)
    widths = _window_widths(n_slices, slice_len, dur_arr)
    per_width = [n_slices + 1 - w for w in widths]  # windows of each width, by start
    starts = np.concatenate([np.arange(n) for n in per_width])
    ends = starts + np.repeat(widths, per_width)
    n_win = len(starts)

    def cylinder_sums(per_cell: np.ndarray) -> np.ndarray:
        # in C order, which `llr` and the results flatten without a copy
        sums = discs @ _prefix_sums(per_cell, spec.nx, spec.ny)
        return np.take(sums, ends, axis=1) - np.take(sums, starts, axis=1)

    # Integer values sum exactly in any order: the counts, and an integer
    # mass.  A float mass cancels in the prefix sums; its sums are kept
    # >= 0, and a cylinder with no positive-mass (cell, slice) pair gets 0.
    obs = cylinder_sums(counts)
    positive = cylinder_sums(mass > 0) > 0
    expected = cylinder_sums(mass)
    np.maximum(expected, 0.0, out=expected)
    expected[~positive] = 0.0
    # A positive mass within the prefix sums' rounding of 0 may have
    # cancelled to nothing: sum those cylinders over their pairs instead.
    bound = 4 * (spec.nx + spec.ny + n_slices) * np.finfo(float).eps * mass_total
    near = positive & (expected <= bound)
    del positive
    for d in np.flatnonzero(near.any(axis=1)).tolist():
        # the end ix * (ny + 1) + iy of a row marks cell ix * ny + iy
        row = discs.indices[discs.indptr[d]:discs.indptr[d + 1]]
        cells = np.concatenate([
            np.arange(lo, hi) for lo, hi in (row - row // (spec.ny + 1)).reshape(-1, 2).tolist()
        ])
        per_slice = [math.fsum(col) for col in mass[cells].T.tolist()]
        for j in np.flatnonzero(near[d]).tolist():
            expected[d, j] = math.fsum(per_slice[starts[j]:ends[j]])
    del near
    expected *= total
    expected /= mass_total
    # scored a block of cylinders at a time, which bounds the temporaries;
    # the LLR is 0 unless obs > expected
    llr = np.empty(obs.size)
    for lo in range(0, llr.size, _LLR_BLOCK):
        block = slice(lo, lo + _LLR_BLOCK)
        llr[block] = _poisson_llr(obs.ravel()[block], expected.ravel()[block], total)

    # Null distribution of the maximum LLR.  The LLR is 0 for n <= mu and
    # rises with n above it, so each replicate's maximum is reached at the
    # largest count within a group of cylinders sharing the same expected
    # value: one LLR per group instead of one per cylinder.  Discs with
    # equal expected rows share their group at every window, so each such
    # class is first cut to its maximum count per window.  The classes of
    # two or more discs are made contiguous and the lone discs follow,
    # passed through: a reduceat over one-disc segments costs more than
    # the gather it saves, and a non-uniform baseline leaves most discs alone.
    narrow = np.dtype(np.int16 if total < _I16_EXACT else
                      np.float32 if total < _F32_EXACT else np.float64)
    # the dtype of the prefix sums' BLAS products, cast once into int16
    wide = np.dtype(np.float32) if narrow.kind == "i" else narrow
    order = np.lexsort(expected.T)
    ranked = expected[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    del ranked
    label = np.cumsum(first) - 1
    shared = np.bincount(label)[label] > 1
    order = np.concatenate([order[shared], order[~shared]])
    class_starts = np.flatnonzero(first[shared])
    n_shared = np.count_nonzero(shared)
    class_discs = discs[order].astype(narrow, copy=False)
    del discs
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

    # A batch's counts, its discs' slice sums, its (window, column) maxima
    # and its prefix sums, then those cast to int16 on that rung.  Each
    # worker thread allocates them once for a full batch and reuses them for
    # every batch it runs, a short one taking the leading part of each, so
    # no batch faults in fresh pages.
    batch, local = _BATCH, threading.local()

    def layouts(b: int) -> list:
        prefix = (spec.nx * (spec.ny + 1), b, n_slices + 1)
        arrays = [((ncells, b, n_slices), np.intp),
                  ((b, n_slices + 1, len(order)), narrow),
                  ((b, n_win, len(columns)), narrow),
                  (prefix, wide)]
        if narrow != wide:
            arrays.append((prefix, narrow))
        return arrays

    def replicates(j: int) -> np.ndarray:
        ids = range(j * batch, min((j + 1) * batch, nsim))
        b = len(ids)
        if not hasattr(local, "flat"):
            local.flat = [np.empty(math.prod(shape), dtype) for shape, dtype in layouts(batch)]
        sim, st, best, prefix, *cast = (flat[:math.prod(shape)].reshape(shape)
                                        for flat, (shape, _) in zip(local.flat, layouts(b)))
        for k, i in enumerate(ids):
            u = rng.substream(i + 1).uniforms(0.0, cum_mass[-1], total)
            if baseline is None:
                cells = u.astype(np.int64)
            else:
                cells = np.searchsorted(cum_mass, np.sort(u), side="right")
            sim[:, k] = np.bincount(cells, minlength=mass.size).reshape(ncells, n_slices)
        # one product for the batch: (ndiscs, b * (slices + 1)) slice sums,
        # then (b, slices + 1, ndiscs), where a width's window sums are one
        # strided difference, written into the product's array and cut to
        # each class's maximum
        _prefix_sums(sim, spec.nx, spec.ny, wide, out=prefix)
        if cast:  # the int16 rung takes the exact float32 sums cast
            cast[0][...] = prefix
            prefix = cast[0]
        sums = class_discs @ prefix.reshape(len(prefix), -1)
        st[...] = sums.reshape(-1, b, n_slices + 1).transpose(1, 2, 0)
        for k, w in enumerate(widths):
            rows = slice(width_rows[k], width_rows[k + 1])
            later, earlier = st[:, w:], st[:, :n_slices + 1 - w]
            sim_obs = sums.reshape(-1)[:later.size].reshape(later.shape)
            np.subtract(later, earlier, out=sim_obs)
            np.maximum.reduceat(sim_obs[..., :n_shared], class_starts, axis=2,
                                out=best[:, rows, :n_classes])
            best[:, rows, n_classes:] = sim_obs[..., n_shared:]
        peaks = np.maximum.reduceat(np.take(best.reshape(b, -1), by_group, axis=1),
                                    group_starts, axis=1)
        return _poisson_llr(peaks, mu, total).max(axis=1)

    max_llrs = np.sort(np.concatenate(indexed_map(replicates, -(-nsim // batch), threads)))
    t_end = np.minimum(ends * slice_len, events.horizon)
    return ScanResults(reps, starts * slice_len, t_end, obs.ravel(), expected.ravel(), llr,
                       max_llrs)
