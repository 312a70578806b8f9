"""Shared domain types for point-process simulation and analysis.

Coordinates are planar Cartesian and times are non-negative reals.  All
container types validate their invariants at construction and freeze
their arrays afterwards, so instances can be shared freely.  Randomness
is funnelled through :class:`RngStream`, which owns a seeded generator:
one stream per logical simulation, never shared between concurrent
consumers.  Parallel work derives child streams with
:meth:`RngStream.substream`.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateDataError",
    "EnvelopeError",
    "EventTimes",
    "Grid",
    "GridSpec",
    "InsufficientDataError",
    "ParameterError",
    "Region",
    "RngStream",
    "SpaceTimeEvents",
    "SpatialPattern",
    "aggregate_to_grid",
    "exponential_draw",
    "inter_arrival_times",
]

class ParameterError(ValueError):
    """A parameter violates an operation's preconditions."""


class EnvelopeError(RuntimeError):
    """A dominating envelope was found to under-estimate the intensity."""


class InsufficientDataError(ValueError):
    """Too few points or events for the requested statistic."""


class DegenerateDataError(ValueError):
    """The data admits no meaningful value for the requested statistic."""


# uniforms drawn per numpy call by RngStream.uniform_draws
_UNIFORM_BLOCK = 1024


class RngStream:
    """Deterministic random stream: same seed, same draw sequence.

    ``uniform`` draws lie strictly inside (0, 1), so ``-log(u)`` is
    always finite; the thinning simulators rely on that.  A stream is
    PCG64 of ``SeedSequence(seed, spawn_key=path)``: the root's path is
    (), giving ``PCG64(seed)``, and ``substream(i)`` appends i >= 0, so
    no two streams of the tree collide.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._path = _path
        tree = np.random.SeedSequence(self.seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.PCG64(tree))

    def __repr__(self):
        path = f", path={self._path}" if self._path else ""
        return f"RngStream(seed={self.seed}{path})"

    def uniform(self) -> float:
        u = self._gen.random()
        while u == 0.0:  # random() covers [0, 1); keep the interval open
            u = self._gen.random()
        return u

    def uniform_draws(self):
        """Yield the values that successive `uniform` calls would return.

        They are drawn in blocks of _UNIFORM_BLOCK (PCG64 gives the same
        doubles either way), so the stream ends at the close of the last
        block drawn, past any values not yet taken.
        """
        while True:
            for u in self._gen.random(_UNIFORM_BLOCK).tolist():
                if u != 0.0:  # random() covers [0, 1); keep the interval open
                    yield u

    def uniforms(self, low: float, high: float, n: int) -> np.ndarray:
        return self._gen.uniform(low, high, int(n))

    def poisson(self, mean: float) -> int:
        return int(self._gen.poisson(mean))

    def substream(self, index: int) -> "RngStream":
        return RngStream(self.seed, (*self._path, _count(index, "substream index")))


def _positive(value: float, name: str = "rate") -> float:
    """The value as a float, once it is known to be positive and finite."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    return value


def _positives(values, name: str) -> np.ndarray:
    """The values as a flat float array, once known non-empty, finite and positive."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0 or not np.all(np.isfinite(arr) & (arr > 0.0)):
        raise ParameterError(f"{name} must be non-empty, finite and positive")
    return arr


def _non_negative(value: float, name: str) -> float:
    """The value as a float, once it is known to be >= 0 and finite."""
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ParameterError(f"{name} must be >= 0 and finite, got {value}")
    return value


def _count(value, name: str, minimum: int = 0) -> int:
    """The value as an int, once it is known to equal an integer >= minimum."""
    try:
        if int(value) == value and value >= minimum:
            return int(value)
    except (TypeError, ValueError, OverflowError):  # not a number, nan or inf
        pass
    raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


def exponential_draw(rng: RngStream, rate: float) -> float:
    """One Exp(rate) variate via inversion, -log(u)/rate."""
    rate = _positive(rate)
    return -math.log(rng.uniform()) / rate


def inter_arrival_times(events: "EventTimes") -> np.ndarray:
    """Gaps between consecutive events, the first measured from zero."""
    return np.diff(events.times, prepend=0.0)


class EventTimes:
    """An ordered realization of a temporal point process on (0, horizon]."""

    def __init__(self, times, horizon: float):
        arr = np.array(times, dtype=float).reshape(-1)
        horizon = _positive(horizon, "horizon")
        if arr.size:
            if not np.all(np.isfinite(arr)):
                raise ParameterError("event times must be finite")
            if arr[0] <= 0.0 or arr[-1] > horizon:
                raise ParameterError("event times must lie in (0, horizon]")
            if np.any(np.diff(arr) <= 0.0):
                raise ParameterError("event times must be strictly increasing")
        arr.setflags(write=False)
        self.times = arr
        self.horizon = horizon

    def __len__(self) -> int:
        return self.times.size

    def __repr__(self):
        return f"EventTimes(n={len(self)}, horizon={self.horizon})"

    def count_by(self, t: float) -> int:
        """N_t, the number of events in (0, t]."""
        return int(np.searchsorted(self.times, t, side="right"))


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangular study region."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        for name in ("xmin", "xmax", "ymin", "ymax"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not all(map(math.isfinite, (self.xmin, self.xmax, self.ymin, self.ymax))):
            raise ParameterError("region bounds must be finite")
        if self.xmax <= self.xmin or self.ymax <= self.ymin:
            raise ParameterError("region must have positive width and height")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x, y):
        """Vectorized inclusive containment test."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (x >= self.xmin) & (x <= self.xmax) & (y >= self.ymin) & (y <= self.ymax)

    def covers(self, other: "Region") -> bool:
        return (
            self.xmin <= other.xmin
            and self.xmax >= other.xmax
            and self.ymin <= other.ymin
            and self.ymax >= other.ymax
        )


def _finite_area(region: Region) -> float:
    """The region's area, once it is known to be positive and finite: a valid
    region's width * height can still underflow to 0 or overflow to inf."""
    area = region.area
    if not 0.0 < area < math.inf:
        raise DegenerateDataError(f"region area {area} is not positive and finite")
    return area


def _index_list(mask) -> str:
    """The indices where `mask` holds, for an error message: every one up
    to ten of them, or the first ten and the count."""
    where = np.flatnonzero(mask)
    if where.size <= 10:
        return str(where.tolist())
    return f"{str(where[:10].tolist())[:-1]}, ...] ({where.size} in all)"


def _check_array_size(what: str, *shape: int) -> None:
    """Raise unless a float64 array of this shape can exist at all: a
    bound on addressable bytes, not a memory cap."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ParameterError(f"{what} {' x '.join(map(str, shape))} is too large for an array")


@dataclass(frozen=True)
class GridSpec:
    """Regular nx-by-ny partition of a region.

    Cells are half-open, [x0, x1) x [y0, y1), except that the final row
    and column are closed so the grid tiles the region exactly.
    """

    region: Region
    nx: int
    ny: int

    def __post_init__(self):
        object.__setattr__(self, "nx", _count(self.nx, "nx", 1))
        object.__setattr__(self, "ny", _count(self.ny, "ny", 1))
        _check_array_size("grid", self.nx, self.ny)
        # a valid region's width can overflow to inf, and a cell's can underflow to 0
        w, h = self.cell_width, self.cell_height
        if not (0.0 < w < math.inf and 0.0 < h < math.inf):
            raise ParameterError(f"grid cells must be positive and finite, got {w} x {h}")

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_width(self) -> float:
        return self.region.width / self.nx

    @property
    def cell_height(self) -> float:
        return self.region.height / self.ny

    @property
    def cell_area(self) -> float:
        return self.cell_width * self.cell_height

    def x_centres(self) -> np.ndarray:
        r = self.region
        return r.xmin + (np.arange(self.nx) + 0.5) * self.cell_width

    def y_centres(self) -> np.ndarray:
        r = self.region
        return r.ymin + (np.arange(self.ny) + 0.5) * self.cell_height

    def centre_points(self) -> np.ndarray:
        """Cell centres as an (ncells, 2) array, x-major (iy varies fastest)."""
        cx, cy = np.meshgrid(self.x_centres(), self.y_centres(), indexing="ij")
        return np.column_stack([cx.ravel(), cy.ravel()])

    def cell_indices(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Map points to (ix, iy) cell indices under the half-open rule.

        Raises ParameterError listing the offending point indices when
        any point falls outside the region.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        r = self.region
        with np.errstate(invalid="ignore"):
            ix = np.floor((x - r.xmin) / self.cell_width).astype(np.int64)
            iy = np.floor((y - r.ymin) / self.cell_height).astype(np.int64)
        # the closing edges belong to the last row/column
        ix = np.where((ix >= self.nx) & (x <= r.xmax), self.nx - 1, ix)
        iy = np.where((iy >= self.ny) & (y <= r.ymax), self.ny - 1, iy)
        bad = ~self.region.contains(x, y)  # nan and +-inf too: the bounds are finite
        if np.any(bad):
            raise ParameterError(f"points outside grid region at indices {_index_list(bad)}")
        return ix, iy


class SpatialPattern:
    """A finite planar point pattern observed in a rectangular region."""

    def __init__(self, points, region: Region):
        pts = np.array(points, dtype=float)
        if pts.size == 0:
            pts = np.empty((0, 2))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ParameterError(f"points must be (n, 2), got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ParameterError("point coordinates must be finite")
        outside = ~region.contains(pts[:, 0], pts[:, 1])
        if np.any(outside):
            raise ParameterError(f"points outside region at indices {_index_list(outside)}")
        pts.setflags(write=False)
        self.points = pts
        self.region = region

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self):
        return f"SpatialPattern(n={len(self)}, region={self.region})"

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def intensity(self) -> float:
        """Empirical intensity n / area."""
        return len(self) / _finite_area(self.region)


class SpaceTimeEvents:
    """A spatial point pattern whose events also carry times in [0, horizon]."""

    def __init__(self, events, region: Region, horizon: float):
        arr = np.array(events, dtype=float)
        if arr.size == 0:
            arr = np.empty((0, 3))
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise ParameterError(f"events must be (n, 3) as (x, y, t), got shape {arr.shape}")
        horizon = _positive(horizon, "horizon")
        self._pattern = SpatialPattern(arr[:, :2], region)
        self.t = arr[:, 2].copy()  # the points were copied too, so arr is not kept
        self.t.setflags(write=False)
        bad = ~((self.t >= 0.0) & (self.t <= horizon))  # nan too
        if np.any(bad):
            raise ParameterError(f"event times outside [0, horizon] at indices {_index_list(bad)}")
        self.xy = self._pattern.points
        self.region = region
        self.horizon = horizon

    def __len__(self) -> int:
        return self.xy.shape[0]

    def __repr__(self):
        return f"SpaceTimeEvents(n={len(self)}, horizon={self.horizon})"

    def spatial(self) -> SpatialPattern:
        """The pattern without the times."""
        return self._pattern


class Grid:
    """Finite values on a grid: cell counts, a density surface or z-scores.

    Integer input stays int64, so counts keep writing as integers;
    anything else becomes float64.
    """

    def __init__(self, spec: GridSpec, values):
        arr = np.asarray(values)
        arr = arr.astype(np.int64 if np.issubdtype(arr.dtype, np.integer) else np.float64)
        if arr.shape != (spec.nx, spec.ny):
            raise ParameterError(
                f"values shape {arr.shape} does not match grid ({spec.nx}, {spec.ny})"
            )
        if not np.all(np.isfinite(arr)):
            raise ParameterError("grid values must be finite")
        arr.setflags(write=False)
        self.spec = spec
        self.values = arr

    def __repr__(self):
        return f"Grid({self.spec.nx}x{self.spec.ny}, {self.values.dtype})"


def _grid_cells(pattern: SpatialPattern, spec: GridSpec) -> np.ndarray:
    """Each point's flat cell index, ix * ny + iy: the one binning of a
    pattern, for `aggregate_to_grid` and the scan.

    The grid region must cover the pattern region, even where every
    point falls inside the grid; the error lists the points outside it.
    """
    if not spec.region.covers(pattern.region):
        outside = _index_list(~spec.region.contains(pattern.x, pattern.y))
        raise ParameterError(f"grid region must cover the pattern region; "
                             f"points outside the grid at indices {outside}")
    ix, iy = spec.cell_indices(pattern.x, pattern.y)
    return ix * spec.ny + iy


def aggregate_to_grid(pattern: SpatialPattern, spec: GridSpec) -> Grid:
    """Count the points per grid cell, binned as `_grid_cells` bins them."""
    counts = np.bincount(_grid_cells(pattern, spec), minlength=spec.ncells)
    return Grid(spec, counts.reshape(spec.nx, spec.ny))


def indexed_map(fn, count: int, threads: int = 1) -> list:
    """Run fn(0..count-1), returning results in index order.

    With threads > 1 the calls run on a thread pool; results are still
    collected by index, so reductions over them are order-stable.  The
    pool never has more workers than calls, nor more than the standard
    library's default of min(32, cpus + 4).
    """
    workers = min(_count(threads, "threads", 1), count, min(32, (os.cpu_count() or 1) + 4))
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))
