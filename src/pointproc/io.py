"""File formats: flat CSV for all artefacts, GeoJSON for point input.

Every CSV is written by `write_table` and read by `_read_table`.  The
writer emits LF line endings and formats floats with '.17g', which
round-trips IEEE doubles exactly; given identical inputs the bytes are
identical.  The reader validates the header and reports malformed
content as file:line messages.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import EventTimes, ParameterError, SpatialPattern, SpaceTimeEvents

__all__ = [
    "read_count_values",
    "read_event_times",
    "read_geojson_points",
    "read_points_csv",
    "read_space_time_csv",
    "write_curve_csv",
    "write_event_times",
    "write_grid_csv",
    "write_points_csv",
    "write_scan_csv",
    "write_space_time_csv",
    "write_table",
]


def write_table(path, header: str, columns) -> None:
    """A CSV table: the header line, then one row per index of the columns,
    each line ending in LF.  Float columns are written as '.17g', every
    other column with str."""
    cols = [np.asarray(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ParameterError(f"table columns differ in length: {[len(c) for c in cols]}")
    line = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{header}\n")
        for lo in range(0, len(cols[0]), 65536):  # no more than a block of rows as text
            block = [c[lo:lo + 65536].tolist() for c in cols]
            flat = [None] * (len(block[0]) * len(cols))  # row-major: the columns interleaved
            for j, c in enumerate(block):
                flat[j::len(cols)] = c
            f.write((line * len(block[0])) % tuple(flat))


def _read_table(path, header: str) -> tuple[np.ndarray, list[int]]:
    """The rows under a validated header as an (n, k) float array, with
    each row's 1-based line number; blank lines are skipped."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ParameterError(f"{path}: not a text file: {e}") from None
    if not lines:
        raise ParameterError(f"{path}: empty file, expected header {header!r}")
    if lines[0].strip() != header:
        raise ParameterError(f"{path}:1: expected header {header!r}, got {lines[0].strip()!r}")
    k = header.count(",") + 1
    body, linenos = lines[1:], range(2, len(lines) + 1)
    if not all(map(str.strip, body)):  # drop the blank lines
        linenos = [i for i in linenos if lines[i - 1].strip()]
        body = [lines[i - 1] for i in linenos]
    try:  # one float() pass over every field, once each line has k of them
        if all(line.count(",") == k - 1 for line in body):
            # an empty body joins to one empty field, which a count of 0 never reads
            values = np.fromiter(map(float, ",".join(body).split(",")), float, k * len(body))
            return values.reshape(-1, k), list(linenos)
    except ValueError:
        pass
    for i in linenos:  # the pass failed: name the first line with a bad count or field
        fields = lines[i - 1].split(",")
        if len(fields) != k:
            raise ParameterError(f"{path}:{i}: expected {k} fields, got {len(fields)}")
        for col, f in enumerate(fields, start=1):
            try:
                float(f)
            except ValueError:
                raise ParameterError(f"{path}:{i}: column {col}: not a number: {f.strip()!r}") from None


def write_event_times(path, events: EventTimes) -> None:
    write_table(path, "t", [events.times])


def read_event_times(path, horizon: float | None = None) -> EventTimes:
    times = _read_table(path, "t")[0][:, 0]
    if horizon is None:
        if not times.size:
            raise ParameterError(f"{path}: no events and no horizon given")
        horizon = times.max()
    return EventTimes(times, horizon)


def write_points_csv(path, pattern: SpatialPattern) -> None:
    write_table(path, "x,y", pattern.points.T)


def read_points_csv(path) -> np.ndarray:
    return _read_table(path, "x,y")[0]


def write_space_time_csv(path, events: SpaceTimeEvents) -> None:
    write_table(path, "x,y,t", [*events.xy.T, events.t])


def read_space_time_csv(path) -> np.ndarray:
    return _read_table(path, "x,y,t")[0]


def _json_number(value) -> float:
    """A JSON number as a float: TypeError for a bool, a str or anything else."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


def read_geojson_points(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Point features from a GeoJSON FeatureCollection.

    Returns (points, times); times is None unless every feature carries
    a numeric 't' property.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, or nested too deep
        raise ParameterError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParameterError(f"{path}: expected a GeoJSON FeatureCollection")
    feats = doc.get("features", [])
    if not isinstance(feats, list):
        raise ParameterError(f"{path}: 'features' must be a list")
    pts, times = [], []
    for i, feat in enumerate(feats):
        if not isinstance(feat, dict):
            raise ParameterError(f"{path}: feature {i}: not a JSON object")
        geom, props = feat.get("geometry") or {}, feat.get("properties") or {}
        if not (isinstance(geom, dict) and isinstance(props, dict)):
            raise ParameterError(f"{path}: feature {i}: geometry and properties must be objects")
        if geom.get("type") != "Point":
            raise ParameterError(f"{path}: feature {i}: only Point geometry is supported")
        coords = geom.get("coordinates")
        if not isinstance(coords, (list, tuple)) or len(coords) < 2:
            raise ParameterError(f"{path}: feature {i}: malformed coordinates")
        try:
            pts.append((_json_number(coords[0]), _json_number(coords[1])))
        except (TypeError, OverflowError):
            raise ParameterError(f"{path}: feature {i}: malformed coordinates") from None
        if "t" in props:
            try:
                times.append(_json_number(props["t"]))
            except (TypeError, OverflowError):
                raise ParameterError(
                    f"{path}: feature {i}: property 't' is not a number"
                ) from None
    points = np.array(pts, dtype=float) if pts else np.empty((0, 2))
    if times and len(times) != len(pts):
        raise ParameterError(f"{path}: property 't' present on only some features")
    return points, (np.array(times, dtype=float) if times else None)


def write_grid_csv(path, grid, name: str = "value") -> None:
    """A `Grid`'s cell values, x-major; integer grids stay integers."""
    ix, iy = np.indices(grid.values.shape)
    write_table(path, f"cell_x,cell_y,{name}", [ix.ravel(), iy.ravel(), grid.values.ravel()])


def read_count_values(path, spec) -> np.ndarray:
    """Integer grid values from cell_x,cell_y,value rows; missing cells
    are zero, and a cell may appear once."""
    table, linenos = _read_table(path, "cell_x,cell_y,value")
    counts = np.zeros((spec.nx, spec.ny), dtype=np.int64)
    seen: dict[tuple[int, int], int] = {}  # cell -> its line
    for i, row in zip(linenos, table.tolist()):
        if not all(v.is_integer() for v in row):  # also rejects nan and inf
            raise ParameterError(f"{path}:{i}: cell indices and counts must be integers")
        ixv, iyv, v = map(int, row)
        if not (0 <= ixv < spec.nx and 0 <= iyv < spec.ny):
            raise ParameterError(f"{path}:{i}: cell ({ixv}, {iyv}) outside the grid")
        if v < 0:
            raise ParameterError(f"{path}:{i}: counts must be non-negative")
        if v >= 2**63:
            raise ParameterError(f"{path}:{i}: count {v} does not fit in 64 bits")
        first = seen.setdefault((ixv, iyv), i)
        if first != i:
            raise ParameterError(f"{path}:{i}: cell ({ixv}, {iyv}) repeats line {first}")
        counts[ixv, iyv] = v
    return counts


def write_curve_csv(path, radii, observed, lower=None, upper=None) -> None:
    """r,observed plus optional envelope columns, given both or neither."""
    has_env = lower is not None
    if has_env != (upper is not None):
        raise ParameterError("an envelope needs both lower and upper")
    cols = [radii, observed, lower, upper] if has_env else [radii, observed]
    header = "r,observed,lower,upper" if has_env else "r,observed"
    write_table(path, header, [np.asarray(c, dtype=float) for c in cols])


def write_scan_csv(path, results, top=None) -> None:
    """A `ScanResults` table in rank order, or its best `top` rows."""
    write_table(path, "cx,cy,radius,t_start,t_end,observed,expected,llr,p_value",
                results.columns if top is None else results.top(top))
