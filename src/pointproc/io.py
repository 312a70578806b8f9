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
    template = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in cols)
    rows = map(template.format, *(c.tolist() for c in cols))
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def _read_table(path, header: str) -> tuple[np.ndarray, list[int]]:
    """The rows under a validated header as an (n, k) float array, with
    each row's 1-based line number; blank lines are skipped."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as e:
        raise ParameterError(f"{path}: not a text file: {e}") from None
    if not lines:
        raise ParameterError(f"{path}: empty file, expected header {header!r}")
    if lines[0].strip() != header:
        raise ParameterError(f"{path}:1: expected header {header!r}, got {lines[0].strip()!r}")
    k = header.count(",") + 1
    rows, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != k:
            raise ParameterError(f"{path}:{lineno}: expected {k} fields, got {len(fields)}")
        row = []
        for col, f in enumerate(fields, start=1):
            try:
                row.append(float(f))
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: column {col}: not a number: {f!r}") from None
        rows.append(row)
        linenos.append(lineno)
    return np.array(rows, dtype=float).reshape(-1, k), linenos


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


def read_geojson_points(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Point features from a GeoJSON FeatureCollection.

    Returns (points, times); times is None unless every feature carries
    a numeric 't' property.
    """
    try:
        doc = json.loads(Path(path).read_text())
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
            pts.append((float(coords[0]), float(coords[1])))
        except (TypeError, ValueError, OverflowError):
            raise ParameterError(f"{path}: feature {i}: malformed coordinates") from None
        if "t" in props:
            try:
                times.append(float(props["t"]))
            except (TypeError, ValueError, OverflowError):
                raise ParameterError(
                    f"{path}: feature {i}: property 't' is not a number"
                ) from None
    points = np.array(pts, dtype=float) if pts else np.empty((0, 2))
    if times and len(times) != len(pts):
        raise ParameterError(f"{path}: property 't' present on only some features")
    return points, (np.array(times, dtype=float) if times else None)


def write_grid_csv(path, spec, values, name: str = "value") -> None:
    """Cell-indexed values, x-major; integer arrays stay integers."""
    arr = np.asarray(values)
    if arr.shape != (spec.nx, spec.ny):
        raise ParameterError(f"values shape {arr.shape} does not match grid ({spec.nx}, {spec.ny})")
    if not np.issubdtype(arr.dtype, np.integer):
        arr = arr.astype(float)
    ix, iy = np.indices(arr.shape)
    write_table(path, f"cell_x,cell_y,{name}", [ix.ravel(), iy.ravel(), arr.ravel()])


def read_count_values(path, spec, name: str = "value") -> np.ndarray:
    """Integer grid values from cell_x,cell_y,<name> rows; missing cells
    are zero."""
    table, linenos = _read_table(path, f"cell_x,cell_y,{name}")
    counts = np.zeros((spec.nx, spec.ny), dtype=np.int64)
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
        counts[ixv, iyv] = v
    return counts


def write_curve_csv(path, radii, observed, lower=None, upper=None) -> None:
    """r,observed plus optional envelope columns."""
    has_env = lower is not None and upper is not None
    cols = [radii, observed, lower, upper] if has_env else [radii, observed]
    header = "r,observed,lower,upper" if has_env else "r,observed"
    write_table(path, header, [np.asarray(c, dtype=float) for c in cols])


def write_scan_csv(path, results, top=None) -> None:
    """A `ScanResults` table in rank order, or its best `top` rows."""
    write_table(path, "cx,cy,radius,t_start,t_end,observed,expected,llr,p_value",
                [c[:top] for c in results.columns])
