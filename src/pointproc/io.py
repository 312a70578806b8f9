"""File formats: flat CSV for all artefacts, GeoJSON for point input.

Every CSV is written by `write_table` and read by `_read_table`.  The
writer emits UTF-8 with LF line endings and prints a float column as
'%.17g', which round-trips IEEE doubles exactly, and any other column as
'%s'; given identical inputs the bytes are identical.  It formats the
integers, and the floats that '%.17g' prints without an exponent, in numpy
a block of cells at a time, to the bytes '%' gives; every other cell goes
through '%'.  The reader reads the file once as `str.splitlines()` lines,
validates the header, and parses the rows with numpy's parser, or else in
one `float()` loop, which accepts what `float()` accepts or reports the
first malformed line as file:line.
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


_BLOCK_CELLS = 4096  # cells formatted at once, which bounds the writer's memory

# A numeric cell is formatted in a slot of 13 words (52 bytes).  Word 0 is
# "\0-0.", a sign and a float's "0." below 1; words 1-5 and 7-11 hold the
# cell's 20 digits twice, word 6 a point and word 12 the separator.  One
# row of _MASKS picks the bytes that print: an integer's digits from the
# second copy; a float's integer part from the first copy, then the point
# and the fraction from the second copy.
_WORDS = 13
_PREFIX, _POINT, _COMMA, _NEWLINE = (np.frombuffer(b, np.uint32)[0]
                                     for b in (b"\0-0.", b".\0\0\0", b",\0\0\0", b"\n\0\0\0"))
# the ASCII digits of each of 0..9999 as one word, and the trailing zeros
# of its 4 digits (4 for 0)
_D = np.indices((10,) * 4, np.uint8).reshape(4, -1)
_DIGITS4 = (_D.T + 48).copy().view(np.uint32).ravel()
_TRAIL4 = np.zeros(10000, np.uint8)
for _d in _D:  # a nonzero digit ends the run of zeros
    _TRAIL4 = (_d == 0) * (_TRAIL4 + 1)
del _D, _d
# an integer below 2**64 has as many digits as these powers at or below it
_POWERS = np.array([10**k for k in range(20)], np.uint64)


def _split(a):
    """a as hi + lo, halves of at most 26 bits (Veltkamp's split)."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(21)])  # exact doubles for k <= 22
_POW10_HI, _POW10_LO = _split(_POW10)


def _masks() -> np.ndarray:
    """The printed bytes of a slot for each key (sign * 22 + group) * 20 + n.

    Group 21 is an integer whose first nonzero digit is digit n of 20.  A
    group g < 21 is a float in [1e-4, 1e17) with decimal exponent g - 4,
    its 17 digits in digits 3..19 and its last nonzero digit at n."""
    sign, group, n = (a.reshape(-1, 1) for a in np.indices((2, 22, 20)))
    x, is_int = group - 4, group == 21
    a1 = np.where(is_int | (x < 0), 2, 3 + x)  # integer part: digits 3..a1
    b0 = np.where(is_int, n, 4 + x)  # fraction: digits b0..n, "000" first when x = -4
    i = np.arange(4 * _WORDS)
    return ((i == 1) & (sign == 1) | (i >= 2) & (i <= 3) & (x < 0)
            | (7 <= i) & (i <= 4 + a1) | (i == 24) & (x >= 0) & ~is_int & (b0 <= n)
            | (28 + b0 <= i) & (i <= 28 + np.where(is_int, 19, n)) | (i == 48))


_MASKS = _masks()


def _groups(m: np.ndarray) -> np.ndarray:
    """m < 2**64 as its 20 digits: five groups of 4 along a new first axis,
    as indices into _DIGITS4."""
    q = np.empty((5, *m.shape), np.intp)
    q[0] = m // np.uint64(10**16)
    m = (m - q[0].astype(np.uint64) * np.uint64(10**16)).astype(np.intp)
    for i, p in enumerate((10**12, 10**8, 10**4), start=1):
        np.floor_divide(m, p, out=q[i])
        m -= q[i] * p
    q[4] = m
    return q


def _trailing_zeros(q: np.ndarray) -> np.ndarray:
    """The trailing zeros of the digits in groups q."""
    run = np.take(_TRAIL4, q[0])
    for g in q[1:]:  # a group of zeros adds the run before it
        z = np.take(_TRAIL4, g)
        run = z + (z == 4) * run
    return run


def _exponent_guess(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)), kept in [-4, 16]; `_digits17` corrects it."""
    return np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)


def _digits17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a in [1e-4, 1e17) as N in [10**16, 10**17) and its exponent e:
    N = a * 10**(16 - e) rounded half to even, the digits of '%.17g'."""
    e = _exponent_guess(a)
    ah, al = _split(a)
    while True:
        # a * 10**(16 - e) exactly, as p + err (Dekker's product); at 10**16
        # and above, p is an even integer, so p + rint(err) rounds it
        k = 16 - e
        hi, lo = np.take(_POW10_HI, k), np.take(_POW10_LO, k)
        p = a * np.take(_POW10, k)
        err = ah * hi - p + ah * lo + al * hi + al * lo
        N = p.astype(np.int64) + np.rint(err).astype(np.int64)
        low, high = N < 10**16, N >= 10**17  # e was one too high, or one too low
        if not (low.any() or high.any()):
            return N, e
        e += high
        e -= low


def _rows(cols: list[np.ndarray]) -> np.ndarray | bytes:
    """The bytes of one block of CSV rows.  Numeric cells are formatted
    together in numpy, every other cell with '%'."""
    n, k = len(cols[0]), len(cols)
    mag = np.zeros((n, k), np.uint64)  # each cell's digits, as one integer
    sign = np.zeros((n, k), bool)
    group = np.full((n, k), 21)  # see _masks
    text = np.ones((n, k), bool)  # cells printed with '%'
    fl = [j for j, c in enumerate(cols) if c.dtype.kind == "f" and c.dtype.itemsize <= 8]
    ints = [j for j, c in enumerate(cols) if c.dtype.kind in "iu"]
    if fl:
        x = np.array([cols[j] for j in fl], np.float64).T
        a = np.abs(x)
        fixed = (a >= 1e-4) & (a < 1e17)  # where '%.17g' prints no exponent
        text[:, fl] = ~fixed & (a != 0)  # 0 and -0 print as the integer 0
        a[~fixed] = 1.0
        N, e = _digits17(a)
        N[~fixed] = 0
        mag[:, fl] = N
        sign[:, fl] = np.signbit(x)
        group[:, fl] = np.where(fixed, e + 4, 21)
    if ints:
        neg = np.array([cols[j] < 0 for j in ints]).T
        u = np.array([cols[j].astype(np.uint64) for j in ints]).T  # modulo 2**64
        mag[:, ints] = np.where(neg, -u, u)  # |v|, also of the least int64
        sign[:, ints] = neg
        text[:, ints] = False
    q = _groups(mag)
    last = 19 - _trailing_zeros(q)  # a float's last nonzero digit
    first = 20 - np.maximum(np.searchsorted(_POWERS, mag, "right"), 1)  # an integer's first
    key = (sign * 22 + group) * 20 + np.where(group == 21, first, last)
    out = np.empty((n, k, _WORDS), np.uint32)
    out[..., 0] = _PREFIX
    out[..., 1:6] = out[..., 7:12] = np.take(_DIGITS4, q).transpose(1, 2, 0)
    out[..., 6] = _POINT
    out[..., -1] = _COMMA
    out[:, -1, -1] = _NEWLINE
    out, show = out.view(np.uint8).reshape(n, k, -1), np.take(_MASKS, key, axis=0)
    if not text.any():
        return out[show]
    # a '%' cell shows byte 0, the NUL of _PREFIX that no numeric cell shows,
    # and byte 48, its separator: split at NUL, the bytes are the pieces before
    # each '%' cell in row order, and each piece takes that cell's text
    show[text] = np.arange(4 * _WORDS) % 48 == 0
    r, c = np.nonzero(text.T)[::-1]  # the '%' cells, column by column
    strs = [(("%.17g" if cols[j].dtype.kind == "f" else "%s") % (v,)).encode()
            for j in np.unique(c).tolist() for v in cols[j][text[:, j]].tolist()]
    pieces = out[show].tobytes().split(b"\0")
    for p, i in enumerate(np.lexsort((c, r)).tolist()):  # row by row
        pieces[p] += strs[i]
    return b"".join(pieces)


def write_table(path, header: str, columns) -> None:
    """A CSV table: the header line, then one row per index of the columns,
    each line ending in LF.  Float columns are written as '%.17g', every
    other column as '%s', in UTF-8.

    Integers, and the floats that '%.17g' prints without an exponent, are
    formatted in numpy, a block of cells at a time, to the same bytes."""
    cols = [np.asarray(c) for c in columns]
    names = header.split(",")
    if not cols:
        raise ParameterError(f"table {header!r} has no columns")
    if len(names) != len(cols):
        raise ParameterError(f"table {header!r} names {len(names)} columns, got {len(cols)}")
    for name, c in zip(names, cols):
        if c.ndim != 1:
            raise ParameterError(f"table column {name!r} is {c.ndim}-D, not 1-D")
    if len({len(c) for c in cols}) > 1:
        raise ParameterError(f"table columns differ in length: {[len(c) for c in cols]}")
    rows = max(1, _BLOCK_CELLS // len(cols))
    with open(path, "wb") as f:
        f.write(f"{header}\n".encode())
        for lo in range(0, len(cols[0]), rows):
            f.write(_rows([c[lo:lo + rows] for c in cols]))


def _read_table(path, header: str) -> np.ndarray:
    """The rows under a validated header as an (n, k) float array; blank
    lines are skipped.

    The file is read once and split by str.splitlines().  numpy's parser
    reads the lines when it can.  It refuses '1_0' and non-ASCII digits,
    which float() takes; then one float() loop reads them, or names the
    first line with a bad count or field."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParameterError(f"{path}: not a text file: {e}") from None
    if not text:
        raise ParameterError(f"{path}: empty file, expected header {header!r}")
    head, *body = text.splitlines()
    if head.strip() != header:
        raise ParameterError(f"{path}:1: expected header {header!r}, got {head.strip()!r}")
    k = header.count(",") + 1
    if not any(line.strip() for line in body):  # no rows: numpy's parser would warn
        return np.empty((0, k))
    if "\x1f" not in text:  # numpy's parser strips it around a number; float() refuses it
        for lines in (body, filter(str.strip, body)):  # numpy skips empty lines, not blank ones
            try:
                table = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
                if table.shape[1] == k:
                    return table
            except ValueError:
                pass
    values = []
    for i, line in enumerate(body, start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != k:
            raise ParameterError(f"{path}:{i}: expected {k} fields, got {len(fields)}")
        for col, f in enumerate(fields, start=1):
            try:
                values.append(float(f))
            except ValueError:
                raise ParameterError(f"{path}:{i}: column {col}: not a number: {f.strip()!r}") from None
    return np.array(values).reshape(-1, k)


def write_event_times(path, events: EventTimes) -> None:
    write_table(path, "t", [events.times])


def read_event_times(path, horizon: float | None = None) -> EventTimes:
    times = _read_table(path, "t")[:, 0]
    if horizon is None:
        if not times.size:
            raise ParameterError(f"{path}: no events and no horizon given")
        horizon = times.max()
    return EventTimes(times, horizon)


def write_points_csv(path, pattern: SpatialPattern) -> None:
    write_table(path, "x,y", pattern.points.T)


def read_points_csv(path) -> np.ndarray:
    return _read_table(path, "x,y")


def write_space_time_csv(path, events: SpaceTimeEvents) -> None:
    write_table(path, "x,y,t", [*events.xy.T, events.t])


def read_space_time_csv(path) -> np.ndarray:
    return _read_table(path, "x,y,t")


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
    points = np.array(pts, dtype=float).reshape(-1, 2)
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
    table = _read_table(path, "cell_x,cell_y,value")

    def line(row: int) -> int:  # the file line of a table row: blank lines hold none
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return [i for i, text in enumerate(lines, start=1) if i > 1 and text.strip()][row]

    counts = np.zeros((spec.nx, spec.ny), dtype=np.int64)
    seen: dict[tuple[int, int], int] = {}  # cell -> its row
    for r, row in enumerate(table.tolist()):
        if not all(v.is_integer() for v in row):  # also rejects nan and inf
            raise ParameterError(f"{path}:{line(r)}: cell indices and counts must be integers")
        ixv, iyv, v = map(int, row)
        if not (0 <= ixv < spec.nx and 0 <= iyv < spec.ny):
            raise ParameterError(f"{path}:{line(r)}: cell ({ixv}, {iyv}) outside the grid")
        if v < 0:
            raise ParameterError(f"{path}:{line(r)}: counts must be non-negative")
        if v >= 2**63:
            raise ParameterError(f"{path}:{line(r)}: count {v} does not fit in 64 bits")
        first = seen.setdefault((ixv, iyv), r)
        if first != r:
            raise ParameterError(f"{path}:{line(r)}: cell ({ixv}, {iyv}) repeats line {line(first)}")
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
