"""Brute-force O(n^2) references for the spatial statistics.

These deliberately avoid the library's k-d tree: every statistic is
recomputed from a dense pairwise-distance matrix using the same
Euclidean arithmetic (sqrt of the sum of squares), which the production
code must match exactly.  The exception is `ripleys_k_tree`, the
per-radius tree loop, which pins the k-d tree's tie rule.  The grid discs of GI* and the
scan are open and measured on whole-cell offsets: `gi_star_lattice`,
`disc_template` and `dense_discs` count a cell when
np.hypot(k * cell_width, l * cell_height) < r for its offset of (k, l)
cells, at every (centre, cell) pair.

`read_table_rows` parses a CSV one line, then one field, at a time, the
reference for the reader's numpy parse and its `float()` loop, and `dense_discs` is the
dense-mask disc builder, the reference for the scan's sparse one.  `scan_columns`
builds a scan's nine columns whole, the reference for the rows its results
build from their factors.  `csr_envelope`
redraws a replicate by an explicit minimum size, the reference for the envelope,
which leaves that rule to the statistic.  `poisson_pmf` is the Poisson pmf in
`decimal` arithmetic, the reference for `poisson_count_pmf`'s saddle-point form,
and `power_law_mass` the power-law kernel's mass, the reference for its
`total_mass` wherever delta^eta leaves the float range.  `nearest_float`
rounds an exact `Fraction` once.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree


def pairwise(points: np.ndarray) -> np.ndarray:
    dx = points[:, 0][:, None] - points[:, 0][None, :]
    dy = points[:, 1][:, None] - points[:, 1][None, :]
    return np.sqrt(dx * dx + dy * dy)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dx = a[:, 0][:, None] - b[:, 0][None, :]
    dy = a[:, 1][:, None] - b[:, 1][None, :]
    return np.sqrt(dx * dx + dy * dy)


def nn_distances(points: np.ndarray) -> np.ndarray:
    d = pairwise(points)
    np.fill_diagonal(d, np.inf)
    return d.min(axis=1)


def mean_min_distance(points: np.ndarray) -> float:
    return float(nn_distances(points).mean())


def g_function(points: np.ndarray, radii) -> np.ndarray:
    nnd = nn_distances(points)
    return np.array([(nnd <= r).mean() for r in radii])


def f_function(points: np.ndarray, probes: np.ndarray, radii) -> np.ndarray:
    d = cross(probes, points).min(axis=1)
    return np.array([(d <= r).mean() for r in radii])


def ripleys_k(points: np.ndarray, region, radii, correction="none") -> np.ndarray:
    n = len(points)
    lam = n / region.area
    d = pairwise(points)
    np.fill_diagonal(d, np.inf)
    depth = np.minimum.reduce(
        [
            points[:, 0] - region.xmin,
            region.xmax - points[:, 0],
            points[:, 1] - region.ymin,
            region.ymax - points[:, 1],
        ]
    )
    out = np.empty(len(radii))
    for j, r in enumerate(radii):
        counts = (d <= r).sum(axis=1)
        if correction == "border":
            keep = depth > r
            out[j] = counts[keep].mean() / lam if keep.any() else np.nan
        else:
            out[j] = counts.mean() / lam
    return out


def ripleys_k_tree(pattern, radii, correction="none") -> np.ndarray:
    """K from one `query_ball_point` pass per radius.

    The tree counts a pair within r when dx*dx + dy*dy <= r*r; the dense
    reference above compares sqrt(dx*dx + dy*dy) <= r, which can round
    the other way at an exact tie.  Lattice points and radii that equal
    pair distances need this reference.
    """
    radii = np.asarray(radii, dtype=float)
    lam = pattern.intensity
    pts = pattern.points
    tree = cKDTree(pts)
    if correction == "border":
        r = pattern.region
        depth = np.minimum.reduce(
            [pts[:, 0] - r.xmin, r.xmax - pts[:, 0], pts[:, 1] - r.ymin, r.ymax - pts[:, 1]]
        )
    out = np.empty(radii.size)
    for j, rad in enumerate(radii):
        neighbours = tree.query_ball_point(pts, rad, return_length=True) - 1
        if correction == "border":
            keep = depth > rad
            out[j] = neighbours[keep].mean() / lam if np.any(keep) else math.nan
        else:
            out[j] = neighbours.mean() / lam
    return out


def csr_envelope(pattern, statistic, radii, nsim, rng, probe_spec=None, correction="none"):
    """Reference envelope curves, (observed, replicates, redraws), with the
    redraw rule spelled out: replicate i draws CSR from substream i + 1
    until it holds at least 2 points for G and K, or 1 for F, and the dense
    statistic above gives every curve, one row per replicate.  `redraws`
    counts the draws refused.
    """
    from pointproc import simulate_csr

    def curve(pat):
        if statistic == "g":
            return g_function(pat.points, radii)
        if statistic == "f":
            return f_function(pat.points, probe_spec.centre_points(), radii)
        return ripleys_k(pat.points, pat.region, radii, correction)

    need = 1 if statistic == "f" else 2
    curves, redraws = [], 0
    for i in range(nsim):
        sub = rng.substream(i + 1)
        pat = simulate_csr(pattern.intensity, pattern.region, sub)
        while len(pat) < need:
            redraws += 1
            pat = simulate_csr(pattern.intensity, pattern.region, sub)
        curves.append(curve(pat))
    return curve(pattern), np.stack(curves), redraws


def kde_values(points: np.ndarray, centres: np.ndarray, bandwidth: float) -> np.ndarray:
    if len(points) == 0:
        counts = np.zeros(len(centres))
    else:
        counts = (cross(centres, points) <= bandwidth).sum(axis=1)
    return counts / (np.pi * bandwidth**2)


def gi_star(counts: np.ndarray, centres: np.ndarray, radius: float) -> np.ndarray:
    """Dense-weights GI* reference on flattened counts: a pair when d <= r."""
    return _gi_star_weights(counts, cross(centres, centres) <= radius)


def lattice_distances(spec) -> np.ndarray:
    """(ncells, ncells) np.hypot of every (centre, cell) offset of (k, l)
    whole cells, measured as k * cell_width and l * cell_height."""
    ix, iy = np.divmod(np.arange(spec.ncells), spec.ny)
    k, l = ix[:, None] - ix[None, :], iy[:, None] - iy[None, :]
    return np.hypot(k * spec.cell_width, l * spec.cell_height)


def gi_star_lattice(counts: np.ndarray, spec, radii) -> list[np.ndarray]:
    """GI* at each radius with the grid-disc rule: a pair when its
    lattice distance is < r."""
    d = lattice_distances(spec)
    return [_gi_star_weights(counts, d < r) for r in radii]


def disc_template(spec, radius) -> np.ndarray:
    """Per column offset k, the largest row offset l with
    np.hypot(k * cell_width, l * cell_height) < radius, or -1 if none."""
    k = np.arange(spec.nx)[:, None] * spec.cell_width
    l = np.arange(spec.ny)[None, :] * spec.cell_height
    inside = np.hypot(k, l) < radius
    return np.where(inside.any(axis=1), spec.ny - 1 - inside[:, ::-1].argmax(axis=1), -1)


def _gi_star_weights(counts: np.ndarray, within: np.ndarray) -> np.ndarray:
    x = counts.astype(float)
    n = x.size
    w = within.astype(float)
    W = w.sum(axis=1)
    S = w @ x
    xbar = x.mean()
    s = x.std()
    var_term = (n * W - W * W) / (n - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (S - xbar * W) / (s * np.sqrt(var_term))
    return np.where(W >= n, 0.0, z)


def dense_discs(spec, radii):
    """Distinct cell sets reachable as (centre, radius) discs, as dense masks.

    One float mask row per distinct disc, from the lattice distance of
    every cell to every centre; the first (centre, radius) producing a
    set is kept as its representative.
    """
    centres = spec.centre_points()
    ncells = centres.shape[0]
    dist = lattice_distances(spec)
    seen: dict[bytes, int] = {}
    members: list[np.ndarray] = []
    reps: list[tuple[float, float, float]] = []
    for c in range(ncells):
        for r in radii:
            mask = dist[c] < r
            key = mask.tobytes()
            if key not in seen:
                seen[key] = len(members)
                members.append(mask)
                reps.append((centres[c, 0], centres[c, 1], float(r)))
    return np.array(members, dtype=float), reps


def space_time_scan(events, spec, n_slices, radii, durations, nsim, rng, baseline=None):
    """Dense reference scan: (rows, replicate maxima).

    Rows are (cylinder, observed, expected, llr, p_value) in rank order.
    `expected` is exact up to one rounding: each cylinder's baseline mass
    is summed as `fractions.Fraction` over its member (cell, slice) pairs
    (the cell volume by default).  Every replicate draws the library's
    categorical (cell, slice) sample, takes the full LLR over all
    cylinders from a dense disc-mask product, and each p-value counts the
    replicate maxima one cylinder at a time.  Candidate windows and the
    LLR formula come from the library; inputs are assumed valid.
    """
    from pointproc.detect import Cylinder, _poisson_llr, _window_widths

    ncells = spec.ncells
    slice_len = events.horizon / n_slices
    ix, iy = spec.cell_indices(events.xy[:, 0], events.xy[:, 1])
    s_idx = np.minimum((events.t / slice_len).astype(np.int64), n_slices - 1)
    counts = np.zeros((ncells, n_slices))
    np.add.at(counts, (ix * spec.ny + iy, s_idx), 1.0)
    total = float(len(events))
    if baseline is None:
        mass = np.ones((ncells, n_slices))
        exact = [[Fraction(spec.cell_area * slice_len)] * n_slices] * ncells
    else:
        mass = np.column_stack([g.values.ravel().astype(float) for g in baseline])
        exact = [[Fraction(v) for v in row] for row in mass.tolist()]
    mass_total = sum(map(sum, exact), Fraction(0))

    discs, reps = dense_discs(spec, np.asarray(radii, dtype=float))
    widths = _window_widths(n_slices, slice_len, np.asarray(durations, dtype=float))
    windows = [(s0, w) for w in widths for s0 in range(n_slices - w + 1)]

    def window_sums(per_slice):
        cum = np.concatenate(
            [np.zeros((per_slice.shape[0], 1)), np.cumsum(per_slice, axis=1)], axis=1
        )
        return np.stack([cum[:, s0 + w] - cum[:, s0] for s0, w in windows], axis=1)

    obs = window_sums(discs @ counts)
    expected = np.empty_like(obs)
    for i, disc in enumerate(discs):
        cells = np.flatnonzero(disc).tolist()
        per_slice = [sum((exact[c][s] for c in cells), Fraction(0)) for s in range(n_slices)]
        for j, (s0, w) in enumerate(windows):
            expected[i, j] = float(Fraction(total) * sum(per_slice[s0:s0 + w]) / mass_total)
    llr = _poisson_llr(obs, expected, total)

    cum_mass = np.cumsum(mass.ravel())
    max_llrs = np.empty(nsim)
    for i in range(nsim):
        u = rng.substream(i + 1).uniforms(0.0, cum_mass[-1], total)
        sim = np.bincount(np.searchsorted(cum_mass, u, side="right"), minlength=mass.size)
        sim_obs = window_sums(discs @ sim.reshape(ncells, n_slices).astype(float))
        max_llrs[i] = _poisson_llr(sim_obs, expected, total).max()

    flat_llr = llr.ravel()
    reps_arr = np.array(reps)
    n_win = len(windows)
    order = np.lexsort(
        (
            np.tile(np.array([s0 for s0, _ in windows], dtype=float), len(reps)),
            np.repeat(reps_arr[:, 2], n_win),
            np.repeat(reps_arr[:, 1], n_win),
            np.repeat(reps_arr[:, 0], n_win),
            -flat_llr,
        )
    )
    rows = []
    for k in order:
        i, j = divmod(int(k), n_win)
        s0, w = windows[j]
        cyl = Cylinder(*reps[i], s0 * slice_len, min((s0 + w) * slice_len, events.horizon))
        lr = float(flat_llr[k])
        p = float((1 + np.count_nonzero(max_llrs >= lr)) / (nsim + 1))
        rows.append((cyl, int(round(float(obs[i, j]))), float(expected[i, j]), lr, p))
    return rows, max_llrs


def scan_columns(results, total):
    """The nine scan.csv columns of a scan's `ScanResults`, in its given
    row order, each built whole: every disc's (cx, cy, radius) repeated
    over the windows, the windows tiled over the discs, the LLR of every
    cylinder from `expected` and `total` events, and a p-value for every
    row.  The reference for the rows it builds from its factors."""
    from pointproc.detect import _poisson_llr

    reps, t_start, t_end = results._reps, results._t_start, results._t_end
    obs, expected, max_llrs = results._obs, results._expected, results._max_llrs
    n_win = len(t_start)
    cx, cy, radius = np.repeat(reps, n_win, axis=0).T
    llr = _poisson_llr(obs, expected, total)
    nsim = len(max_llrs)
    p_value = (1 + nsim - np.searchsorted(max_llrs, llr, side="left")) / (nsim + 1)
    observed = np.rint(obs).astype(np.int64)
    return (cx, cy, radius, np.tile(t_start, len(reps)), np.tile(t_end, len(reps)), observed,
            expected.copy(), llr, p_value)


def read_table_rows(path, header: str):
    """`pointproc.io._read_table` parsing one line, then one field, at a
    time: the rows as an (n, k) array, or the ParameterError that names
    the first bad line."""
    from pointproc import ParameterError

    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ParameterError(f"{path}: not a text file: {e}") from None
    if not lines:
        raise ParameterError(f"{path}: empty file, expected header {header!r}")
    if lines[0].strip() != header:
        raise ParameterError(f"{path}:1: expected header {header!r}, got {lines[0].strip()!r}")
    k = header.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")  # float() strips what it strips: not "\x1f"
        if len(fields) != k:
            raise ParameterError(f"{path}:{lineno}: expected {k} fields, got {len(fields)}")
        row = []
        for col, f in enumerate(fields, start=1):
            try:
                row.append(float(f))
            except ValueError:
                raise ParameterError(
                    f"{path}:{lineno}: column {col}: not a number: {f.strip()!r}") from None
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, k)


# B_2k / (2k (2k - 1)), k = 1 ... 8: the terms of Stirling's series for ln(n!)
_STIRLING_TERMS = [Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260), Fraction(-1, 1680),
                   Fraction(1, 1188), Fraction(-691, 360360), Fraction(1, 156),
                   Fraction(-3617, 122400)]


def _atan_inverse(k: int) -> Decimal:
    """atan(1 / k) by its series, to the context's precision."""
    total, power, j, sign = Decimal(0), Decimal(1) / k, 1, 1
    while True:
        more = total + sign * power / j
        if more == total:
            return total
        total, power, j, sign = more, power / (k * k), j + 2, -sign


def poisson_pmf(n: int, mu: float) -> float:
    """exp(n ln mu - mu - ln n!) to the nearest float, for a whole n >= 0
    and the exact binary value of `mu` > 0.

    In 360-digit `decimal` arithmetic, which keeps ~50 digits after the
    point of n ln mu up to 1e306.  ln n! is exact up to n = 1000, and past
    it Stirling's series with eight terms, the ninth below 1e-50.
    """
    with localcontext() as ctx:
        ctx.prec = 360
        m = Decimal(mu)
        if n < 1000:
            log_factorial = Decimal(math.factorial(n)).ln()
        else:
            pi = 16 * _atan_inverse(5) - 4 * _atan_inverse(239)
            x = Decimal(n)
            log_factorial = (x + Decimal("0.5")) * x.ln() - x + (2 * pi).ln() / 2 + sum(
                Decimal(c.numerator) / c.denominator / x ** (2 * k + 1)
                for k, c in enumerate(_STIRLING_TERMS)
            )
        return float((n * m.ln() - m - log_factorial).exp())


def nearest_float(x: Fraction) -> float:
    """The float nearest the exact value `x` >= 0, inf past the largest."""
    try:
        return float(x)  # the integers' true division, correctly rounded
    except OverflowError:
        return math.inf


def power_law_mass(alpha: float, delta: float, eta: float) -> float:
    """alpha / (eta delta^eta) to the nearest float, for the exact binary
    values of alpha >= 0 and delta, eta > 0: 0.0 or inf outside the float
    range.

    exp(ln alpha - ln eta - eta ln delta) in 80-digit `decimal`
    arithmetic.  Where the mass is in range, |eta ln delta| is below 2,300,
    so the exponent keeps over 70 digits after the point.
    """
    if alpha == 0.0:
        return 0.0
    with localcontext() as ctx:
        ctx.prec = 80
        log_mass = Decimal(alpha).ln() - Decimal(eta).ln() - Decimal(eta) * Decimal(delta).ln()
        if log_mass > 710:
            return math.inf
        if log_mass < -746:
            return 0.0
        return float(log_mass.exp())
