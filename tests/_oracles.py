"""Brute-force O(n^2) references for the spatial statistics.

These deliberately avoid the library's k-d tree: every statistic is
recomputed from a dense pairwise-distance matrix using the same
Euclidean arithmetic (sqrt of the sum of squares), which the production
code must match exactly.
"""

import numpy as np


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


def kde_values(points: np.ndarray, centres: np.ndarray, bandwidth: float) -> np.ndarray:
    if len(points) == 0:
        counts = np.zeros(len(centres))
    else:
        counts = (cross(centres, points) <= bandwidth).sum(axis=1)
    return counts / (np.pi * bandwidth**2)


def gi_star(counts: np.ndarray, centres: np.ndarray, radius: float) -> np.ndarray:
    """Dense-weights GI* reference on flattened counts."""
    x = counts.astype(float)
    n = x.size
    w = (cross(centres, centres) <= radius).astype(float)
    W = w.sum(axis=1)
    S = w @ x
    xbar = x.mean()
    s = x.std()
    var_term = (n * W - W * W) / (n - 1.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        z = (S - xbar * W) / (s * np.sqrt(var_term))
    return np.where(W >= n, 0.0, z)


def space_time_scan(events, spec, n_slices, radii, durations, nsim, rng, baseline=None):
    """Dense reference scan: (rows, replicate maxima).

    Rows are (cylinder, observed, expected, llr, p_value) in rank order.
    Every replicate takes the full LLR over all cylinders from a dense
    disc-mask product, and each p-value counts the replicate maxima one
    cylinder at a time.  Candidate discs, windows and the LLR formula come
    from the library; inputs are assumed valid.
    """
    from pointproc.detect import (
        Cylinder,
        _candidate_discs,
        _candidate_windows,
        _poisson_llr,
    )

    ncells = spec.ncells
    slice_len = events.horizon / n_slices
    ix, iy = spec.cell_indices(events.xy[:, 0], events.xy[:, 1])
    s_idx = np.minimum((events.t / slice_len).astype(np.int64), n_slices - 1)
    counts = np.zeros((ncells, n_slices))
    np.add.at(counts, (ix * spec.ny + iy, s_idx), 1.0)
    total = float(len(events))
    if baseline is None:
        mass = np.full((ncells, n_slices), spec.cell_area * slice_len)
    else:
        mass = np.column_stack([g.counts.ravel().astype(float) for g in baseline])
    mass_total = mass.sum()

    discs, reps = _candidate_discs(spec, np.asarray(radii, dtype=float))
    windows = _candidate_windows(n_slices, slice_len, np.asarray(durations, dtype=float))

    def window_sums(per_slice):
        cum = np.concatenate(
            [np.zeros((per_slice.shape[0], 1)), np.cumsum(per_slice, axis=1)], axis=1
        )
        return np.stack([cum[:, s0 + w] - cum[:, s0] for s0, w in windows], axis=1)

    obs = window_sums(discs @ counts)
    expected = total * window_sums(discs @ mass) / mass_total
    llr = _poisson_llr(obs, expected, total)

    pvals = (mass / mass_total).ravel()
    max_llrs = np.empty(nsim)
    for i in range(nsim):
        sim = rng.substream(i + 1).multinomial(int(total), pvals)
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
