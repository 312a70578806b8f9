"""Per-layer timing of pointproc from outside the package.

The benchmark wraps the public names the CLI and the library modules
call through (``pointproc.cli.space_time_scan``,
``pointproc.spatial.simulate_csr``, ``pointproc.detect.indexed_map``,
...) with span recorders; nothing in the package changes.  A span has a
name, a start, an end and the index of its parent span.  Spans stay in
memory until the run writes them out.  The recorder keeps one stack, so
traced passes run single-threaded (the CLI default, ``--threads 1``).
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from time import perf_counter

STATISTICS = ("kde_surface", "g_function", "f_function", "ripleys_k", "nni",
              "mean_min_distance", "quadrat_counts", "dispersion_by_block")


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)


def _spanned(rec, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = rec.call(name, fn, *args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result
    return wrapper


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def install(rec: Recorder, pp) -> list:
    """Wrap the layer boundaries; returns the patches for :func:`uninstall`."""
    cli, io, spatial, detect, temporal, core = (
        pp.cli, pp.io, pp.spatial, pp.detect, pp.temporal, pp.core)
    patches = []

    def patch(owner, attr, new):
        patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr)))
        setattr(owner, attr, new)

    def span(owner, attr, name, after=None):
        if hasattr(owner, attr):  # a name the package dropped leaves its metric at 0
            patch(owner, attr, _spanned(rec, name, getattr(owner, attr), after))

    def rows(result, args, kwargs):
        rec.counts["io.rows_read"] += len(result[0] if isinstance(result, tuple) else result)

    def written(result, args, kwargs):
        rec.counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    for attr in ("read_points_csv", "read_space_time_csv", "read_geojson_points",
                 "read_count_values"):
        span(io, attr, "io.read", rows)
    for attr in ("write_event_times", "write_points_csv", "write_grid_csv",
                 "write_curve_csv", "write_scan_csv"):
        span(io, attr, "io.write", written)

    def scanned(result, args, kwargs):
        rec.counts["detect.scan.cylinders"] += len(result)
        rec.counts["detect.scan.evaluations"] += len(result) * (_arg(args, kwargs, 5, "nsim") + 1)

    def replicated(result, args, kwargs):
        rec.counts["spatial.replicates"] += _arg(args, kwargs, 1, "count")

    span(cli, "space_time_scan", "detect.scan", scanned)
    span(detect, "indexed_map", "detect.scan.replicate")
    span(cli, "gi_star", "detect.gistar")
    span(cli, "aggregate_to_grid", "detect.aggregate")
    span(cli, "csr_envelope", "spatial.envelope")
    span(cli, "simulate_csr", "spatial.simulate_csr")
    span(spatial, "simulate_csr", "spatial.replicate_sim")
    span(spatial, "indexed_map", "spatial.replicates", replicated)
    for attr in STATISTICS:
        span(cli, attr, "spatial.statistic")
        if attr in ("g_function", "f_function", "ripleys_k", "mean_min_distance"):
            span(spatial, attr, "spatial.statistic")

    def events(result, args, kwargs):
        rec.counts["temporal.events"] += len(result)

    def nhpp_events(result, args, kwargs):
        events(result, args, kwargs)
        intensity = _arg(args, kwargs, 0, "intensity")
        horizon = _arg(args, kwargs, 1, "horizon")
        rec.counts["temporal.nhpp_events"] += len(result)
        rec.counts["temporal.nhpp_candidates_expected"] += sum(
            u * (min(b, horizon) - a) for a, b, u in intensity.segments() if a < horizon)

    span(cli, "simulate_hpp", "temporal.simulate_hpp", events)
    span(cli, "simulate_nhpp", "temporal.simulate_nhpp", nhpp_events)
    span(cli, "simulate_hawkes", "temporal.simulate_hawkes", events)
    intensity_cls = temporal.IntensityFn
    for attr in ("constant", "piecewise", "sinusoid"):
        build = intensity_cls.__dict__[attr].__func__
        patch(intensity_cls, attr, classmethod(_spanned(rec, "temporal.intensity_build", build)))

    substream = core.RngStream.substream

    @functools.wraps(substream)
    def counted_substream(self, *args, **kwargs):
        rec.counts["core.substreams"] += 1
        return substream(self, *args, **kwargs)

    patch(core.RngStream, "substream", counted_substream)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(rec: Recorder) -> dict[str, float]:
    """Per span name: total duration minus the time its direct children cover."""
    child_time = defaultdict(float)
    for name, start, end, parent in rec.spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(rec.spans):
        out[name] += end - start - child_time[idx]
    return dict(out)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics one traced pass gives (see spec.PER_LAYER)."""
    total, calls = defaultdict(float), Counter()
    for name, start, end, _ in rec.spans:
        total[name] += end - start
        calls[name] += 1
    stat_s, stat_calls = 0.0, 0
    for name, start, end, parent in rec.spans:
        if name == "spatial.statistic":
            while parent >= 0 and rec.spans[parent][0] != "spatial.statistic":
                parent = rec.spans[parent][3]
            if parent < 0:  # outermost: nni's own mean_min_distance is not counted twice
                stat_s += end - start
                stat_calls += 1
    c = rec.counts
    scan_s = total["detect.scan"]
    candidates = c["temporal.nhpp_candidates_expected"]
    return {
        "detect.scan_s": scan_s,
        "detect.scan.replicate_s": total["detect.scan.replicate"],
        "detect.scan.self_s": scan_s - total["detect.scan.replicate"],
        "detect.scan.cylinders": c["detect.scan.cylinders"],
        "detect.scan.cylinders_per_s": c["detect.scan.evaluations"] / scan_s if scan_s else 0.0,
        "spatial.envelope_s": total["spatial.envelope"],
        "spatial.replicate_sim_s": total["spatial.replicate_sim"],
        "spatial.replicates": c["spatial.replicates"],
        "spatial.redraws": calls["spatial.replicate_sim"] - c["spatial.replicates"],
        "core.substreams": c["core.substreams"],
        "spatial.statistic_s": stat_s,
        "spatial.statistic_calls": stat_calls,
        "detect.gistar_s": total["detect.gistar"],
        "io.read_s": total["io.read"],
        "io.rows_read": c["io.rows_read"],
        "temporal.intensity_build_s": total["temporal.intensity_build"],
        "temporal.simulate_hpp_s": total["temporal.simulate_hpp"],
        "temporal.simulate_nhpp_s": total["temporal.simulate_nhpp"],
        "temporal.simulate_hawkes_s": total["temporal.simulate_hawkes"],
        "temporal.events": c["temporal.events"],
        "temporal.nhpp_accept_ratio": c["temporal.nhpp_events"] / candidates if candidates else 0.0,
        "io.write_s": total["io.write"],
        "io.bytes_written": c["io.bytes_written"],
        "cli.self_s": self_times(rec).get("cli", 0.0),
    }
