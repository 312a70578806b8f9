"""Command-line interface: simulate | analyze | detect with replayable runs.

Every run writes its outputs plus manifest.json into --out.  The
manifest records its format, the resolved command, parameters, seed and
library versions -- but not the output directory or thread count,
neither of which affects the bytes produced -- so

    pointproc --manifest <out>/manifest.json --out <elsewhere>

reproduces the original outputs byte for byte; a manifest of another
format exits 2 instead, and other library versions warn.  Replay turns
the recorded parameters back into a command line for the argv parser, so
a hand-edited manifest gets every check that argv gets.  On failure all
files written by the run are removed and the exit status is non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import warnings
from pathlib import Path

import numpy as np
import scipy

from . import __version__, io
from .core import (
    DegenerateDataError,
    EnvelopeError,
    Grid,
    GridSpec,
    InsufficientDataError,
    ParameterError,
    Region,
    RngStream,
    SpaceTimeEvents,
    SpatialPattern,
    aggregate_to_grid,
)
from .detect import _SCAN_NSIM_MIN, gi_star, space_time_scan
from .spatial import (
    _ENVELOPE_NSIM_MIN,
    _curve,
    _nni,
    csr_envelope,
    dispersion_by_block,
    kde_surface,
    mean_min_distance,
    quadrat_counts,
    simulate_csr,
)
from .temporal import (
    ExponentialKernel,
    HawkesModel,
    IntensityFn,
    branching_factor,
    simulate_hawkes,
    simulate_hpp,
    simulate_nhpp,
)

_USER_ERRORS = (
    ParameterError,
    EnvelopeError,
    InsufficientDataError,
    DegenerateDataError,
)


# ---------------------------------------------------------------- parsing

def _list_arg(item, count=None):
    """An argparse type: comma-separated items, blanks skipped, each parsed
    by `item`; at least one, or exactly `count` when given."""
    def parse(s: str) -> list:
        parts = [p.strip() for p in s.split(",") if p.strip()]
        if not parts or count not in (None, len(parts)):
            raise argparse.ArgumentTypeError(
                f"expected {count or 'one or more'} comma-separated values, got {s!r}")
        try:
            return [item(p) for p in parts]
        except ValueError as e:
            raise argparse.ArgumentTypeError(f"{e} (in {s!r})") from None
    return parse


def _int_arg(minimum: int):
    """An argparse type: an integer >= `minimum`, as `int` reads it."""
    def parse(s: str) -> int:
        with contextlib.suppress(ValueError):
            if (n := int(s)) >= minimum:
                return n
        raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {s!r}")
    return parse


def _segment(s: str) -> list[float]:
    bits = s.split(":")
    if len(bits) != 3:
        raise ValueError(f"segment must be start:end:rate, got {s!r}")
    return [float(b) for b in bits]


_region_arg = _list_arg(float, 4)
_floats_arg = _list_arg(float)
_count_arg = _int_arg(1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pointproc",
        description="Simulate point processes and analyze point patterns.",
    )
    # SUPPRESS keeps post-subcommand flags from clobbering top-level ones
    common = argparse.ArgumentParser(add_help=False)
    for flag, type_, help_ in (("--seed", int, "RNG seed (env POINTPROC_SEED)"),
                               ("--out", str, "output directory (default .)"),
                               ("--threads", _count_arg, "worker threads")):
        p.add_argument(flag, type=type_, default=None, help=help_)
        common.add_argument(flag, type=type_, default=argparse.SUPPRESS)
    p.add_argument("--manifest", default=None, help="replay a recorded run")
    p.add_argument("--version", action="version", version=f"pointproc {__version__}")
    sub = p.add_subparsers(dest="command")
    simsub, anasub, detsub = (
        sub.add_parser(name, help=help_).add_subparsers(dest="subcommand", required=True)
        for name, help_ in (("simulate", "generate synthetic data"),
                            ("analyze", "summaries of a point pattern"),
                            ("detect", "hotspot and cluster detection")))

    def need(q, type_, *flags):
        for flag in flags:
            q.add_argument(flag, type=type_, required=True)

    def command(subs, name, help_, columns=None):
        """A subcommand; one that reads a pattern takes --in and --region."""
        q = subs.add_parser(name, parents=[common], help=help_)
        if columns:
            q.add_argument("--in", dest="input", required=True, help=f"{columns} CSV or GeoJSON")
            need(q, _region_arg, "--region")
        return q

    def curve(name, help_):
        q = command(anasub, name, help_, "x,y")
        need(q, _floats_arg, "--radii")
        q.add_argument("--envelope", type=_int_arg(_ENVELOPE_NSIM_MIN), default=None,
                       metavar="NSIM")
        return q

    need(command(simsub, "hpp", "homogeneous Poisson events"), float, "--rate", "--horizon")
    nhpp = command(simsub, "nhpp", "non-homogeneous Poisson events")
    nhpp.add_argument("--intensity", choices=("constant", "piecewise", "sinusoid"), required=True)
    need(nhpp, float, "--horizon")
    nhpp.add_argument("--rate", type=float, help="constant: the rate")
    nhpp.add_argument("--segments", type=_list_arg(_segment), help="piecewise: start:end:rate,...")
    nhpp.add_argument("--base", type=float, help="sinusoid: baseline rate")
    nhpp.add_argument("--amplitude", type=float, help="sinusoid: swing")
    nhpp.add_argument("--period", type=float, help="sinusoid: period")
    need(command(simsub, "hawkes", "self-exciting events"),
         float, "--mu", "--alpha", "--beta", "--horizon")
    csr = command(simsub, "csr", "uniform random points")
    need(csr, float, "--rate")
    need(csr, _region_arg, "--region")

    kde = command(anasub, "kde", "disc-count density surface", "x,y")
    need(kde, _count_arg, "--nx", "--ny")
    need(kde, float, "--bandwidth")
    curve("g", "nearest-neighbour distance CDF")
    need(curve("f", "empty-space distance CDF"), _count_arg, "--probe-nx", "--probe-ny")
    k = curve("k", "Ripley's K")
    k.add_argument("--correction", choices=("none", "border"), default="none")
    command(anasub, "nni", "nearest-neighbour index", "x,y")
    need(command(anasub, "quadrat", "cell counts and chi-square CSR test", "x,y"),
         _count_arg, "--nx", "--ny")
    disp = command(anasub, "dispersion", "variance/mean by block size", "x,y")
    need(disp, _count_arg, "--nx", "--ny")
    need(disp, _list_arg(int), "--blocks")

    gis = command(detsub, "gistar", "Getis-Ord GI* z-scores", "x,y")
    need(gis, _count_arg, "--nx", "--ny")
    need(gis, float, "--radius")
    scan = command(detsub, "scan", "space-time scan statistic", "x,y,t")
    need(scan, float, "--horizon")
    need(scan, _count_arg, "--nx", "--ny", "--slices")
    need(scan, _floats_arg, "--radii", "--durations")
    scan.add_argument("--nsim", type=_int_arg(_SCAN_NSIM_MIN), default=999)
    scan.add_argument("--baseline", type=_list_arg(str), default=None,
                      help="per-slice count grids, comma separated")
    scan.add_argument("--top", type=_count_arg, default=None, help="keep only the best N")
    return p


# ----------------------------------------------------------- run plumbing

# The manifest format this version writes and replays (2: discs on whole-cell
# offsets; 3: a seed tree and run-summed `expected`), and the versions it records.
_FORMAT = 3
_VERSIONS = {"numpy": np.__version__, "python": platform.python_version(),
             "scipy": scipy.__version__}

# namespace entries that steer a run rather than shape its outputs
_RUN_KEYS = ("command", "subcommand", "seed", "out", "threads", "manifest")


def _resolve_seed(value) -> int:
    if value is not None:
        return value
    env = os.environ.get("POINTPROC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"POINTPROC_SEED is not an integer: {env!r}")
    return 0


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _RUN_KEYS}


def _flag(key: str, value) -> str:
    """A --flag=value token; the = form keeps a negative value from reading as a flag."""
    name = "--in" if key == "input" else "--" + key.replace("_", "-")
    if isinstance(value, list):
        value = ",".join(":".join(map(str, v)) if isinstance(v, list) else str(v)
                         for v in value)
    return name if value is None else f"{name}={value}"


def _replay_args(parser: argparse.ArgumentParser, outer) -> argparse.Namespace:
    """Parse a manifest's recorded run with the argv parser; the outer
    --out and --threads still apply, as neither changes the bytes written."""
    path = outer.manifest
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ParameterError(f"manifest not found: {path}")
    except (OSError, ValueError, RecursionError) as e:  # unreadable, not UTF-8, not JSON
        raise ParameterError(f"{path}: invalid manifest: {e}")
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: manifest must be a JSON object")
    for fld in ("command", "subcommand", "seed", "params"):
        if fld not in doc:
            raise ParameterError(f"{path}: manifest is missing {fld!r}")
    found = doc.get("format", 1)  # manifests without the key are format 1
    if type(found) is not int or found != _FORMAT:
        raise ParameterError(f"{path}: manifest format {found!r} cannot be replayed; "
                             f"this version replays format {_FORMAT} only")
    if doc.get("versions") != _VERSIONS:
        print(f"warning: {path}: recorded with {doc.get('versions')}, replayed with "
              f"{_VERSIONS}; outputs may differ", file=sys.stderr)
    command, recorded = [doc["command"], doc["subcommand"]], doc["params"]
    if not isinstance(recorded, dict):
        raise ParameterError(f"{path}: manifest params must be a JSON object")
    # a command string that starts with - would parse as a top-level option
    if not all(isinstance(c, str) and not c.startswith("-") for c in command):
        raise ParameterError(f"{path}: unknown command {command[0]} {command[1]}")
    args = parser.parse_args([*command, f"--seed={doc['seed']}",
                              *(_flag(k, v) for k, v in recorded.items() if v is not None)])
    params = _params(args)
    missing = [k for k in params if k not in recorded]
    if missing:
        raise ParameterError(f"{path}: manifest params missing {missing}")
    # keys argparse took as an abbreviation or as --seed/--out/--threads
    unknown = [_flag(k, v) for k, v in recorded.items() if k not in params]
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    args.out, args.threads = outer.out, outer.threads
    return args


# ------------------------------------------------------------- commands

def _build_intensity(p) -> IntensityFn:
    kind = p["intensity"]
    horizon = p["horizon"]
    if kind == "constant":
        if p.get("rate") is None:
            raise ParameterError("constant intensity needs --rate")
        return IntensityFn.constant(p["rate"], horizon)
    if kind == "piecewise":
        if not p.get("segments"):
            raise ParameterError("piecewise intensity needs --segments")
        return IntensityFn.piecewise(p["segments"])
    for name in ("base", "amplitude", "period"):
        if p[name] is None:
            raise ParameterError(f"sinusoid intensity needs --{name}")
    return IntensityFn.sinusoid(p["base"], p["amplitude"], p["period"], horizon)


def _cmd_simulate(subcommand, p, seed, threads, out) -> dict | None:
    """Writes the events or points; a Hawkes run returns its derived regime."""
    rng = RngStream(seed)
    if subcommand == "csr":
        pattern = simulate_csr(p["rate"], Region(*p["region"]), rng)
        io.write_points_csv(out("points.csv"), pattern)
        return None
    derived = None
    if subcommand == "hpp":
        events = simulate_hpp(p["rate"], p["horizon"], rng)
    elif subcommand == "nhpp":
        events = simulate_nhpp(_build_intensity(p), p["horizon"], rng)
    else:
        model = HawkesModel(p["mu"], ExponentialKernel(p["alpha"], p["beta"]))
        b = branching_factor(model)
        derived = {"n_star": b.value, "regime": b.regime}
        events = simulate_hawkes(model, p["horizon"], rng)
    io.write_event_times(out("events.csv"), events)
    return derived


def _load(p, with_times: bool = False) -> SpatialPattern | SpaceTimeEvents:
    """The --in file in its --region: a pattern, or a scan's events up to --horizon."""
    path, region = p["input"], Region(*p["region"])
    if not path.endswith((".geojson", ".json")):
        if with_times:
            return SpaceTimeEvents(io.read_space_time_csv(path), region, p["horizon"])
        return SpatialPattern(io.read_points_csv(path), region)
    pts, times = io.read_geojson_points(path)
    if not with_times:
        return SpatialPattern(pts, region)
    if times is None:
        raise ParameterError(f"{path}: scan needs a numeric 't' property per feature")
    return SpaceTimeEvents(np.column_stack([pts, times]), region, p["horizon"])


def _cmd_analyze(kind, p, seed, threads, out) -> None:
    pattern = _load(p)
    region = pattern.region

    if kind in ("g", "f", "k"):
        radii = p["radii"]
        probe = GridSpec(region, p["probe_nx"], p["probe_ny"]) if kind == "f" else None
        correction = p.get("correction", "none")
        if p.get("envelope") is None:
            io.write_curve_csv(out(f"{kind}.csv"), radii,
                               _curve(pattern, kind, radii, correction, probe))
            return
        env = csr_envelope(pattern, kind, radii, p["envelope"], RngStream(seed),
                           correction=correction, probe_spec=probe, threads=threads)
        io.write_curve_csv(out(f"{kind}.csv"), env.radii, env.observed, env.lower, env.upper)
        return

    if kind == "nni":
        d = mean_min_distance(pattern)
        io.write_table(out("nni.csv"), "statistic,value", [
            ["nni", "mean_min_distance", "intensity"],
            [_nni(d, pattern.intensity), d, pattern.intensity],
        ])
        return

    spec = GridSpec(region, p["nx"], p["ny"])
    if kind == "kde":
        if p["bandwidth"] > 0.5 * min(region.width, region.height):
            print(
                "note: bandwidth exceeds half the region extent; "
                "most of each disc falls outside the region",
                file=sys.stderr,
            )
        io.write_grid_csv(out("kde.csv"), kde_surface(pattern, spec, p["bandwidth"]))
        return

    if kind == "quadrat":
        res = quadrat_counts(pattern, spec)
        io.write_grid_csv(out("quadrat.csv"), res.grid)
        io.write_table(out("quadrat_test.csv"), "statistic,value", [
            ["chi_square", "dof", "p_value"],
            [res.statistic, res.dof, res.p_value],
        ])
        return

    rows = dispersion_by_block(pattern, spec, p["blocks"])
    io.write_table(out("dispersion.csv"), "block_size,index", list(zip(*rows)))


def _cmd_detect(subcommand, p, seed, threads, out) -> None:
    if subcommand == "gistar":
        pattern = _load(p)
        counts = aggregate_to_grid(pattern, GridSpec(pattern.region, p["nx"], p["ny"]))
        io.write_grid_csv(out("gistar.csv"), gi_star(counts, p["radius"]), "z")
        return

    events = _load(p, with_times=True)
    spec = GridSpec(events.region, p["nx"], p["ny"])
    baseline = None
    if p.get("baseline"):
        baseline = [Grid(spec, io.read_count_values(f, spec)) for f in p["baseline"]]
    results = space_time_scan(
        events,
        spec,
        p["slices"],
        p["radii"],
        p["durations"],
        p["nsim"],
        RngStream(seed),
        baseline=baseline,
        threads=threads,
    )
    io.write_scan_csv(out("scan.csv"), results, top=p.get("top"))


_DISPATCH = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "detect": _cmd_detect,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.manifest is not None and args.command is not None:
        parser.error("--manifest replays a recorded run and takes no subcommand")
    if args.manifest is not None and args.seed is not None:
        parser.error("--seed cannot override a manifest (the seed is recorded in it)")
    if args.command is None and args.manifest is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.manifest is not None:
            args = _replay_args(parser, args)
        seed = _resolve_seed(args.seed)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    # threads deliberately absent: outputs are thread-invariant
    manifest = {"format": _FORMAT, "tool": "pointproc", "version": __version__,
                "versions": _VERSIONS, "command": args.command,
                "subcommand": args.subcommand, "seed": seed, "params": _params(args)}
    outdir = Path(args.out) if args.out is not None else Path(".")
    written: list[Path] = []

    def out(name: str) -> Path:
        written.append(outdir / name)
        return written[-1]

    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings():  # a library warning prints as one line too
            warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
            derived = _DISPATCH[args.command](args.subcommand, manifest["params"], seed,
                                              args.threads or 1, out)
        if derived:
            manifest["derived"] = derived
        out("manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                                        encoding="utf-8", newline="\n")
    except (*_USER_ERRORS, OSError, MemoryError, Warning) as e:  # Warning: under -W error
        for path in written:
            with contextlib.suppress(OSError):  # missing, or a directory the run never wrote
                path.unlink()
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
