"""Command-line interface: simulate | analyze | detect with replayable runs.

Every run writes its outputs plus manifest.json into --out.  The
manifest records the resolved command, parameters and seed -- but not
the output directory or thread count, neither of which affects the
bytes produced -- so

    pointproc --manifest <out>/manifest.json --out <elsewhere>

reproduces the original outputs byte for byte.  Replay turns the
recorded parameters back into a command line for the argv parser, so a
hand-edited manifest gets every check that argv gets.  On failure all
files written by the run are removed and the exit status is non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
from .detect import gi_star, space_time_scan
from .spatial import (
    csr_envelope,
    dispersion_by_block,
    f_function,
    g_function,
    kde_surface,
    mean_min_distance,
    nni,
    quadrat_counts,
    ripleys_k,
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

def _region_arg(s: str) -> list[float]:
    parts = s.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("region must be xmin,xmax,ymin,ymax")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"region has a non-numeric bound: {s!r}")


def _floats_arg(s: str) -> list[float]:
    try:
        vals = [float(p) for p in s.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers: {s!r}")
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one number")
    return vals


def _ints_arg(s: str) -> list[int]:
    try:
        vals = [int(p) for p in s.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {s!r}")
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return vals


def _segments_arg(s: str) -> list[list[float]]:
    """start:end:rate triples, comma separated."""
    segs = []
    for part in s.split(","):
        bits = part.split(":")
        if len(bits) != 3:
            raise argparse.ArgumentTypeError(
                f"segment must be start:end:rate, got {part!r}"
            )
        try:
            segs.append([float(b) for b in bits])
        except ValueError:
            raise argparse.ArgumentTypeError(f"non-numeric segment field in {part!r}")
    if not segs:
        raise argparse.ArgumentTypeError("expected at least one segment")
    return segs


def _paths_arg(s: str) -> list[str]:
    vals = [p.strip() for p in s.split(",") if p.strip()]
    if not vals:
        raise argparse.ArgumentTypeError("expected at least one path")
    return vals


def _common_parent() -> argparse.ArgumentParser:
    # SUPPRESS keeps post-subcommand flags from clobbering top-level ones
    c = argparse.ArgumentParser(add_help=False)
    c.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    c.add_argument("--out", default=argparse.SUPPRESS)
    c.add_argument("--threads", type=int, default=argparse.SUPPRESS)
    return c


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pointproc",
        description="Simulate point processes and analyze point patterns.",
    )
    p.add_argument("--seed", type=int, default=None, help="RNG seed (env POINTPROC_SEED)")
    p.add_argument("--out", default=None, help="output directory (default .)")
    p.add_argument("--threads", type=int, default=None, help="worker threads")
    p.add_argument("--manifest", default=None, help="replay a recorded run")
    p.add_argument("--version", action="version", version=f"pointproc {__version__}")
    common = [_common_parent()]
    sub = p.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="generate synthetic data")
    simsub = sim.add_subparsers(dest="subcommand", required=True)

    hpp = simsub.add_parser("hpp", parents=common, help="homogeneous Poisson events")
    hpp.add_argument("--rate", type=float, required=True)
    hpp.add_argument("--horizon", type=float, required=True)

    nhpp = simsub.add_parser("nhpp", parents=common, help="non-homogeneous Poisson events")
    nhpp.add_argument(
        "--intensity", choices=("constant", "piecewise", "sinusoid"), required=True
    )
    nhpp.add_argument("--horizon", type=float, required=True)
    nhpp.add_argument("--rate", type=float, help="constant: the rate")
    nhpp.add_argument("--segments", type=_segments_arg, help="piecewise: start:end:rate,...")
    nhpp.add_argument("--base", type=float, help="sinusoid: baseline rate")
    nhpp.add_argument("--amplitude", type=float, help="sinusoid: swing")
    nhpp.add_argument("--period", type=float, help="sinusoid: period")

    hawkes = simsub.add_parser("hawkes", parents=common, help="self-exciting events")
    hawkes.add_argument("--mu", type=float, required=True)
    hawkes.add_argument("--alpha", type=float, required=True)
    hawkes.add_argument("--beta", type=float, required=True)
    hawkes.add_argument("--horizon", type=float, required=True)

    csr = simsub.add_parser("csr", parents=common, help="uniform random points")
    csr.add_argument("--rate", type=float, required=True)
    csr.add_argument("--region", type=_region_arg, required=True)

    ana = sub.add_parser("analyze", help="summaries of a point pattern")
    anasub = ana.add_subparsers(dest="subcommand", required=True)

    def pattern_parser(name, help_, subs=anasub, columns="x,y"):
        q = subs.add_parser(name, parents=common, help=help_)
        q.add_argument("--in", dest="input", required=True, help=f"{columns} CSV or GeoJSON")
        q.add_argument("--region", type=_region_arg, required=True)
        return q

    kde = pattern_parser("kde", "disc-count density surface")
    kde.add_argument("--nx", type=int, required=True)
    kde.add_argument("--ny", type=int, required=True)
    kde.add_argument("--bandwidth", type=float, required=True)

    g = pattern_parser("g", "nearest-neighbour distance CDF")
    g.add_argument("--radii", type=_floats_arg, required=True)
    g.add_argument("--envelope", type=int, default=None, metavar="NSIM")

    f = pattern_parser("f", "empty-space distance CDF")
    f.add_argument("--radii", type=_floats_arg, required=True)
    f.add_argument("--probe-nx", type=int, required=True)
    f.add_argument("--probe-ny", type=int, required=True)
    f.add_argument("--envelope", type=int, default=None, metavar="NSIM")

    k = pattern_parser("k", "Ripley's K")
    k.add_argument("--radii", type=_floats_arg, required=True)
    k.add_argument("--correction", choices=("none", "border"), default="none")
    k.add_argument("--envelope", type=int, default=None, metavar="NSIM")

    pattern_parser("nni", "nearest-neighbour index")

    quad = pattern_parser("quadrat", "cell counts and chi-square CSR test")
    quad.add_argument("--nx", type=int, required=True)
    quad.add_argument("--ny", type=int, required=True)

    disp = pattern_parser("dispersion", "variance/mean by block size")
    disp.add_argument("--nx", type=int, required=True)
    disp.add_argument("--ny", type=int, required=True)
    disp.add_argument("--blocks", type=_ints_arg, required=True)

    det = sub.add_parser("detect", help="hotspot and cluster detection")
    detsub = det.add_subparsers(dest="subcommand", required=True)

    gis = pattern_parser("gistar", "Getis-Ord GI* z-scores", detsub)
    gis.add_argument("--nx", type=int, required=True)
    gis.add_argument("--ny", type=int, required=True)
    gis.add_argument("--radius", type=float, required=True)

    scan = pattern_parser("scan", "space-time scan statistic", detsub, "x,y,t")
    scan.add_argument("--horizon", type=float, required=True)
    scan.add_argument("--nx", type=int, required=True)
    scan.add_argument("--ny", type=int, required=True)
    scan.add_argument("--slices", type=int, required=True)
    scan.add_argument("--radii", type=_floats_arg, required=True)
    scan.add_argument("--durations", type=_floats_arg, required=True)
    scan.add_argument("--nsim", type=int, default=999)
    scan.add_argument("--baseline", type=_paths_arg, default=None,
                      help="per-slice count grids, comma separated")
    scan.add_argument("--top", type=int, default=None, help="keep only the best N")
    return p


# ----------------------------------------------------------- run plumbing

# namespace entries that steer a run rather than shape its outputs
_RUN_KEYS = ("command", "subcommand", "seed", "out", "threads", "manifest")


@dataclass
class RunConfig:
    """A fully resolved invocation; serializes to the manifest."""

    command: str
    subcommand: str
    seed: int
    threads: int
    params: dict
    derived: dict = field(default_factory=dict)

    def manifest(self) -> dict:
        # threads deliberately absent: outputs are thread-invariant
        doc = {
            "tool": "pointproc",
            "version": __version__,
            "command": self.command,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "params": self.params,
        }
        if self.derived:
            doc["derived"] = self.derived
        return doc


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("POINTPROC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ParameterError(f"POINTPROC_SEED is not an integer: {env!r}")
    return 0


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _RUN_KEYS}


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        subcommand=args.subcommand,
        seed=_resolve_seed(args.seed),
        threads=max(1, args.threads or 1),
        params=_params(args),
    )


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
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ParameterError(f"manifest not found: {path}")
    except (OSError, ValueError, RecursionError) as e:  # unreadable, not UTF-8, not JSON
        raise ParameterError(f"{path}: invalid manifest: {e}")
    if not isinstance(doc, dict):
        raise ParameterError(f"{path}: manifest must be a JSON object")
    for fld in ("command", "subcommand", "seed", "params"):
        if fld not in doc:
            raise ParameterError(f"{path}: manifest is missing {fld!r}")
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


class _Session:
    """Tracks files written by one run so failures can clean up."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.outdir / name
        self.written.append(p)
        return p

    def rollback(self) -> None:
        for p in self.written:
            try:
                p.unlink()
            except FileNotFoundError:
                pass


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
        segs = p["segments"]
        if segs[-1][1] < horizon:
            raise ParameterError(
                f"segments end at {segs[-1][1]} but horizon is {horizon}"
            )
        return IntensityFn.piecewise(segs)
    for name in ("base", "amplitude", "period"):
        if p[name] is None:
            raise ParameterError(f"sinusoid intensity needs --{name}")
    return IntensityFn.sinusoid(p["base"], p["amplitude"], p["period"], horizon)


def _cmd_simulate(cfg: RunConfig, session: _Session) -> None:
    p = cfg.params
    rng = RngStream(cfg.seed)
    if cfg.subcommand == "csr":
        pattern = simulate_csr(p["rate"], Region(*p["region"]), rng)
        io.write_points_csv(session.path("points.csv"), pattern)
        return
    if cfg.subcommand == "hpp":
        events = simulate_hpp(p["rate"], p["horizon"], rng)
    elif cfg.subcommand == "nhpp":
        events = simulate_nhpp(_build_intensity(p), p["horizon"], rng)
    else:
        model = HawkesModel(p["mu"], ExponentialKernel(p["alpha"], p["beta"]))
        b = branching_factor(model)
        cfg.derived = {"n_star": b.value, "regime": b.regime}
        events = simulate_hawkes(model, p["horizon"], rng)
    io.write_event_times(session.path("events.csv"), events)


def _read_input(p, with_times: bool) -> np.ndarray:
    """The --in file as x,y rows, or as x,y,t rows for a scan."""
    path = p["input"]
    if not path.endswith((".geojson", ".json")):
        return io.read_space_time_csv(path) if with_times else io.read_points_csv(path)
    pts, times = io.read_geojson_points(path)
    if not with_times:
        return pts
    if times is None:
        raise ParameterError(f"{path}: scan needs a numeric 't' property per feature")
    return np.column_stack([pts, times]) if len(pts) else np.empty((0, 3))


def _load_pattern(p) -> SpatialPattern:
    region = Region(*p["region"])
    return SpatialPattern(_read_input(p, with_times=False), region)


def _cmd_analyze(cfg: RunConfig, session: _Session) -> None:
    p = cfg.params
    kind = cfg.subcommand
    pattern = _load_pattern(p)
    region = pattern.region

    if kind == "kde":
        spec = GridSpec(region, p["nx"], p["ny"])
        if p["bandwidth"] > 0.5 * min(region.width, region.height):
            print(
                "note: bandwidth exceeds half the region extent; "
                "most of each disc falls outside the region",
                file=sys.stderr,
            )
        surface = kde_surface(pattern, spec, p["bandwidth"])
        io.write_grid_csv(session.path("kde.csv"), spec, surface.values)
        return

    if kind in ("g", "f", "k"):
        radii = p["radii"]
        probe = (
            GridSpec(region, p["probe_nx"], p["probe_ny"]) if kind == "f" else None
        )
        correction = p.get("correction", "none")
        if p.get("envelope") is not None:
            env = csr_envelope(
                pattern,
                kind,
                radii,
                p["envelope"],
                RngStream(cfg.seed),
                correction=correction,
                probe_spec=probe,
                threads=cfg.threads,
            )
            io.write_curve_csv(
                session.path(f"{kind}.csv"), env.radii, env.observed, env.lower, env.upper
            )
        else:
            if kind == "g":
                curve = g_function(pattern, radii)
            elif kind == "f":
                curve = f_function(pattern, probe, radii)
            else:
                curve = ripleys_k(pattern, radii, correction=correction)
            io.write_curve_csv(session.path(f"{kind}.csv"), radii, curve)
        return

    if kind == "nni":
        io.write_table(session.path("nni.csv"), "statistic,value", [
            ["nni", "mean_min_distance", "intensity"],
            [nni(pattern), mean_min_distance(pattern), pattern.intensity],
        ])
        return

    spec = GridSpec(region, p["nx"], p["ny"])
    if kind == "quadrat":
        res = quadrat_counts(pattern, spec)
        io.write_grid_csv(session.path("quadrat.csv"), spec, res.grid.values)
        io.write_table(session.path("quadrat_test.csv"), "statistic,value", [
            ["chi_square", "dof", "p_value"],
            [res.statistic, res.dof, res.p_value],
        ])
        return

    rows = dispersion_by_block(pattern, spec, p["blocks"])
    io.write_table(session.path("dispersion.csv"), "block_size,index", list(zip(*rows)))


def _cmd_detect(cfg: RunConfig, session: _Session) -> None:
    p = cfg.params
    if cfg.subcommand == "gistar":
        pattern = _load_pattern(p)
        spec = GridSpec(pattern.region, p["nx"], p["ny"])
        zgrid = gi_star(aggregate_to_grid(pattern, spec), p["radius"])
        io.write_grid_csv(session.path("gistar.csv"), spec, zgrid.values, "z")
        return

    if p.get("top") is not None and p["top"] < 1:
        raise ParameterError(f"--top must be positive, got {p['top']}")
    region = Region(*p["region"])
    events = SpaceTimeEvents(_read_input(p, with_times=True), region, p["horizon"])
    spec = GridSpec(region, p["nx"], p["ny"])
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
        RngStream(cfg.seed),
        baseline=baseline,
        threads=cfg.threads,
    )
    io.write_scan_csv(session.path("scan.csv"), results, top=p.get("top"))


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
        cfg = _config_from_args(args)
    except _USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    outdir = Path(args.out) if args.out is not None else Path(".")
    session = _Session(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        _DISPATCH[cfg.command](cfg, session)
        session.path("manifest.json").write_text(
            json.dumps(cfg.manifest(), indent=2, sort_keys=True) + "\n"
        )
    except (*_USER_ERRORS, OSError) as e:
        session.rollback()
        print(f"error: {e}", file=sys.stderr)
        return 1
    for p in session.written:
        print(f"wrote {p}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
