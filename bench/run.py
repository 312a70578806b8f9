#!/usr/bin/env python3
"""pointproc benchmark: real CLI runs, end to end and per layer.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all             # all workloads, every metric by name and unit
    python3 bench/run.py --all --trace 1   # the traced run: per-layer metrics

Run from the repository root.  A process makes its inputs from --seed,
then calls ``pointproc.cli.main(argv)`` in-process, one closed-loop
client, one pass of the workload's command list after another.  Every
pass is checked; a pass with a non-zero exit, a wrong output or a broken
invariant is a failed operation.  After timing, one manifest is replayed
and its outputs must be byte-identical.

--trace 0 reports the end-to-end metrics.  The timed passes run in
WORKERS fresh processes, one after another, each for its share of
--seconds (all of them together at least MIN_PASSES passes): one
process's memory layout then weighs less in the medians, and each
worker's start is a set-up time.  --trace 1 reports the per-layer
metrics in this process: it wraps the package's layer boundaries (see
layers.py) and alternates untraced and traced passes.  The last line of
standard output is the result: {"correct", "attempted", "failed",
"metrics"}.  The full report, with provenance, goes to .bench_out/ and,
with --all, to the screen.
"""

from __future__ import annotations

import os

# One client and no extra threads.  numpy's OpenBLAS would start a thread per
# core, and then every matrix product of the scan waits on whatever else runs
# on the other core.  This must be set before numpy loads; worker processes
# inherit it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import layers
import spec
from workloads import PARTS, WORK_UNIT, WORKLOADS, Prepared, Workload, check_outputs

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MIN_PASSES = 11  # the tail percentile needs ten passes beyond it
WORKERS = 3  # timed processes per end-to-end run; set-up is their median start
WORKER_SLACK_S = 30  # a worker may overrun its share of --seconds by this much


def import_pointproc():
    """The package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pointproc.cli
    except ImportError as e:
        sys.exit(f"error: cannot import pointproc from {src}: {e}")
    if src.resolve() not in Path(pointproc.__file__).resolve().parents:
        sys.exit(f"error: pointproc was imported from {pointproc.__file__}, not {src}")
    return pointproc


class Runner:
    """One workload's inputs in the current directory, and its passes."""

    def __init__(self, pp, workload: Workload, seed: int, tiny: bool):
        self.pp, self.workload, self.seed = pp, workload, seed
        inputs = Path("inputs") / workload.name
        inputs.mkdir(parents=True, exist_ok=True)
        self.prep: Prepared = workload.prepare(seed, inputs, tiny)
        self.outdirs = [Path("out") / workload.name / str(j) for j in range(len(self.prep.commands))]

    def run_pass(self, i: int, rec: layers.Recorder | None = None, extra=()):
        """Pass i: every command with --seed seed+i.  Returns (seconds, work, errors)."""
        shutil.rmtree(Path("out") / self.workload.name, ignore_errors=True)
        errors = []
        t0 = perf_counter()
        for cmd, outdir in zip(self.prep.commands, self.outdirs):
            argv = [*cmd.argv, "--seed", str(self.seed + i), "--out", str(outdir), *extra]
            if rec is None:
                code, err = cli_call(self.pp, argv)
            else:
                code, err = rec.call("cli", cli_call, self.pp, argv)
            if code != 0:
                errors.append(f"exit {code}: {' '.join(argv[:2])}: {err.strip()[-300:]}")
        seconds = perf_counter() - t0
        if errors:
            return seconds, 0.0, errors
        for cmd, outdir in zip(self.prep.commands, self.outdirs):
            errors += check_outputs(cmd, outdir)
        if not errors:
            errors = self.workload.check(self.prep, self.outdirs)
        work = 0.0 if errors else self.workload.work(self.prep, self.outdirs)
        return seconds, work, errors

    def output_hashes(self) -> dict[str, dict[str, str]]:
        return {
            f"{j} {' '.join(cmd.argv[:2])}": {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(outdir.iterdir())
            }
            for j, (cmd, outdir) in enumerate(zip(self.prep.commands, self.outdirs))
        }

    def replay(self) -> list[str]:
        """Replay the first command's manifest; its outputs must not change."""
        outdir = self.outdirs[0]
        again = Path("replay") / self.workload.name
        shutil.rmtree(again, ignore_errors=True)
        code, err = cli_call(self.pp, ["--manifest", str(outdir / "manifest.json"),
                                       "--out", str(again)])
        if code != 0:
            return [f"replay exit {code}: {err.strip()[-300:]}"]
        names = sorted(p.name for p in outdir.iterdir())
        if names != sorted(p.name for p in again.iterdir()):
            return [f"replay wrote {sorted(p.name for p in again.iterdir())}, first run {names}"]
        return [f"replay: {n} differs" for n in names
                if (outdir / n).read_bytes() != (again / n).read_bytes()]


def cli_call(pp, argv) -> tuple[int, str]:
    """One in-process CLI invocation; its chatter is kept off our stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = pp.cli.main(argv)
    except SystemExit as e:  # argparse errors exit 2
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a traceback is a failed operation, not a dead benchmark
        code, err = 1, io.StringIO(f"{type(e).__name__}: {e}")
    return code, err.getvalue()


class Tally:
    def __init__(self):
        self.attempted, self.failed, self.errors = 0, 0, []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += errors[:3]


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten passes beyond it, and its rank."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_passes(runner: Runner, seconds: float, first: int, min_passes: int, tally: Tally):
    """Untraced passes first, first+1, ... until `seconds` are spent (a pass
    that would mostly run past them is not started) and `min_passes` were
    made.  Returns pass times, work rates and the output hashes of pass 0
    (None when this worker does not make pass 0).

    There is no warm-up pass: every CLI user pays the first call's costs,
    and the median and the tail both shrug off one slow pass.
    """
    times, rates, hashes = [], [], None
    start = perf_counter()
    while len(times) < min_passes or perf_counter() - start + times[-1] / 2 < seconds:
        t, work, errors = runner.run_pass(first + len(times))
        tally.add(errors)
        if first + len(times) == 0:
            hashes = runner.output_hashes()
        times.append(t)
        if not errors:
            rates.append(work / t)
    return times, rates, hashes


def worker(args, pp) -> None:
    """One timed process: set up, say "ready", time passes, maybe replay,
    then print what it measured as one JSON line."""
    runner = Runner(pp, WORKLOADS[args.workload], args.seed, args.tiny)
    print("ready", flush=True)
    tally = Tally()
    times, rates, hashes = timed_passes(runner, args.seconds, args.first, args.min_passes, tally)
    replay_errors = runner.replay() if args.replay else None
    print(json.dumps({
        "times": times, "rates": rates, "output_sha256": hashes, "replay_errors": replay_errors,
        "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
        # this process ran only this workload; ru_maxrss is in KiB on Linux
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))


def run_worker(args, k: int, first: int, share: float) -> tuple[float, dict | None, str]:
    """Start worker k and wait for it: (set-up seconds, its result or None, error)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(share),
           "--first", str(first), "--min-passes", str(-(-MIN_PASSES // WORKERS))]
    cmd += ["--replay"] * (k == WORKERS - 1) + ["--tiny"] * args.tiny
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)
    ready = proc.stdout.readline()
    setup = perf_counter() - t0
    try:
        out, err = proc.communicate(timeout=share + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        return setup, None, f"worker {k} failed ({proc.returncode}): {err.strip()[-300:]}"
    return setup, json.loads(out.strip().splitlines()[-1]), ""


def end_to_end(args, tally: Tally, report: dict) -> tuple[dict, list[str]]:
    share = args.seconds / WORKERS
    setups, times, rates, rss, replay_errors = [], [], [], [], ["no replay: the last worker failed"]
    for k in range(WORKERS):
        setup, res, error = run_worker(args, k, len(times), share)
        setups.append(setup)
        if res is None:
            tally.add([error])
            continue
        tally.attempted += res["attempted"]
        tally.failed += res["failed"]
        tally.errors += res["errors"]
        times += res["times"]
        rates += res["rates"]
        rss.append(res["peak_rss_mib"])
        if res["output_sha256"] is not None:
            report["provenance"]["output_sha256"] = res["output_sha256"]
        if res["replay_errors"] is not None:
            replay_errors = res["replay_errors"]
    if not times:
        sys.exit(f"error: every worker failed: {tally.errors}")
    tail_s, tail_pct = tail(times) if len(times) >= MIN_PASSES else (max(times), 100.0)
    report["latency_tail"] = {"percentile": tail_pct, "samples": len(times)}
    report["pass_times_s"] = times
    report["setup_times_s"] = setups
    return {
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": tail_s,
        "work_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mib": max(rss),
        "setup_s": statistics.median(setups),
    }, replay_errors


def traced_pass(runner: Runner, i: int, tally: Tally):
    rec = layers.Recorder()
    patches = layers.install(rec, runner.pp)
    try:
        t, _, errors = runner.run_pass(i, rec)
    finally:
        layers.uninstall(patches)
    tally.add(errors)
    return t, rec


def thread_speedup(runner: Runner, fn, tally: Tally) -> float | None:
    """threads=1 time over threads=2 time; None once the keyword is gone."""
    if "threads" not in inspect.signature(fn).parameters:
        return None
    seconds = {}
    for threads in (1, 2):
        seconds[threads], _, errors = runner.run_pass(0, extra=("--threads", str(threads)))
        tally.add(errors)
    return seconds[1] / seconds[2]


def scan_peak_alloc(runner: Runner, tally: Tally) -> float:
    """tracemalloc peak above the starting level during each scan call, in MiB.

    0 for a workload with no scan command: tracing every allocation makes a
    pass about ten times slower, so only a pass that can show a peak is run.
    """
    if not any(cmd.argv[:2] == ["detect", "scan"] for cmd in runner.prep.commands):
        return 0.0
    cli = runner.pp.cli
    scan, peaks = cli.space_time_scan, []

    def measured(*a, **kw):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return scan(*a, **kw)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)

    cli.space_time_scan = measured
    tracemalloc.start()
    try:
        _, _, errors = runner.run_pass(0)
    finally:
        tracemalloc.stop()
        cli.space_time_scan = scan
    tally.add(errors)
    return max(peaks, default=0.0)


def per_layer(args, pp, runner: Runner, tally: Tally, report: dict) -> dict:
    """Per-layer metrics, each taken on its home part (spec.PER_LAYER).

    A warm-up pass of the workload, one traced pass of each part outside
    it, the probes, then untraced passes of the workload alternate with
    traced passes of its parts until --seconds have passed (at least 3
    rounds)."""
    parts = {name: Runner(pp, part, args.seed, args.tiny) for name, part in PARTS.items()}
    mine = [part.name for part in runner.workload.parts]
    _, _, errors = runner.run_pass(0)  # warm-up
    tally.add(errors)
    report["provenance"]["output_sha256"] = runner.output_hashes()
    start = perf_counter()
    by_home, spans, last = {}, {}, {}
    for name, part in parts.items():
        if name not in mine:
            _, last[name] = traced_pass(part, 0, tally)
            by_home[name] = layers.layer_metrics(last[name])
            spans[name] = [last[name].spans]
    metrics = {"detect.scan.peak_alloc_mib": scan_peak_alloc(runner, tally)}
    absent = []
    for name, home, fn in (("detect.scan.threads2_speedup", "scan", pp.detect.space_time_scan),
                           ("spatial.envelope.threads2_speedup", "envelope", pp.spatial.csr_envelope)):
        speedup = thread_speedup(parts[home], fn, tally)
        if speedup is None:
            absent.append(name)
        else:
            metrics[name] = speedup
    plain, traced, rounds = [], [], []
    i = 1
    while perf_counter() - start < args.seconds or len(traced) < 3:
        t, _, errors = runner.run_pass(i)
        tally.add(errors)
        plain.append(t)
        recs = {name: traced_pass(parts[name], i + 1, tally) for name in mine}
        traced.append(sum(t for t, _ in recs.values()))
        rounds.append({name: layers.layer_metrics(rec) for name, (_, rec) in recs.items()})
        for name, (_, last[name]) in recs.items():
            spans.setdefault(name, []).append(last[name].spans)
        i += 2
    for name in mine:
        by_home[name] = {k: statistics.median(r[name][k] for r in rounds) for k in rounds[0][name]}
    for name, _, _, home in spec.PER_LAYER:
        if home is not None and name in by_home[home]:
            metrics[name] = by_home[home][name]
    metrics["cli.self_s"] = statistics.median(
        sum(r[name]["cli.self_s"] for name in mine) for r in rounds)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    report.update({
        "absent": absent,
        "untraced_pass_s": plain,
        "traced_pass_s": traced,
        "self_s": {name: layers.self_times(rec) for name, rec in last.items()},
        "counts": {name: dict(rec.counts) for name, rec in last.items()},
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(
        json.dumps({"fields": ["name", "start", "end", "parent"], "passes": spans}))
    return metrics


def provenance(pp, seed: int) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pointproc": pp.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "src_lines": src_lines,
        "seed": seed,
    }


def run(args, pp) -> None:
    report = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(pp, args.seed),
              "work_unit": WORK_UNIT[args.workload]}
    tally = Tally()
    if args.trace:
        runner = Runner(pp, WORKLOADS[args.workload], args.seed, args.tiny)
        metrics = per_layer(args, pp, runner, tally, report)
        replay_errors = runner.replay()
    else:
        metrics, replay_errors = end_to_end(args, tally, report)
    tally.add(replay_errors)
    report.update(attempted=tally.attempted, failed=tally.failed,
                  fail_ratio=tally.failed / tally.attempted, errors=tally.errors,
                  replay_identical=not replay_errors,
                  metrics={k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()})
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    for e in tally.errors:
        print(f"error: {e}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": report["metrics"]}))


def run_all(args) -> int:
    """Every workload in its own process; prints each metric by name with its unit."""
    spec.write_benchmark_json(ROOT)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + ["--tiny"] * args.tiny
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        report = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        rows = [(k, m["value"], m["unit"]) for k, m in report["metrics"].items()]
        rows.append(("fail_ratio", report["fail_ratio"], "ratio"))
        for k, value, unit in rows:
            print(f"{name:9s} {k:36s} {value:14.6g} {unit}")
        if "latency_tail" in report:
            t = report["latency_tail"]
            print(f"{name:9s} {'(latency_tail_s is the percentile':36s} {t['percentile']:14.4g}"
                  f" of {t['samples']} passes)")
        for k in report.get("absent", []):
            print(f"{name:9s} {k:36s} {'absent':>14s}")
        status |= report["failed"] > 0
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload, print every metric")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--first", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--min-passes", type=int, default=MIN_PASSES, help=argparse.SUPPRESS)
    p.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("--workload or --all is required")
    pp = import_pointproc()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)  # relative paths keep manifests, and so their hashes, checkout-independent
    try:
        if args.worker:
            worker(args, pp)
        else:
            run(args, pp)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
