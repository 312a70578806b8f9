import contextlib
import copy
import io
import json
import hashlib
import os
import platform
import shutil
import string
import subprocess
import sys
import tempfile
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import pointproc
from pointproc import (
    GridSpec,
    Region,
    RngStream,
    SpatialPattern,
    detect,
    f_function,
    g_function,
    ripleys_k,
    simulate_hpp,
    spatial,
)
from pointproc.cli import main
from pointproc.io import read_event_times, read_points_csv


def run(*argv):
    return main([str(a) for a in argv])


def run_code(*argv):
    """main's exit code, whether returned or raised as SystemExit by argparse."""
    try:
        return run(*argv)
    except SystemExit as e:
        return e.code


def child_env():
    """Environment whose PYTHONPATH puts the imported pointproc first."""
    pkg_parent = str(Path(pointproc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p
    )
    return env


def read_bytes_map(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def write_pattern(tmp_path, seed=0, n=120, name="pts.csv"):
    g = np.random.default_rng(seed)
    lines = ["x,y"] + [f"{x},{y}" for x, y in g.random((n, 2))]
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def write_space_time(tmp_path, seed=0, n=80, name="events.csv"):
    g = np.random.default_rng(seed)
    rows = np.column_stack([g.random(n), g.random(n), g.random(n)])
    lines = ["x,y,t"] + [f"{x},{y},{t}" for x, y, t in rows]
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


class TestSimulate:
    def test_hpp_writes_events_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert run("--seed", 3, "--out", out, "simulate", "hpp",
                   "--rate", 2.0, "--horizon", 50.0) == 0
        got = read_event_times(out / "events.csv", horizon=50.0)
        want = simulate_hpp(2.0, 50.0, RngStream(3))
        assert np.array_equal(got.times, want.times)
        doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert doc["command"] == "simulate"
        assert doc["subcommand"] == "hpp"
        assert doc["seed"] == 3
        assert doc["params"]["rate"] == 2.0

    def test_seed_flag_after_subcommand(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("--seed", 7, "--out", a, "simulate", "hpp", "--rate", 1.0, "--horizon", 20.0)
        run("simulate", "hpp", "--rate", 1.0, "--horizon", 20.0, "--seed", 7, "--out", b)
        assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()

    def test_nhpp_piecewise(self, tmp_path):
        out = tmp_path / "run"
        code = run("--seed", 1, "--out", out, "simulate", "nhpp",
                   "--intensity", "piecewise", "--horizon", 10.0,
                   "--segments", "0:5:2,5:10:6")
        assert code == 0
        ev = read_event_times(out / "events.csv", horizon=10.0)
        assert np.all(ev.times <= 10.0)

    def test_nhpp_sinusoid(self, tmp_path):
        out = tmp_path / "run"
        assert run("--seed", 1, "--out", out, "simulate", "nhpp",
                   "--intensity", "sinusoid", "--horizon", 48.0,
                   "--base", 3.0, "--amplitude", 2.0, "--period", 24.0) == 0

    @pytest.mark.parametrize("horizon", ["nan", "inf", "-3"])
    @pytest.mark.parametrize("shape", [
        ["--intensity", "sinusoid", "--base", 3.0, "--amplitude", 2.0, "--period", 24.0],
        ["--intensity", "constant", "--rate", 2.0],
    ], ids=["sinusoid", "constant"])
    def test_nhpp_bad_horizon_names_it(self, tmp_path, capsys, shape, horizon):
        out = tmp_path / "run"
        assert run("--out", out, "simulate", "nhpp", "--horizon", horizon, *shape) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: horizon must be positive and finite")
        assert "Traceback" not in err

    def test_nhpp_backwards_segment_names_it(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("--out", out, "simulate", "nhpp", "--intensity", "piecewise",
                   "--horizon", 1.0, "--segments", "0:1:2,1:0.5:3") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: envelope segment 1 must have t_end > t_start")

    def test_nhpp_sinusoid_too_many_segments(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("--out", out, "simulate", "nhpp", "--intensity", "sinusoid", "--base", 3.0,
                   "--amplitude", 1.0, "--period", "1e-300", "--horizon", 5.0) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: envelope for period 1e-300: segment count")
        assert "Traceback" not in err
        assert not (out / "events.csv").exists()

    @pytest.mark.parametrize("missing", ["base", "amplitude", "period"])
    def test_nhpp_sinusoid_names_a_missing_param(self, tmp_path, capsys, missing):
        shape = {"base": 3.0, "amplitude": 2.0, "period": 24.0}
        del shape[missing]
        out = tmp_path / "run"
        assert run("--out", out, "simulate", "nhpp", "--intensity", "sinusoid", "--horizon", 48.0,
                   *(f"--{k}={v}" for k, v in shape.items())) == 1
        assert capsys.readouterr().err == f"error: sinusoid intensity needs --{missing}\n"
        assert list(out.iterdir()) == []

    def test_nhpp_missing_params_fails_cleanly(self, tmp_path):
        out = tmp_path / "run"
        assert run("--out", out, "simulate", "nhpp",
                   "--intensity", "constant", "--horizon", 10.0) == 1
        assert not (out / "events.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_hawkes_manifest_reports_regime(self, tmp_path):
        out = tmp_path / "run"
        assert run("--seed", 2, "--out", out, "simulate", "hawkes",
                   "--mu", 1.0, "--alpha", 0.5, "--beta", 1.0,
                   "--horizon", 100.0) == 0
        doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert doc["derived"]["n_star"] == 0.5
        assert doc["derived"]["regime"] == "subcritical"

    @pytest.mark.filterwarnings("default:branching factor")
    def test_hawkes_intensity_overflow(self, tmp_path, capsys):
        # each accepted event adds 1e308, so the second one overflows the intensity
        out = tmp_path / "run"
        assert run("--out", out, "simulate", "hawkes", "--mu", 1, "--alpha", 1e308,
                   "--beta", 1, "--horizon", 10) == 1
        err = capsys.readouterr().err
        assert "error: the conditional intensity overflows at t = " in err
        assert "rate must be" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("default:branching factor")
    def test_library_warning_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("--seed", 2, "--out", out, "simulate", "hawkes", "--mu", 0.1,
                   "--alpha", 1.2, "--beta", 1, "--horizon", 5) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: branching factor 1.2 >= 1 (supercritical)")
        assert len(err.splitlines()) == 1 and "cli.py" not in err
        assert sorted(p.name for p in out.iterdir()) == ["events.csv", "manifest.json"]

    def test_warning_as_error_is_an_error_line(self, tmp_path):
        # the interpreter's -W error, not pytest's filter, turns the warning into an error
        out = tmp_path / "run"
        res = subprocess.run(
            [sys.executable, "-W", "error", "-m", "pointproc.cli", "simulate", "hawkes",
             "--mu", "0.1", "--alpha", "1.2", "--beta", "1", "--horizon", "5", "--out", str(out)],
            capture_output=True, encoding="utf-8", env=child_env(), timeout=120,
        )
        assert res.returncode == 1
        assert res.stderr.startswith("error: branching factor 1.2 >= 1 (supercritical)")
        assert len(res.stderr.splitlines()) == 1 and "Traceback" not in res.stderr
        assert list(out.iterdir()) == []

    def test_csr_writes_points(self, tmp_path):
        out = tmp_path / "run"
        assert run("--seed", 4, "--out", out, "simulate", "csr",
                   "--rate", 100.0, "--region", "0,1,0,1") == 0
        pts = read_points_csv(out / "points.csv")
        assert pts.shape[1] == 2
        assert np.all((pts >= 0) & (pts <= 1))

    def test_csr_mean_too_large_for_an_array(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("--out", out, "simulate", "csr", "--rate", 1e20, "--region", "0,1,0,1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CSR pattern of mean size 1e+20 x 2 is too large")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


class TestAnalyze:
    def test_kde(self, tmp_path):
        src = write_pattern(tmp_path)
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "kde", "--in", src,
                   "--region", "0,1,0,1", "--nx", 5, "--ny", 5,
                   "--bandwidth", 0.1) == 0
        lines = (out / "kde.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cell_x,cell_y,value"
        assert len(lines) == 26

    def test_kde_empty_input_gives_zero_surface(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("x,y\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "kde", "--in", src,
                   "--region", "0,1,0,1", "--nx", 3, "--ny", 3,
                   "--bandwidth", 0.1) == 0
        lines = (out / "kde.csv").read_text(encoding="utf-8").splitlines()
        vals = [float(l.split(",")[2]) for l in lines[1:]]
        assert vals == [0.0] * 9

    def test_g_plain_and_with_envelope(self, tmp_path):
        src = write_pattern(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run("--out", out1, "analyze", "g", "--in", src,
                   "--region", "0,1,0,1", "--radii", "0.02,0.05,0.1") == 0
        assert (out1 / "g.csv").read_text(encoding="utf-8").splitlines()[0] == "r,observed"
        assert run("--seed", 9, "--out", out2, "analyze", "g", "--in", src,
                   "--region", "0,1,0,1", "--radii", "0.02,0.05,0.1",
                   "--envelope", 19) == 0
        lines = (out2 / "g.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "r,observed,lower,upper"
        assert len(lines) == 4

    @pytest.mark.parametrize("envelope", [(), ("--envelope", 19)], ids=["plain", "envelope"])
    def test_k_radius_whose_square_overflows(self, tmp_path, envelope):
        src = write_pattern(tmp_path)
        out = tmp_path / "run"
        assert run("--seed", 9, "--out", out, "analyze", "k", "--in", src,
                   "--region", "0,1,0,1", "--radii", "0.1,1e308", *envelope) == 0
        last = (out / "k.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
        assert float(last[1]) == 119 / 120  # (n - 1) / lambda, 120 points on the unit square

    def test_f_requires_probe_grid(self, tmp_path):
        src = write_pattern(tmp_path)
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "f", "--in", src,
                   "--region", "0,1,0,1", "--radii", "0.05,0.1",
                   "--probe-nx", 10, "--probe-ny", 10) == 0
        assert (out / "f.csv").exists()

    def test_k_border_correction(self, tmp_path):
        src = write_pattern(tmp_path)
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "k", "--in", src,
                   "--region", "0,1,0,1", "--radii", "0.05,0.1",
                   "--correction", "border") == 0
        doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert doc["params"]["correction"] == "border"

    def test_nni_coincident_points_is_zero(self, tmp_path):
        src = tmp_path / "dup.csv"
        src.write_text("x,y\n0.5,0.5\n0.5,0.5\n0.5,0.5\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "nni", "--in", src,
                   "--region", "0,1,0,1") == 0
        rows = dict(
            l.split(",") for l in (out / "nni.csv").read_text(encoding="utf-8").splitlines()[1:]
        )
        assert float(rows["nni"]) == 0.0
        assert float(rows["mean_min_distance"]) == 0.0

    def test_nni_queries_the_tree_once(self, tmp_path, monkeypatch):
        src = write_pattern(tmp_path)
        calls = []
        nearest = spatial._nearest

        def spy(*args):
            calls.append(args)
            return nearest(*args)

        monkeypatch.setattr(spatial, "_nearest", spy)
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "nni", "--in", src, "--region", "0,1,0,1") == 0
        assert len(calls) == 1
        rows = dict(
            l.split(",") for l in (out / "nni.csv").read_text(encoding="utf-8").splitlines()[1:]
        )
        pattern = SpatialPattern(read_points_csv(src), Region(0, 1, 0, 1))
        assert float(rows["nni"]) == spatial.nni(pattern)
        assert float(rows["mean_min_distance"]) == spatial.mean_min_distance(pattern)

    @pytest.mark.parametrize("kind, flags, curve", [
        ("g", [], g_function),
        ("f", ["--probe-nx", 6, "--probe-ny", 5],
         lambda pat, radii: f_function(pat, GridSpec(pat.region, 6, 5), radii)),
        ("k", [], ripleys_k),
        ("k", ["--correction", "border"],
         lambda pat, radii: ripleys_k(pat, radii, correction="border")),
    ], ids=["g", "f", "k", "k-border"])
    def test_plain_and_envelope_observed_are_the_library_curve(self, tmp_path, kind, flags,
                                                               curve):
        src = write_pattern(tmp_path)
        argv = ["analyze", kind, "--in", src, "--region", "0,1,0,1",
                "--radii", "0.02,0.05,0.1", *flags]
        observed = {}
        for name, envelope in (("plain", []), ("envelope", ["--envelope", 19])):
            assert run("--seed", 3, "--out", tmp_path / name, *argv, *envelope) == 0
            lines = (tmp_path / name / f"{kind}.csv").read_text(encoding="utf-8").splitlines()
            observed[name] = [float(l.split(",")[1]) for l in lines[1:]]
        want = curve(SpatialPattern(read_points_csv(src), Region(0, 1, 0, 1)), [0.02, 0.05, 0.1])
        assert observed["plain"] == observed["envelope"] == want.tolist()

    def test_quadrat_outputs(self, tmp_path):
        src = write_pattern(tmp_path)
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "quadrat", "--in", src,
                   "--region", "0,1,0,1", "--nx", 4, "--ny", 4) == 0
        test_rows = dict(
            l.split(",")
            for l in (out / "quadrat_test.csv").read_text(encoding="utf-8").splitlines()[1:]
        )
        assert int(test_rows["dof"]) == 15
        assert 0.0 <= float(test_rows["p_value"]) <= 1.0
        lines = (out / "quadrat.csv").read_text(encoding="utf-8").splitlines()
        counts = [int(l.split(",")[2]) for l in lines[1:]]
        assert sum(counts) == 120

    def test_dispersion(self, tmp_path):
        src = write_pattern(tmp_path)
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "dispersion", "--in", src,
                   "--region", "0,1,0,1", "--nx", 8, "--ny", 8,
                   "--blocks", "1,2") == 0
        lines = (out / "dispersion.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "block_size,index"
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "2"]

    def test_geojson_input(self, tmp_path):
        fc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": [0.2 + 0.1 * i, 0.5]},
                    "properties": {},
                }
                for i in range(5)
            ],
        }
        src = tmp_path / "pts.geojson"
        src.write_text(json.dumps(fc), encoding="utf-8")
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "nni", "--in", src,
                   "--region", "0,1,0,1") == 0

    def test_point_outside_region_fails(self, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("x,y\n2.0,0.5\n0.1,0.1\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "nni", "--in", src,
                   "--region", "0,1,0,1") == 1

    def test_malformed_csv_reports_file_and_line(self, tmp_path, capsys):
        src = tmp_path / "pts.csv"
        src.write_text("x,y\n0.5,0.5\nnope,0.2\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("--out", out, "analyze", "nni", "--in", src,
                   "--region", "0,1,0,1") == 1
        err = capsys.readouterr().err
        assert "pts.csv:3" in err


class TestDetect:
    def test_scan_bytes_ignore_blas_and_worker_threads(self, tmp_path):
        # one child process per BLAS setting (threads unset: OpenBLAS takes the
        # core count; a core type picks OpenBLAS's kernels, and other BLAS
        # libraries ignore it), each writing scan.csv at --threads 1 and 2
        src = write_space_time(tmp_path, n=1500)
        argv = ["--seed", "3", "detect", "scan", "--in", str(src), "--region", "0,1,0,1",
                "--horizon", "1", "--nx", "17", "--ny", "23", "--slices", "20",
                "--radii", "0.05,0.1,0.15", "--durations", "0.1,0.2,0.4", "--nsim", "99"]
        outs = []
        for blas, core in (("1", None), ("2", None), (None, None),
                           (None, "Haswell"), (None, "Prescott")):
            env = child_env()
            for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                        "OPENBLAS_CORETYPE"):
                env.pop(var, None)
            if blas is not None:
                env["OPENBLAS_NUM_THREADS"] = blas
            if core is not None:
                env["OPENBLAS_CORETYPE"] = core
            calls = []
            for threads in ("1", "2"):
                outs.append(tmp_path / f"blas{blas}-{core}-threads{threads}")
                calls.append([*argv, "--threads", threads, "--out", str(outs[-1])])
            code = f"from pointproc.cli import main\nfor a in {calls!r}:\n    assert main(a) == 0"
            res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 encoding="utf-8", timeout=120)
            assert res.returncode == 0, res.stderr
        digests = {hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest() for out in outs}
        assert len(digests) == 1

    def test_gistar(self, tmp_path):
        src = write_pattern(tmp_path, n=200)
        out = tmp_path / "run"
        assert run("--out", out, "detect", "gistar", "--in", src,
                   "--region", "0,1,0,1", "--nx", 5, "--ny", 5,
                   "--radius", 0.25) == 0
        lines = (out / "gistar.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cell_x,cell_y,z"
        assert len(lines) == 26

    def test_gistar_one_cell_is_degenerate(self, tmp_path, capsys):
        src = write_pattern(tmp_path, n=20)
        out = tmp_path / "run"
        assert run("--out", out, "detect", "gistar", "--in", src, "--region", "0,1,0,1",
                   "--nx", 1, "--ny", 1, "--radius", 0.25) == 1
        assert capsys.readouterr().err == "error: GI* is undefined when every cell count is equal\n"
        assert list(out.iterdir()) == []

    def test_scan(self, tmp_path):
        src = write_space_time(tmp_path)
        out = tmp_path / "run"
        assert run("--seed", 5, "--out", out, "detect", "scan", "--in", src,
                   "--region", "0,1,0,1", "--horizon", 1.0,
                   "--nx", 5, "--ny", 5, "--slices", 5,
                   "--radii", "0.15,0.3", "--durations", "0.2,0.4",
                   "--nsim", 99) == 0
        lines = (out / "scan.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("cx,cy,radius")
        llrs = [float(l.split(",")[7]) for l in lines[1:]]
        assert llrs == sorted(llrs, reverse=True)

    def test_scan_duration_past_the_horizon(self, tmp_path):
        src = write_space_time(tmp_path)
        scans = []
        for dur in ("1e308", "1"):
            out = tmp_path / dur
            assert run("--seed", 5, "--out", out, "detect", "scan", "--in", src,
                       "--region", "0,1,0,1", "--horizon", 1.0,
                       "--nx", 4, "--ny", 4, "--slices", 4,
                       "--radii", "0.3", "--durations", dur, "--nsim", 99) == 0
            scans.append((out / "scan.csv").read_bytes())
        assert scans[0] == scans[1]

    def test_scan_top_truncates(self, tmp_path):
        src = write_space_time(tmp_path)
        out = tmp_path / "run"
        assert run("--seed", 5, "--out", out, "detect", "scan", "--in", src,
                   "--region", "0,1,0,1", "--horizon", 1.0,
                   "--nx", 5, "--ny", 5, "--slices", 5,
                   "--radii", "0.15,0.3", "--durations", "0.2,0.4",
                   "--nsim", 99, "--top", 3) == 0
        assert len((out / "scan.csv").read_text(encoding="utf-8").splitlines()) == 4

    @pytest.mark.parametrize("replay", [False, True], ids=["argv", "manifest"])
    def test_scan_bad_top_rejected_before_scanning(self, tmp_path, monkeypatch, capsys, replay):
        src = write_space_time(tmp_path)
        argv = ["detect", "scan", "--in", src, "--region", "0,1,0,1", "--horizon", 1.0,
                "--nx", 4, "--ny", 4, "--slices", 4,
                "--radii", "0.2", "--durations", "0.3", "--nsim", 99]
        if replay:
            assert run("--seed", 5, "--out", tmp_path / "a", *argv, "--top", 3) == 0
            manifest = tmp_path / "a" / "manifest.json"
            doc = json.loads(manifest.read_text(encoding="utf-8"))
            doc["params"]["top"] = 0
            manifest.write_text(json.dumps(doc), encoding="utf-8")
            argv = ["--manifest", manifest]
        else:
            argv = [*argv, "--top", 0]

        def no_scan(*args, **kwargs):
            raise AssertionError("space_time_scan ran before --top was checked")

        monkeypatch.setattr("pointproc.cli.space_time_scan", no_scan)
        out = tmp_path / "run"
        assert run_code("--out", out, *argv) == 2
        assert "argument --top: expected an integer >= 1, got '0'" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_low_nsim_fails_and_cleans_up(self, tmp_path):
        src = write_space_time(tmp_path)
        out = tmp_path / "run"
        assert run_code("--out", out, "detect", "scan", "--in", src,
                        "--region", "0,1,0,1", "--horizon", 1.0,
                        "--nx", 5, "--ny", 5, "--slices", 5,
                        "--radii", "0.15", "--durations", "0.2",
                        "--nsim", 98) == 2
        assert not (out / "scan.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_scan_geojson_needs_time(self, tmp_path):
        fc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "geometry": {"type": "Point", "coordinates": [0.5, 0.5]},
                    "properties": {},
                }
            ],
        }
        src = tmp_path / "ev.geojson"
        src.write_text(json.dumps(fc), encoding="utf-8")
        out = tmp_path / "run"
        assert run("--out", out, "detect", "scan", "--in", src,
                   "--region", "0,1,0,1", "--horizon", 1.0,
                   "--nx", 3, "--ny", 3, "--slices", 3,
                   "--radii", "0.2", "--durations", "0.4",
                   "--nsim", 99) == 1

    def test_scan_geojson_matches_csv(self, tmp_path):
        src = write_space_time(tmp_path)
        rows = np.loadtxt(src, delimiter=",", skiprows=1, encoding="utf-8")
        features = [{"type": "Feature", "geometry": {"type": "Point", "coordinates": [x, y]},
                     "properties": {"t": t}} for x, y, t in rows.tolist()]
        geo = tmp_path / "ev.geojson"
        geo.write_bytes(feature_collection(features))
        scans = []
        for name, events in (("csv", src), ("geojson", geo)):
            out = tmp_path / name
            assert run("--seed", 5, "--out", out, "detect", "scan", "--in", events,
                       "--region", "0,1,0,1", "--horizon", 1.0, "--nx", 3, "--ny", 3,
                       "--slices", 3, "--radii", "0.2", "--durations", "0.4",
                       "--nsim", 99) == 0
            scans.append((out / "scan.csv").read_bytes())
        assert scans[0] == scans[1]

    def test_scan_with_baseline_files(self, tmp_path):
        src = write_space_time(tmp_path)
        bases = []
        for s in range(3):
            b = tmp_path / f"base{s}.csv"
            lines = ["cell_x,cell_y,value"]
            lines += [f"{i},{j},2" for i in range(3) for j in range(3)]
            b.write_text("\n".join(lines) + "\n", encoding="utf-8")
            bases.append(str(b))
        out = tmp_path / "run"
        assert run("--seed", 1, "--out", out, "detect", "scan", "--in", src,
                   "--region", "0,1,0,1", "--horizon", 1.0,
                   "--nx", 3, "--ny", 3, "--slices", 3,
                   "--radii", "0.2", "--durations", "0.4",
                   "--nsim", 99, "--baseline", ",".join(bases)) == 0
        assert (out / "scan.csv").exists()


def feature_collection(features) -> bytes:
    return json.dumps({"type": "FeatureCollection", "features": features}).encode()


POINT = {"type": "Feature", "properties": {},
         "geometry": {"type": "Point", "coordinates": [0.5, 0.5]}}

# name -> (file name, bytes, what reads it)
BAD_INPUTS = {
    "csv-empty": ("pts.csv", b"", "in"),
    "csv-not-utf8": ("pts.csv", b"x,y\n0.5,0.5\n0.25,\xff\n", "in"),
    "geojson-not-utf8": ("pts.geojson", feature_collection([POINT]) + b"\xff", "in"),
    "features-not-a-list": ("pts.geojson", feature_collection(5), "in"),
    "feature-not-an-object": ("pts.geojson", feature_collection([POINT, 5]), "in"),
    "geometry-not-an-object": ("pts.geojson", feature_collection([{**POINT, "geometry": "Point"}]),
                               "in"),
    "properties-not-an-object": ("pts.geojson", feature_collection([{**POINT, "properties": 5}]),
                                 "in"),
    "coordinate-overflows": ("pts.geojson", feature_collection(
        [{**POINT, "geometry": {"type": "Point", "coordinates": [10**400, 0.5]}}]), "in"),
    "coordinate-a-bool": ("pts.geojson", feature_collection(
        [{**POINT, "geometry": {"type": "Point", "coordinates": [True, 0.5]}}]), "in"),
    "coordinates-one-number": ("pts.geojson", feature_collection(
        [{**POINT, "geometry": {"type": "Point", "coordinates": [0.5]}}]), "in"),
    "coordinates-an-object": ("pts.geojson", feature_collection(
        [{**POINT, "geometry": {"type": "Point", "coordinates": {"x": 0.5, "y": 0.5}}}]), "in"),
    "baseline-nan": ("base.csv", b"cell_x,cell_y,value\n0,0,nan\n", "baseline"),
    "baseline-inf": ("base.csv", b"cell_x,cell_y,value\n0,0,1\n1,1,inf\n", "baseline"),
    "baseline-too-large": ("base.csv", b"cell_x,cell_y,value\n0,0,1e19\n", "baseline"),
    "baseline-not-utf8": ("base.csv", b"cell_x,cell_y,value\n0,0,\xfe\n", "baseline"),
    "baseline-repeated-cell": ("base.csv", b"cell_x,cell_y,value\n0,0,5\n1,1,2\n0,0,3\n",
                               "baseline"),
}


class TestBadInputFiles:
    @pytest.mark.parametrize("name", BAD_INPUTS)
    def test_error_without_traceback(self, tmp_path, capsys, name):
        filename, content, role = BAD_INPUTS[name]
        bad = tmp_path / filename
        bad.write_bytes(content)
        if role == "baseline":
            argv = ["detect", "scan", "--in", write_space_time(tmp_path), "--region", "0,1,0,1",
                    "--horizon", 1.0, "--nx", 2, "--ny", 2, "--slices", 1, "--radii", 0.5,
                    "--durations", 1.0, "--nsim", 99, "--baseline", bad]
        else:
            argv = ["analyze", "nni", "--in", bad, "--region", "0,1,0,1"]
        out = tmp_path / "run"
        assert run("--out", out, *argv) == 1  # an escaping exception fails here
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


# valid regions whose width * height underflows to 0 or overflows to inf
TINY, HUGE = "0,1e-170,0,1e-170", "0,1e200,0,1e200"
BAD_AREAS = {
    "k-area-0": ["analyze", "k", "--region", TINY, "--radii", "1e-171"],
    "nni-area-0": ["analyze", "nni", "--region", TINY],
    "g-envelope-area-0": ["analyze", "g", "--region", TINY, "--radii", "1e-171",
                          "--envelope", 19],
    "k-area-inf": ["analyze", "k", "--region", HUGE, "--radii", "0.1"],
    "nni-area-inf": ["analyze", "nni", "--region", HUGE],
    "csr-area-inf": ["simulate", "csr", "--rate", 1, "--region", HUGE],
}


class TestRegionArea:
    @pytest.mark.parametrize("argv", BAD_AREAS.values(), ids=BAD_AREAS.keys())
    def test_error_without_traceback(self, tmp_path, capsys, argv):
        if argv[0] == "analyze":
            src = tmp_path / "pts.csv"
            src.write_text("x,y\n0,0\n2e-171,3e-171\n5e-171,1e-171\n", encoding="utf-8")
            argv = [*argv[:2], "--in", src, *argv[2:]]
        out = tmp_path / "run"
        assert run("--out", out, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: region area ")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


# a valid region whose width overflows to inf: every grid cell on it is
# infinitely wide, and a point's offset from xmin overflows too
WIDE = "-1e308,1e308,0,1"
INFINITE_CELLS = {
    "quadrat": ["analyze", "quadrat", "--nx", 2, "--ny", 2],
    "dispersion": ["analyze", "dispersion", "--nx", 2, "--ny", 2, "--blocks", 1],
    "kde": ["analyze", "kde", "--nx", 2, "--ny", 2, "--bandwidth", 0.1],
    "f": ["analyze", "f", "--radii", 0.1, "--probe-nx", 2, "--probe-ny", 2],
    "gistar": ["detect", "gistar", "--nx", 2, "--ny", 2, "--radius", 0.5],
    "scan": ["detect", "scan", "--horizon", 1, "--nx", 2, "--ny", 2, "--slices", 1,
             "--radii", 0.5, "--durations", 1, "--nsim", 99],
}


class TestGridCells:
    @pytest.mark.parametrize("argv", INFINITE_CELLS.values(), ids=INFINITE_CELLS.keys())
    def test_infinite_cells_error_without_traceback(self, tmp_path, capsys, argv):
        src = tmp_path / "in.csv"
        rows = [(0, 0, 0.1), (-9e307, 0.5, 0.2), (9e307, 0.3, 0.5), (0.5, 0.9, 0.7)]
        if argv[1] == "scan":
            src.write_text("x,y,t\n" + "".join(f"{x},{y},{t}\n" for x, y, t in rows),
                           encoding="utf-8")
        else:
            src.write_text("x,y\n" + "".join(f"{x},{y}\n" for x, y, _ in rows), encoding="utf-8")
        out = tmp_path / "run"
        assert run("--out", out, *argv[:2], "--in", src, f"--region={WIDE}", *argv[2:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid cells must be positive and finite, got inf x ")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


# points 1e199 apart in a region of finite area: the k-d tree refuses the pair
# and disc queries, whose squared distances overflow, and its nearest-neighbour
# distances overflow to inf
FAR = "0,1e200,0,1e-100"
FAR_APART = {
    "k": ["analyze", "k", "--radii", "1e199"],
    "kde": ["analyze", "kde", "--nx", 2, "--ny", 2, "--bandwidth", "1e199"],
    "g": ["analyze", "g", "--radii", "1e199"],
    "f": ["analyze", "f", "--radii", "1e199", "--probe-nx", 2, "--probe-ny", 2],
    "nni": ["analyze", "nni"],
}


class TestFarApartPoints:
    @pytest.mark.parametrize("argv", FAR_APART.values(), ids=FAR_APART.keys())
    def test_overflow_in_the_tree_is_an_error(self, tmp_path, capsys, argv):
        src = tmp_path / "pts.csv"
        src.write_text("x,y\n0,0\n1e199,0\n2e199,0\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("--out", out, *argv[:2], "--in", src, "--region", FAR, *argv[2:]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: points too far apart for the k-d tree" in err
        assert list(out.iterdir()) == []


# argv past the input flags -> an array dimension numpy cannot shape
OVERSIZED = {
    "quadrat-nx": ["analyze", "quadrat", "--nx", "1000000000000000000000", "--ny", 1],
    "kde-nx": ["analyze", "kde", "--nx", "99999999999999999999", "--ny", 1, "--bandwidth", 0.1],
    "f-probe-nx": ["analyze", "f", "--radii", 0.1, "--probe-nx", "100000000000000000000",
                   "--probe-ny", 1],
    "scan-slices": ["detect", "scan", "--horizon", 1, "--nx", 2, "--ny", 2,
                    "--slices", "100000000000000000000", "--radii", 0.2, "--durations", 0.3,
                    "--nsim", 99],
}


class TestOversizedDimensions:
    @pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED.keys())
    def test_error_without_traceback(self, tmp_path, capsys, argv):
        src = write_space_time(tmp_path) if argv[1] == "scan" else write_pattern(tmp_path)
        out = tmp_path / "run"
        assert run("--out", out, *argv[:2], "--in", src, "--region", "0,1,0,1", *argv[2:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


class TestSeedResolution:
    def test_env_seed_used_when_flag_absent(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("POINTPROC_SEED", "11")
        run("--out", a, "simulate", "hpp", "--rate", 1.0, "--horizon", 30.0)
        monkeypatch.delenv("POINTPROC_SEED")
        run("--seed", 11, "--out", b, "simulate", "hpp", "--rate", 1.0, "--horizon", 30.0)
        assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()
        assert json.loads((a / "manifest.json").read_text(encoding="utf-8"))["seed"] == 11

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("POINTPROC_SEED", "99")
        run("--seed", 3, "--out", a, "simulate", "hpp", "--rate", 1.0, "--horizon", 30.0)
        monkeypatch.delenv("POINTPROC_SEED")
        run("--seed", 3, "--out", b, "simulate", "hpp", "--rate", 1.0, "--horizon", 30.0)
        assert (a / "events.csv").read_bytes() == (b / "events.csv").read_bytes()

    def test_default_seed_is_zero(self, tmp_path):
        out = tmp_path / "run"
        run("--out", out, "simulate", "hpp", "--rate", 1.0, "--horizon", 10.0)
        assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["seed"] == 0

    def test_bad_env_seed_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("POINTPROC_SEED", "pi")
        out = tmp_path / "run"
        assert run("--out", out, "simulate", "hpp", "--rate", 1.0, "--horizon", 10.0) == 2
        assert "POINTPROC_SEED" in capsys.readouterr().err


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """Manifests of small recorded runs, keyed by subcommand."""
    d = tmp_path_factory.mktemp("recorded")
    runs = {
        "hpp": ["simulate", "hpp", "--rate", 2.0, "--horizon", 20.0],
        "nni": ["analyze", "nni", "--in", write_pattern(d), "--region", "0,1,0,1"],
        "scan": ["detect", "scan", "--in", write_space_time(d), "--region", "0,1,0,1",
                 "--horizon", 1.0, "--nx", 4, "--ny", 4, "--slices", 4,
                 "--radii", "0.2", "--durations", "0.3", "--nsim", 99, "--top", 3],
    }
    docs = {}
    for name, argv in runs.items():
        assert run("--seed", 7, "--out", d / name, *argv) == 0
        docs[name] = json.loads((d / name / "manifest.json").read_text(encoding="utf-8"))
    return docs


def with_param(**kv):
    return lambda doc: {**doc, "params": {**doc["params"], **kv}}


BAD_MANIFESTS = {
    "top-text": ("scan", with_param(top="x")),
    "top-float": ("scan", with_param(top=2.5)),
    "nsim-text": ("scan", with_param(nsim="abc")),
    "region-3-values": ("nni", with_param(region=[0.0, 1.0, 0.0])),
    "rate-text": ("hpp", with_param(rate="abc")),
    "rate-bool": ("hpp", with_param(rate=True)),
    "seed-text": ("hpp", lambda doc: {**doc, "seed": "x"}),
    "unknown-key": ("hpp", with_param(shape=1.0)),
    "abbreviated-key": ("hpp", with_param(hor=5.0)),
    "params-array": ("hpp", lambda doc: {**doc, "params": []}),
    "top-level-array": ("hpp", lambda doc: [doc]),
}

# letters-only text cannot spell a finite number, so no draw asks for a huge run
ODD_VALUES = st.recursive(
    st.one_of(st.text(string.ascii_letters, max_size=8), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(string.ascii_letters, max_size=4), inner, max_size=3),
    ),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def small_argv(tmp_path_factory):
    """A valid, quick argv per subcommand: (flag, value) pairs after the
    command words."""
    d = tmp_path_factory.mktemp("argv")
    pattern = [("--in", write_pattern(d, n=40)), ("--region", "0,1,0,1")]
    bases = []
    for s in range(2):
        b = d / f"base{s}.csv"
        b.write_text("cell_x,cell_y,value\n0,0,1\n1,1,2\n", encoding="utf-8")
        bases.append(str(b))
    return {
        ("simulate", "hpp"): [("--rate", 2), ("--horizon", 5)],
        ("simulate", "nhpp"): [("--intensity", "piecewise"), ("--horizon", 4),
                               ("--segments", "0:2:1,2:4:3")],
        ("simulate", "hawkes"): [("--mu", 1), ("--alpha", 0.5), ("--beta", 1), ("--horizon", 5)],
        ("simulate", "csr"): [("--rate", 20), ("--region", "0,1,0,1")],
        ("analyze", "kde"): [*pattern, ("--nx", 3), ("--ny", 3), ("--bandwidth", 0.2)],
        ("analyze", "g"): [*pattern, ("--radii", "0.05,0.1"), ("--envelope", 19)],
        ("analyze", "f"): [*pattern, ("--radii", "0.05,0.1"), ("--probe-nx", 4),
                           ("--probe-ny", 4), ("--envelope", 19)],
        ("analyze", "k"): [*pattern, ("--radii", "0.05,0.1"), ("--correction", "border"),
                           ("--envelope", 19)],
        ("analyze", "nni"): pattern,
        ("analyze", "quadrat"): [*pattern, ("--nx", 3), ("--ny", 3)],
        ("analyze", "dispersion"): [*pattern, ("--nx", 4), ("--ny", 4), ("--blocks", "1,2")],
        ("detect", "gistar"): [*pattern, ("--nx", 4), ("--ny", 4), ("--radius", 0.3)],
        ("detect", "scan"): [("--in", write_space_time(d, n=40)), ("--region", "0,1,0,1"),
                             ("--horizon", 1), ("--nx", 2), ("--ny", 2), ("--slices", 2),
                             ("--radii", 0.3), ("--durations", 0.5), ("--nsim", 99),
                             ("--top", 3), ("--baseline", ",".join(bases))],
    }


# letters-only text spells no finite number, and a negative one is never a
# large request, so no draw starts a huge run
BAD_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "Infinity", ""]),
    st.text(string.ascii_letters, max_size=8),
    st.integers(max_value=-1),
    st.floats(max_value=0.0, exclude_max=True),
)


class TestArgv:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_replaced_argv_value_never_escapes(self, small_argv, data):
        command = data.draw(st.sampled_from(sorted(small_argv)))
        pairs = list(small_argv[command])
        i = data.draw(st.integers(0, len(pairs) - 1))
        if data.draw(st.booleans()):
            del pairs[i]
        else:
            pairs[i] = (pairs[i][0], data.draw(BAD_VALUES))
        with tempfile.TemporaryDirectory() as d:
            out, err = Path(d) / "run", io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_code("--out", out, *command, *(f"{f}={v}" for f, v in pairs))
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code:
                assert not out.exists() or list(out.iterdir()) == []


# every flag that takes a count, by a command that has it
COUNT_FLAGS = [
    (("analyze", "kde"), "--nx"), (("analyze", "kde"), "--ny"),
    (("analyze", "f"), "--probe-nx"), (("analyze", "f"), "--probe-ny"),
    (("analyze", "quadrat"), "--nx"), (("analyze", "quadrat"), "--ny"),
    (("analyze", "dispersion"), "--nx"), (("analyze", "dispersion"), "--ny"),
    (("detect", "gistar"), "--nx"), (("detect", "gistar"), "--ny"),
    (("detect", "scan"), "--nx"), (("detect", "scan"), "--ny"), (("detect", "scan"), "--slices"),
    (("simulate", "hpp"), "--threads"),
    (("analyze", "g"), "--envelope"), (("analyze", "f"), "--envelope"),
    (("analyze", "k"), "--envelope"), (("detect", "scan"), "--nsim"),
    (("detect", "scan"), "--top"),
]
# the flags whose minimum is the library's own, not 1
MINIMA = {"--envelope": spatial._ENVELOPE_NSIM_MIN, "--nsim": detect._SCAN_NSIM_MIN}


@pytest.fixture(scope="module")
def count_manifests(small_argv, tmp_path_factory):
    """The manifest of one small run per command in COUNT_FLAGS."""
    d = tmp_path_factory.mktemp("counts")
    paths = {}
    for command in dict(COUNT_FLAGS):
        paths[command] = d / "-".join(command) / "manifest.json"
        argv = [a for pair in small_argv[command] for a in pair]
        assert run("--seed", 7, "--out", paths[command].parent, *command, *argv) == 0
    return paths


@pytest.mark.parametrize("value", [0, -3])
@pytest.mark.parametrize("command, flag", COUNT_FLAGS,
                         ids=[f"{c[1]}{f}" for c, f in COUNT_FLAGS])
class TestCountFlags:
    """A count below its minimum, 1 or the library's, is an argparse error
    that names its flag, from argv and from a replayed manifest alike."""

    def test_argv(self, small_argv, tmp_path, capsys, command, flag, value):
        check_count_refused(small_argv, tmp_path, capsys, command, flag, value)

    def test_manifest(self, count_manifests, tmp_path, capsys, command, flag, value):
        doc = json.loads(count_manifests[command].read_text(encoding="utf-8"))
        m = tmp_path / "m.json"
        if flag == "--threads":  # not recorded: the outer flag applies to the replay
            argv = ["--manifest", m, flag, value]
        else:
            doc["params"][flag[2:].replace("-", "_")] = value
            argv = ["--manifest", m]
        m.write_text(json.dumps(doc), encoding="utf-8")
        check_refused(argv, capsys, tmp_path, flag, value)


def check_refused(argv, capsys, tmp_path, flag, value):
    out = tmp_path / "run"
    assert run_code("--out", out, *argv) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer >= {MINIMA.get(flag, 1)}, got '{value}'" in err
    assert not out.exists()


def check_count_refused(small_argv, tmp_path, capsys, command, flag, value):
    """The command's small run with `flag` set to `value` is refused."""
    pairs = [(f, v) for f, v in small_argv[command] if f != flag] + [(flag, value)]
    check_refused([*command, *(a for pair in pairs for a in pair)], capsys, tmp_path, flag, value)


@pytest.mark.parametrize("command, flag", [(c, f) for c, f in COUNT_FLAGS if f in MINIMA],
                         ids=[f"{c[1]}{f}" for c, f in COUNT_FLAGS if f in MINIMA])
def test_one_below_the_library_minimum(small_argv, tmp_path, capsys, command, flag):
    check_count_refused(small_argv, tmp_path, capsys, command, flag, MINIMA[flag] - 1)


class TestManifestReplay:
    @pytest.mark.parametrize("kind,edit", BAD_MANIFESTS.values(), ids=BAD_MANIFESTS.keys())
    def test_bad_manifest_is_a_usage_error(self, recorded, tmp_path, capsys, kind, edit):
        m = tmp_path / "m.json"
        m.write_text(json.dumps(edit(recorded[kind])), encoding="utf-8")
        out = tmp_path / "run"
        assert run_code("--manifest", m, "--out", out) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {**doc, "command": "--seed"}, "unknown command --seed scan"),
        (lambda doc: {**doc, "subcommand": 5}, "unknown command detect 5"),
        (lambda doc: {**doc, "params": {k: v for k, v in doc["params"].items() if k != "top"}},
         "manifest params missing ['top']"),
    ], ids=["command-a-flag", "command-not-text", "param-missing"])
    def test_unknown_command_or_missing_param_named(self, recorded, tmp_path, capsys, edit,
                                                    message):
        m, out = tmp_path / "m.json", tmp_path / "run"
        m.write_text(json.dumps(edit(recorded["scan"])), encoding="utf-8")
        assert run("--manifest", m, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {m}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"[" * 100_000, b"\xff\xfe{}", None],
                             ids=["deeply-nested", "not-utf8", "directory"])
    def test_unreadable_manifest_is_a_usage_error(self, tmp_path, capsys, content):
        m = tmp_path / "m.json"
        if content is None:
            m.mkdir()
        else:
            m.write_bytes(content)
        assert run("--manifest", m, "--out", tmp_path / "run") == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_replaced_param_never_escapes(self, recorded, data):
        doc = copy.deepcopy(recorded[data.draw(st.sampled_from(["hpp", "nni"]))])
        doc["params"][data.draw(st.sampled_from(sorted(doc["params"])))] = data.draw(ODD_VALUES)
        with tempfile.TemporaryDirectory() as d:
            m, out = Path(d) / "m.json", Path(d) / "run"
            m.write_text(json.dumps(doc), encoding="utf-8")
            code = run_code("--manifest", m, "--out", out)
            assert code in (0, 1, 2)
            if code:
                assert not out.exists() or list(out.iterdir()) == []

    def test_replay_normalises_values(self, recorded, tmp_path):
        m = tmp_path / "m.json"
        m.write_text(json.dumps(with_param(top="2")(recorded["scan"])), encoding="utf-8")
        out = tmp_path / "run"
        assert run("--manifest", m, "--out", out) == 0
        assert json.loads((out / "manifest.json").read_text(encoding="utf-8"))["params"]["top"] == 2
        assert len((out / "scan.csv").read_text(encoding="utf-8").splitlines()) == 3

    @pytest.mark.parametrize("case", ["segments", "baseline", "top", "negative-region"])
    def test_replay_round_trip(self, tmp_path, case):
        scan = ["detect", "scan", "--in", write_space_time(tmp_path), "--region", "0,1,0,1",
                "--horizon", 1.0, "--nx", 3, "--ny", 3, "--slices", 3,
                "--radii", "0.2", "--durations", "0.4", "--nsim", 99]
        bases = []
        for s in range(3):
            b = tmp_path / f"base{s}.csv"
            cells = [f"{i},{j},{(i + 2 * j + s) % 4}" for i in range(3) for j in range(3)]
            b.write_text("\n".join(["cell_x,cell_y,value", *cells]) + "\n", encoding="utf-8")
            bases.append(str(b))
        argv = {
            "segments": ["simulate", "nhpp", "--intensity", "piecewise", "--horizon", 30.0,
                         "--segments", "0:10:1,10:20:4.5,20:30:0.5"],
            "baseline": [*scan, "--baseline", ",".join(bases)],
            "top": [*scan, "--top", 4],
            "negative-region": ["simulate", "csr", "--rate", 50.0, "--region=-1,1,-1,1"],
        }[case]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("--seed", 9, "--out", a, *argv) == 0
        assert run("--manifest", a / "manifest.json", "--out", b) == 0
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_simulate_replay_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run("--seed", 21, "--out", a, "simulate", "hawkes",
            "--mu", 1.0, "--alpha", 0.4, "--beta", 1.2, "--horizon", 80.0)
        assert run("--manifest", a / "manifest.json", "--out", b) == 0
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_analyze_replay_is_byte_identical(self, tmp_path):
        src = write_pattern(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run("--seed", 13, "--out", a, "analyze", "k", "--in", src,
            "--region", "0,1,0,1", "--radii", "0.05,0.1",
            "--correction", "border", "--envelope", 19)
        assert run("--manifest", a / "manifest.json", "--out", b) == 0
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_scan_replay_is_byte_identical(self, tmp_path):
        src = write_space_time(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run("--seed", 17, "--out", a, "detect", "scan", "--in", src,
            "--region", "0,1,0,1", "--horizon", 1.0,
            "--nx", 4, "--ny", 4, "--slices", 4,
            "--radii", "0.2", "--durations", "0.3", "--nsim", 99)
        assert run("--manifest", a / "manifest.json", "--out", b) == 0
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_runs_in_one_process_match_fresh_processes(self, tmp_path):
        # each run leaves the scipy it imported on use loaded for the next;
        # a run's bytes must not depend on what ran before it in the process
        src = write_pattern(tmp_path)
        runs = {
            "k": ["analyze", "k", "--in", src, "--region", "0,1,0,1",
                  "--radii", "0.05,0.1", "--envelope", 19],
            "gistar": ["detect", "gistar", "--in", src, "--region", "0,1,0,1",
                       "--nx", 5, "--ny", 5, "--radius", 0.3],
            "hpp": ["simulate", "hpp", "--rate", 2.0, "--horizon", 10.0],
            "replay": ["--manifest", tmp_path / "one" / "k" / "manifest.json"],
        }
        for name, argv in runs.items():
            seed = [] if name == "replay" else ["--seed", "6"]
            assert run(*seed, "--out", tmp_path / "one" / name, *argv) == 0
            res = subprocess.run(
                [sys.executable, "-m", "pointproc.cli", *seed,
                 "--out", str(tmp_path / "fresh" / name), *map(str, argv)],
                capture_output=True, encoding="utf-8", env=child_env())
            assert res.returncode == 0, res.stderr
        for name in runs:
            assert read_bytes_map(tmp_path / "one" / name) == read_bytes_map(tmp_path / "fresh" / name)
        assert read_bytes_map(tmp_path / "one" / "k") == read_bytes_map(tmp_path / "one" / "replay")

    def test_threads_do_not_change_bytes(self, tmp_path):
        src = write_pattern(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run("--seed", 2, "--out", a, "analyze", "g", "--in", src,
            "--region", "0,1,0,1", "--radii", "0.05,0.1", "--envelope", 19)
        run("--seed", 2, "--threads", 4, "--out", b, "analyze", "g", "--in", src,
            "--region", "0,1,0,1", "--radii", "0.05,0.1", "--envelope", 19)
        assert (a / "g.csv").read_bytes() == (b / "g.csv").read_bytes()

    def test_manifest_with_subcommand_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("--manifest", tmp_path / "m.json", "simulate", "hpp",
                "--rate", 1.0, "--horizon", 1.0)
        assert exc.value.code == 2

    def test_manifest_with_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("--manifest", tmp_path / "m.json", "--seed", 4)
        assert exc.value.code == 2

    def test_missing_manifest_file(self, tmp_path, capsys):
        assert run("--manifest", tmp_path / "nope.json", "--out", tmp_path) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("edit,found", [
        (lambda doc: {k: v for k, v in doc.items() if k != "format"}, "1"),
        (lambda doc: {**doc, "format": 2}, "2"),
        (lambda doc: {**doc, "format": "3"}, "'3'"),
    ], ids=["no-key", "format-2", "text"])
    def test_other_format_is_a_usage_error(self, recorded, tmp_path, capsys, edit, found):
        assert recorded["hpp"]["format"] == 3
        m, out = tmp_path / "m.json", tmp_path / "run"
        m.write_text(json.dumps(edit(recorded["hpp"])), encoding="utf-8")
        assert run("--manifest", m, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {m}: manifest format {found} cannot be replayed; "
                       "this version replays format 3 only\n")
        assert not out.exists()

    def test_manifest_records_the_versions(self, recorded):
        assert recorded["hpp"]["versions"] == {
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}

    @pytest.mark.parametrize("versions", [
        {"numpy": "1.24.0", "python": platform.python_version(), "scipy": scipy.__version__},
        None,
    ], ids=["other-numpy", "no-key"])
    def test_other_versions_warn_then_run(self, recorded, tmp_path, capsys, versions):
        doc = recorded["scan"]
        a, m, b = tmp_path / "a", tmp_path / "m.json", tmp_path / "b"
        edited = {k: v for k, v in doc.items() if k != "versions"}
        m.write_text(json.dumps(edited if versions is None else {**edited, "versions": versions}),
                     encoding="utf-8")
        assert run("--manifest", m, "--out", b) == 0
        assert capsys.readouterr().err == (
            f"warning: {m}: recorded with {versions}, replayed with {doc['versions']}; "
            "outputs may differ\n")
        (tmp_path / "same.json").write_text(json.dumps(doc), encoding="utf-8")
        assert run("--manifest", tmp_path / "same.json", "--out", a) == 0
        assert "warning" not in capsys.readouterr().err
        assert read_bytes_map(a) == read_bytes_map(b)

    def test_manifest_missing_field(self, tmp_path, capsys):
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"command": "simulate", "subcommand": "hpp"}), encoding="utf-8")
        assert run("--manifest", m, "--out", tmp_path) == 2
        assert "missing" in capsys.readouterr().err


SCIPY_SUBMODULES = ("scipy.integrate", "scipy.sparse", "scipy.spatial", "scipy.special")
# what a fresh process runs, as code or as CLI arguments ("x,y" and "x,y,t"
# name an input file), and the scipy submodules that it calls
SCIPY_USE = {
    "import pointproc": ("import pointproc", ()),
    "import pointproc.cli": ("import pointproc.cli", ()),
    "hpp": (["simulate", "hpp", "--rate", 2.0, "--horizon", 5.0], ()),
    "nhpp": (["simulate", "nhpp", "--intensity", "sinusoid", "--base", 2.0,
              "--amplitude", 1.0, "--period", 2.0, "--horizon", 5.0], ()),
    "hawkes": (["simulate", "hawkes", "--mu", 1.0, "--alpha", 0.4, "--beta", 1.2,
                "--horizon", 5.0], ()),
    "csr": (["simulate", "csr", "--rate", 50.0, "--region", "0,1,0,1"], ()),
    "dispersion": (["analyze", "dispersion", "--in", "x,y", "--region", "0,1,0,1",
                    "--nx", 4, "--ny", 4, "--blocks", "1,2"], ()),
    "gistar": (["detect", "gistar", "--in", "x,y", "--region", "0,1,0,1",
                "--nx", 4, "--ny", 4, "--radius", 0.3], ()),
    "quadrat": (["analyze", "quadrat", "--in", "x,y", "--region", "0,1,0,1",
                 "--nx", 4, "--ny", 4], ("scipy.special",)),
    "scan": (["detect", "scan", "--in", "x,y,t", "--region", "0,1,0,1", "--horizon", 1.0,
              "--nx", 4, "--ny", 4, "--slices", 4, "--radii", "0.2", "--durations", "0.3",
              "--nsim", 99], ("scipy.sparse",)),
}


def scipy_loaded(code: str) -> set[str]:
    """The SCIPY_SUBMODULES that a fresh interpreter holds after running `code`."""
    probe = f"{code}\nimport sys\nprint(*(m for m in {SCIPY_SUBMODULES!r} if m in sys.modules))"
    res = subprocess.run([sys.executable, "-c", probe],
                         capture_output=True, encoding="utf-8", env=child_env())
    assert res.returncode == 0, res.stderr
    return set(res.stdout.splitlines()[-1].split())


class TestTopLevel:
    def test_no_command_prints_usage(self, capsys):
        assert run() == 2
        assert "usage" in capsys.readouterr().err

    def test_wrote_lines_listed(self, tmp_path, capsys):
        out = tmp_path / "run"
        run("--out", out, "simulate", "hpp", "--rate", 1.0, "--horizon", 5.0)
        stdout = capsys.readouterr().out
        assert "events.csv" in stdout
        assert "manifest.json" in stdout

    def test_out_naming_a_file_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n", encoding="utf-8")
        assert run("--out", out, "simulate", "hpp", "--rate", 1.0, "--horizon", 5.0) == 1
        assert "error:" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "keep\n"

    def test_output_name_taken_by_a_directory(self, tmp_path, capsys):
        out = tmp_path / "run"
        (out / "manifest.json").mkdir(parents=True)
        assert run("--out", out, "simulate", "hpp", "--rate", 1.0, "--horizon", 5.0) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]  # events.csv rolled back
        assert (out / "manifest.json").is_dir()

    @pytest.mark.parametrize("message", ["", "Unable to allocate 74.5 GiB"])
    def test_memory_error_is_an_error_line(self, tmp_path, capsys, monkeypatch, message):
        def exhausted(subcommand, p, seed, threads, out):
            out("events.csv").write_text("t\n", encoding="utf-8")  # as the package writes
            raise MemoryError(message)

        monkeypatch.setitem(pointproc.cli._DISPATCH, "simulate", exhausted)
        out = tmp_path / "run"
        assert run("--out", out, "simulate", "hpp", "--rate", 1.0, "--horizon", 5.0) == 1
        assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
        assert list(out.iterdir()) == []  # events.csv rolled back

    def test_entry_point_subprocess(self, tmp_path):
        env = child_env()
        res = subprocess.run(
            [sys.executable, "-m", "pointproc.cli", "--seed", "1",
             "--out", str(tmp_path), "simulate", "csr",
             "--rate", "50", "--region", "0,1,0,1"],
            capture_output=True, encoding="utf-8", env=env,
        )
        assert res.returncode == 0
        assert (tmp_path / "points.csv").exists()
        ver = subprocess.run(
            [sys.executable, "-m", "pointproc.cli", "--version"],
            capture_output=True, encoding="utf-8", env=env,
        )
        assert ver.returncode == 0
        assert ver.stdout.startswith("pointproc ")

    def test_files_name_their_encoding(self, tmp_path):
        # every read and write names UTF-8: one that falls back on the locale's
        # encoding warns under this flag, and the warning is an error here
        csr, quadrat, replay = (str(tmp_path / d) for d in ("csr", "quadrat", "replay"))
        calls = [["--seed", "3", "--out", csr, "simulate", "csr", "--rate", "100",
                  "--region", "0,1,0,1"],
                 ["--seed", "3", "--out", quadrat, "analyze", "quadrat", "--in",
                  f"{csr}/points.csv", "--region", "0,1,0,1", "--nx", "2", "--ny", "2"],
                 ["--manifest", f"{quadrat}/manifest.json", "--out", replay]]
        code = f"from pointproc.cli import main\nfor a in {calls!r}:\n    assert main(a) == 0"
        res = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                              "-W", "error::EncodingWarning", "-c", code],
                             capture_output=True, encoding="utf-8", env=child_env(), timeout=120)
        assert res.returncode == 0, res.stderr
        assert read_bytes_map(tmp_path / "quadrat") == read_bytes_map(tmp_path / "replay")

    @pytest.mark.parametrize("run_, needs", SCIPY_USE.values(), ids=list(SCIPY_USE))
    def test_loads_only_the_scipy_it_uses(self, tmp_path, run_, needs):
        # a command pays the import of the scipy it calls, and only that: of
        # SCIPY_SUBMODULES, it holds what importing its needs alone loads
        code = run_
        if isinstance(run_, list):
            inputs = {"x,y": write_pattern(tmp_path), "x,y,t": write_space_time(tmp_path)}
            argv = [str(inputs.get(a, a)) for a in ["--out", tmp_path / "out", *run_]]
            code = f"from pointproc.cli import main\nassert main({argv!r}) == 0"
        want = scipy_loaded("\n".join(f"import {m}" for m in needs)) if needs else set()
        assert scipy_loaded(code) == want

    def test_console_script_declared(self):
        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["pointproc"]
        ep = EntryPoint("pointproc", target, "console_scripts")
        assert ep.load() is main
        # Run the target the way the wrapper that pip generates does.
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"main = EntryPoint('pointproc', {target!r}, 'console_scripts').load()\n"
            "sys.argv[0] = 'pointproc'\n"
            "sys.exit(main())\n"
        )
        ver = subprocess.run(
            [sys.executable, "-c", wrapper, "--version"],
            capture_output=True, encoding="utf-8", env=child_env(),
        )
        assert ver.returncode == 0
        assert ver.stdout.startswith("pointproc ")

    @pytest.mark.skipif(
        shutil.which("pointproc") is None,
        reason="pointproc console script not on PATH (package not installed)",
    )
    def test_installed_console_script(self):
        ver = subprocess.run(
            ["pointproc", "--version"], capture_output=True, encoding="utf-8"
        )
        assert ver.returncode == 0
        assert ver.stdout.startswith("pointproc ")
