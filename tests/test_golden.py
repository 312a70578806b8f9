"""Golden sha256 digests of CLI outputs, pinned across commits.

c12 replays a run inside one tree, so it cannot see an output change
between commits; this table can.  Every command of `CASES` runs in one
child interpreter, in a fresh directory, with relative paths.  `GOLDEN`
holds one digest per (case, file): the file's bytes, and for
manifest.json its bytes without the "versions" entry, which records the
library versions and differs between installs by design.

The scan's `llr` column comes from `np.log`, whose AVX-512 loops round a
few arguments differently from the other targets.  The child disables
every AVX-512 target that numpy dispatches to (NPY_DISABLE_CPU_FEATURES),
so its bytes are those of a machine without AVX-512 wherever it runs.

An intended output change updates `GOLDEN` in the same change, and says
which files changed.  To add a command, add a row to `CASES` and its
files to `GOLDEN`.
"""

import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pointproc

SCAN = ["detect", "scan", "--region", "0,1,0,1", "--horizon", "1"]
# the scan workload of bench/ at its smoke-test size: 10 x 10 cells, 5
# slices, 300 background events and 80 in a cluster
BENCH_SCAN = [*SCAN, "--in", "events.csv", "--nx", "10", "--ny", "10", "--slices", "5",
              "--radii", "0.15,0.25", "--durations", "0.2,0.4"]

# case -> argv after --seed and --out; each writes into a directory of its name
CASES = {
    "scan-bench": [*BENCH_SCAN, "--nsim", "99", "--top", "20"],
    "scan-integer-baseline": [*SCAN, "--in", "events.csv", "--nx", "6", "--ny", "6",
                              "--slices", "4", "--radii", "0.2,0.35", "--durations", "0.25,0.5",
                              "--nsim", "99", "--baseline", "base0.csv,base1.csv,base2.csv,base3.csv"],
    "scan-geojson": [*SCAN, "--in", "events.geojson", "--nx", "5", "--ny", "5",
                     "--slices", "3", "--radii", "0.25", "--durations", "0.4", "--nsim", "99"],
    "scan-top-past-cylinders": [*SCAN, "--in", "events.csv", "--nx", "4", "--ny", "4",
                                "--slices", "3", "--radii", "0.3", "--durations", "0.4,1",
                                "--nsim", "99", "--top", "100000"],
    "scan-threads2-nsim101": [*BENCH_SCAN, "--nsim", "101", "--threads", "2"],
}

GOLDEN = {
    ("scan-bench", "scan.csv"):
        "384b93d20e41fbd1c1b342833f6f3596430bcbd5e3c6b08b9a07cb5092d505ec",
    ("scan-bench", "manifest.json"):
        "2b54244b590098c0a8e27fb47adf7d3c74d37531cc64aee66056a2f19bf2a379",
    ("scan-integer-baseline", "scan.csv"):
        "cbff24f81214348627946600ded8e800a44539b6f1faf9726dcc8230f46ea80a",
    ("scan-integer-baseline", "manifest.json"):
        "20051fd4b639ca794ffc253f9ef3da8265b9e9b050a4790b4436b7a569c84fbc",
    ("scan-geojson", "scan.csv"):
        "8dccaf3e650ffb5428b104f04075be2cce614d00048852e58ef222b306d4db8f",
    ("scan-geojson", "manifest.json"):
        "f279453d41ac606a68f3297a508814129b13c25e25113a6bd02dbbb623fa053e",
    ("scan-top-past-cylinders", "scan.csv"):
        "60baedf8d8588e8a53c7ceccdb9ff870a7e531023d49c5e5324095c8332328d1",
    ("scan-top-past-cylinders", "manifest.json"):
        "d378976da96363a4905255725061f8e94ef1a65f1f81731573c55c45d0b1a6c3",
    ("scan-threads2-nsim101", "scan.csv"):
        "4969c74dd94ffb933ae251923baf026be0ec01a749f465db738efd0badfc7665",
    ("scan-threads2-nsim101", "manifest.json"):
        "e36620ef145fb3e936c6e3b52c858028e336ae6f70fb1d3452006bcef7353edd",
}

VERSIONS = re.compile(rb',\n  "versions": \{[^{}]*\}')


def write_inputs(root: Path) -> None:
    """The events as CSV and GeoJSON, and four integer baseline grids.
    `random.Random` draws the same numbers under every Python."""
    g = random.Random(36)
    events = [(g.random(), g.random(), g.random()) for _ in range(300)]
    # a cluster about cell (6, 3) of the 10 x 10 grid, in slices 1 and 2
    events += [(0.65 + 0.08 * (g.random() - 0.5), 0.35 + 0.08 * (g.random() - 0.5),
                0.2 + 0.4 * g.random()) for _ in range(80)]
    g.shuffle(events)
    (root / "events.csv").write_text(
        "x,y,t\n" + "".join(f"{x!r},{y!r},{t!r}\n" for x, y, t in events), encoding="utf-8")
    features = ",".join(
        f'{{"type":"Feature","geometry":{{"type":"Point","coordinates":[{x!r},{y!r}]}},'
        f'"properties":{{"t":{t!r}}}}}' for x, y, t in events)
    (root / "events.geojson").write_text(
        f'{{"type":"FeatureCollection","features":[{features}]}}', encoding="utf-8")
    for s in range(4):
        cells = "".join(f"{i},{j},{g.randrange(4)}\n" for i in range(6) for j in range(6))
        (root / f"base{s}.csv").write_text("cell_x,cell_y,value\n" + cells, encoding="utf-8")


def avx512_targets() -> list:
    """numpy's dispatch targets that use AVX-512."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return [t for t in __cpu_dispatch__ if "AVX512" in t or t == "X86_V4"]


def digests(root: Path) -> dict:
    """Run every case in one child interpreter in `root`; sha256 per (case, file)."""
    calls = [["--seed", "36", "--out", case, *argv] for case, argv in CASES.items()]
    code = f"from pointproc.cli import main\nfor a in {calls!r}:\n    assert main(a) == 0, a"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(pointproc.__file__).resolve().parent.parent),
                    env.get("PYTHONPATH")) if p)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(avx512_targets())
    res = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                         encoding="utf-8", timeout=60)
    assert res.returncode == 0, res.stderr
    got = {}
    for case, name in GOLDEN:
        data = (root / case / name).read_bytes()
        if name == "manifest.json":
            data, found = VERSIONS.subn(b"", data)
            assert found == 1 and b'"versions"' not in data
        got[case, name] = hashlib.sha256(data).hexdigest()
    return got


def test_outputs_match_the_golden_digests(tmp_path):
    write_inputs(tmp_path)
    got = digests(tmp_path)
    changed = sorted(k for k in GOLDEN if got[k] != GOLDEN[k])
    assert not changed, "\n".join(f"{case}/{name}: {got[case, name]}" for case, name in changed)

