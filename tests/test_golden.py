"""Golden sha256 digests of CLI outputs, pinned across commits.

c12 replays a run inside one tree, so it cannot see an output change
between commits; this table can.  `CASES` runs every subcommand, as c12
does, plus the scan under other inputs and a border-K envelope whose
largest radius keeps no point (NaN).  Every command runs in one child
interpreter, in a fresh directory, with relative paths.  `GOLDEN` holds
one digest per (case, file) for every file a case writes: the file's
bytes, and for manifest.json its bytes without the "versions" entry,
which records the library versions and differs between installs by
design.  A file written but not in `GOLDEN`, or listed but not written,
fails the test too.

The scan's `llr` column comes from `np.log`, whose AVX-512 loops round a
few arguments differently from the other targets.  The child disables
every AVX-512 target that numpy dispatches to (NPY_DISABLE_CPU_FEATURES),
so its bytes are those of a machine without AVX-512 wherever it runs.

Some bytes come from scipy and may differ between its versions:
quadrat_test.csv's p-value is `scipy.special.chdtrc`, and the distances
behind nni.csv's mean nearest-neighbour distance come from
`scipy.spatial.cKDTree`.  The table was made with numpy 2.4 and scipy
1.17; the oldest pins that pyproject.toml accepts have not been run
against it.

An intended output change updates `GOLDEN` in the same change, and says
which files changed.  To add a command, add a row to `CASES` and a row
per file it writes to `GOLDEN`.
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

# a pattern command's input: the events' (x, y) on the unit square
PATTERN = ["--in", "points.csv", "--region", "0,1,0,1"]

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
    "simulate-hpp": ["simulate", "hpp", "--rate", "2", "--horizon", "50"],
    "simulate-nhpp-sinusoid": ["simulate", "nhpp", "--intensity", "sinusoid", "--horizon", "48",
                               "--base", "3", "--amplitude", "2", "--period", "24"],
    "simulate-hawkes": ["simulate", "hawkes", "--mu", "1", "--alpha", "0.5", "--beta", "1",
                        "--horizon", "50"],
    "simulate-csr": ["simulate", "csr", "--rate", "100", "--region", "0,1,0,1"],
    "analyze-kde": ["analyze", "kde", *PATTERN, "--nx", "5", "--ny", "5", "--bandwidth", "0.1"],
    "analyze-k-envelope": ["analyze", "k", *PATTERN, "--radii", "0.05,0.1", "--envelope", "19"],
    # border K keeps no point 0.6 from the unit square's edge: NaN at that radius
    "analyze-k-border-nan": ["analyze", "k", *PATTERN, "--radii", "0.05,0.6",
                             "--correction", "border", "--envelope", "19"],
    "analyze-g-envelope": ["analyze", "g", *PATTERN, "--radii", "0.02,0.05", "--envelope", "19"],
    "analyze-f-envelope": ["analyze", "f", *PATTERN, "--radii", "0.05,0.1", "--probe-nx", "8",
                           "--probe-ny", "8", "--envelope", "19"],
    "analyze-nni": ["analyze", "nni", *PATTERN],
    "analyze-quadrat": ["analyze", "quadrat", *PATTERN, "--nx", "4", "--ny", "4"],
    "analyze-dispersion": ["analyze", "dispersion", *PATTERN, "--nx", "8", "--ny", "8",
                           "--blocks", "1,2"],
    "detect-gistar": ["detect", "gistar", *PATTERN, "--nx", "5", "--ny", "5",
                      "--radius", "0.25"],
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
    ("simulate-hpp", "events.csv"):
        "77b8beaad16840a246a61125fd5bab14734e5588b5372da685cee43827e99bdb",
    ("simulate-hpp", "manifest.json"):
        "a051215b8d8d7a41e163c48cf3e76b769394ec0febb0b5c22a726391e9212774",
    ("simulate-nhpp-sinusoid", "events.csv"):
        "c302d2b0bb381373d419c01882ec6a7c4dab279e414cbececcb7c775995007d4",
    ("simulate-nhpp-sinusoid", "manifest.json"):
        "bff57266819667b4d02488bd65c48f80b18d84e16315b9eb7b19c96575f8efc2",
    ("simulate-hawkes", "events.csv"):
        "91bca963eefbee7eca9fbe36cfb8b741e82d28aa1789ad66155822baf01a3c52",
    ("simulate-hawkes", "manifest.json"):
        "2b24a9540ea5b413c65f9ee131a2cada44d67eb39f00f16c908fa78379237345",
    ("simulate-csr", "points.csv"):
        "87aa1881c3c8505183a0ec3cced88c17b2b12a5ee2e818407d034b73378a484e",
    ("simulate-csr", "manifest.json"):
        "010dc8138f14cf2cbf244673586c850fe444735fa9edff52489375495827a17f",
    ("analyze-kde", "kde.csv"):
        "4495aed940b8c2b351c17b46e0ddc95d1d172c67aff35f5c79385f0233895b9a",
    ("analyze-kde", "manifest.json"):
        "6041d77035d2ee344d072fc8f097af0f906b858467b10f5a6e7061f722800f4e",
    ("analyze-k-envelope", "k.csv"):
        "6a275d50fa07cd15a533e9ee43282e2ef05dd535ea986058203071b3c4a96cc4",
    ("analyze-k-envelope", "manifest.json"):
        "115276c9a6db1335d2b34687feea9db9509b52ec6400c47e447e3cda810a5ecc",
    ("analyze-k-border-nan", "k.csv"):
        "1516c639629c2e274480f2619076890ab4bde4ec3496010449a6ded476d532d1",
    ("analyze-k-border-nan", "manifest.json"):
        "f67243c35590f0f20adaa7f6c04355f5621bed36096996564f68e27672972dac",
    ("analyze-g-envelope", "g.csv"):
        "8ec266f317035d97cf0a3d6f856d56af004e8974b3df0025387d0eae3be4655a",
    ("analyze-g-envelope", "manifest.json"):
        "7735561a27bdb467a20abdd5b577fa1a224bae38e9b301387fa025e36d08fa0b",
    ("analyze-f-envelope", "f.csv"):
        "e477beb7fcb615379333839ea252fecfa73bede5a8f55e73b33ad5c587a29356",
    ("analyze-f-envelope", "manifest.json"):
        "828e46498964a49700b0343166b552c75e372b8a04191e14f8b6e307e2e8eaea",
    ("analyze-nni", "nni.csv"):
        "8bed7ef9c43b8d8f193b5a2ccf9b97139e4a54f5f55bd14fa50689878b860350",
    ("analyze-nni", "manifest.json"):
        "f4a84c1585d454b466223a8e9166c2b4a7c26278834567296bb490f87eb4b46c",
    ("analyze-quadrat", "quadrat.csv"):
        "52fb2182b3daf290cb671f75aaee30bf42554e7936e06591409242c3ef70fd7b",
    ("analyze-quadrat", "quadrat_test.csv"):
        "64bfa5179a66dafb761452d4029d384d3a6a7da6c3811d6a450e68758b270d7b",
    ("analyze-quadrat", "manifest.json"):
        "ed5aed471d613827f31f584715518a0712fc646b38a42487b504ce9b02cc935a",
    ("analyze-dispersion", "dispersion.csv"):
        "73b1d384884380c4bc8f6751d80ab2abb8e57e8916074c14a28310276897f686",
    ("analyze-dispersion", "manifest.json"):
        "be585b7daeabb696c8290528cdab0729a190d2fc481f5d5269b30caa205eb78c",
    ("detect-gistar", "gistar.csv"):
        "7625a5e156d8cba868b30576b2bc2a03a264679f64f6cf9ec2dfe49cc39325e9",
    ("detect-gistar", "manifest.json"):
        "5cd922dd160e190bf4f06706c2df0a79606a6195fb4e7b936b99ea5eec52e15d",
}

VERSIONS = re.compile(rb',\n  "versions": \{[^{}]*\}')


def write_inputs(root: Path) -> None:
    """The events as CSV and GeoJSON, their (x, y) as a points CSV, and
    four integer baseline grids.
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
    (root / "points.csv").write_text(
        "x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y, _ in events), encoding="utf-8")
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
    """Run every case in one child interpreter in `root`; sha256 per
    (case, file) of every file each case wrote."""
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
    for case in CASES:
        for path in sorted((root / case).iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                data, found = VERSIONS.subn(b"", data)
                assert found == 1 and b'"versions"' not in data
            got[case, path.name] = hashlib.sha256(data).hexdigest()
    return got


def test_outputs_match_the_golden_digests(tmp_path):
    write_inputs(tmp_path)
    got = digests(tmp_path)
    # a file written but not in the table, or in it but not written, counts too
    changed = sorted(k for k in GOLDEN.keys() | got.keys() if got.get(k) != GOLDEN.get(k))
    assert not changed, "\n".join(f"{case}/{name}: {got.get((case, name))}"
                                   for case, name in changed)

