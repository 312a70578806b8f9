"""The benchmark workloads: inputs, command lists and output checks.

Inputs are made with plain numpy from the workload seed, so the program
under test receives only files.  Each workload is a list of CLI
commands; one pass runs them all, command ``j`` of pass ``i`` with
``--seed <workload seed> + i`` and ``--out out/<j>``.  After a pass the
outputs are checked: every file has its header and row count, and the
workload's own invariant holds.

There are four parts, each aimed at one layer (``PARTS``), and two
workloads made of them (``WORKLOADS``): ``scan`` is the scan part alone,
``analysis`` runs the envelope, pattern and stream parts in one pass.
The per-layer metrics are taken on the parts one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Command:
    argv: list[str]
    # output file -> (header, expected data rows or None when any count is fine)
    outputs: dict[str, tuple[str, int | None]]


@dataclass
class Prepared:
    """One workload's inputs, written to disk, and what its outputs must show."""

    commands: list[Command]
    work_per_pass: float | None  # None: counted from the outputs (stream)
    facts: dict = field(default_factory=dict)


def _fmt_list(values) -> str:
    return ",".join(format(float(v), ".6g") for v in values)


def _save(path: Path, header: str, rows: np.ndarray) -> None:
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")


def _read_csv(path: Path) -> tuple[str, list[list[str]]]:
    lines = path.read_text().splitlines()
    return (lines[0] if lines else ""), [ln.split(",") for ln in lines[1:] if ln]


def _count_rows(path: Path) -> tuple[str, int]:
    data = path.read_bytes()
    header = data.split(b"\n", 1)[0].decode()
    return header, max(data.count(b"\n") - 1, 0)


def check_outputs(cmd: Command, outdir: Path) -> list[str]:
    """Header and row-count check of every file a command must write."""
    errors = []
    for name, (header, rows) in cmd.outputs.items():
        path = outdir / name
        if not path.is_file():
            errors.append(f"{path}: missing")
            continue
        got_header, got_rows = _count_rows(path)
        if got_header != header:
            errors.append(f"{path}: header {got_header!r}, expected {header!r}")
        elif rows is not None and got_rows != rows:
            errors.append(f"{path}: {got_rows} rows, expected {rows}")
    if not (outdir / "manifest.json").is_file():
        errors.append(f"{outdir}/manifest.json: missing")
    return errors


def _clustered(rng, n_parents: int, per_parent: int, sd: float) -> np.ndarray:
    """Thomas-style clusters on the unit torus, exactly n_parents * per_parent points."""
    parents = rng.random((n_parents, 2))
    pts = np.repeat(parents, per_parent, axis=0) + rng.normal(0.0, sd, (n_parents * per_parent, 2))
    return np.mod(pts, 1.0)


class Workload:
    name: str

    @property
    def parts(self) -> list[Workload]:
        return [self]

    def prepare(self, seed: int, inputs: Path, tiny: bool) -> Prepared:
        raise NotImplementedError

    def check(self, prep: Prepared, outdirs: list[Path]) -> list[str]:
        """The workload invariant; header and row checks run separately."""
        return []

    def work(self, prep: Prepared, outdirs: list[Path]) -> float:
        return prep.work_per_pass


class Scan(Workload):
    """Cylinder evaluations, cylinders x (nsim+1), are its work."""

    name = "scan"

    def prepare(self, seed, inputs, tiny):
        rng = np.random.default_rng([seed, 1])
        nx, slices, nsim, top = (10, 5, 99, 20) if tiny else (30, 20, 99, 100)
        background, planted, spread = (300, 80, 0.12) if tiny else (1500, 150, 0.03)
        radii = [0.15, 0.25] if tiny else [0.05, 0.1, 0.15]
        durations = [0.2, 0.4] if tiny else [0.1, 0.2, 0.4]
        window = 2 if tiny else 4  # planted duration in slices
        bg = rng.random((rng.poisson(background), 3))
        ix, iy = rng.integers(nx // 5, nx - nx // 5, size=2)
        centre = (np.array([ix, iy]) + 0.5) / nx
        s0 = int(rng.integers(0, slices - window + 1))
        r = spread * np.sqrt(rng.random(planted))
        a = rng.random(planted) * 2.0 * math.pi
        xy = centre + np.column_stack([r * np.cos(a), r * np.sin(a)])
        t = (s0 + window * rng.random(planted)) / slices
        cluster = np.column_stack([xy, t])
        events = np.concatenate([bg, cluster])
        events = events[rng.permutation(len(events))]
        path = inputs / "scan_events.csv"
        _save(path, "x,y,t", events)
        argv = ["detect", "scan", "--in", str(path), "--region", "0,1,0,1", "--horizon", "1",
                "--nx", str(nx), "--ny", str(nx), "--slices", str(slices),
                "--radii", _fmt_list(radii), "--durations", _fmt_list(durations),
                "--nsim", str(nsim), "--top", str(top)]
        header = "cx,cy,radius,t_start,t_end,observed,expected,llr,p_value"
        cylinders = self.cylinders(nx, slices, radii, durations)
        return Prepared(
            [Command(argv, {"scan.csv": (header, top)})],
            float(cylinders * (nsim + 1)),
            {"cluster": cluster, "nx": nx, "slices": slices, "cylinders": cylinders},
        )

    @staticmethod
    def cylinders(nx, slices, radii, durations) -> int:
        """Distinct discs x distinct windows, counted as the scan counts them."""
        c = (np.arange(nx) + 0.5) / nx
        cx, cy = np.meshgrid(c, c, indexing="ij")
        centres = np.column_stack([cx.ravel(), cy.ravel()])
        discs = set()
        for p in centres:
            d = np.hypot(centres[:, 0] - p[0], centres[:, 1] - p[1])
            discs.update((d <= r).tobytes() for r in radii)
        widths = {min(max(int(math.floor(dur * slices + 1e-9)), 1), slices) for dur in durations}
        return len(discs) * sum(slices - w + 1 for w in widths)

    def check(self, prep, outdirs):
        _, rows = _read_csv(outdirs[0] / "scan.csv")
        cx, cy, radius, t0, t1 = (float(v) for v in rows[0][:5])
        p_value = float(rows[0][8])
        f = prep.facts
        nx, slices, cluster = f["nx"], f["slices"], f["cluster"]
        cell = np.minimum(np.floor(cluster[:, :2] * nx), nx - 1)
        cell_centre = (cell + 0.5) / nx
        in_disc = np.hypot(cell_centre[:, 0] - cx, cell_centre[:, 1] - cy) <= radius
        s = np.minimum(np.floor(cluster[:, 2] * slices), slices - 1)
        in_window = (s >= round(t0 * slices)) & (s < round(t1 * slices))
        share = float(np.mean(in_disc & in_window))
        errors = []
        if share < 0.8:
            errors.append(f"scan: top cylinder holds {share:.0%} of the planted events (< 80%)")
        if p_value > 0.05:
            errors.append(f"scan: top cylinder p_value {p_value} > 0.05")
        return errors


class Envelope(Workload):
    """Points handled, (nsim+1) patterns of ~500 points per command, are its work."""

    name = "envelope"

    def prepare(self, seed, inputs, tiny):
        rng = np.random.default_rng([seed, 2])
        parents, per_parent, nsim = (10, 10, 19) if tiny else (25, 20, 99)
        path = inputs / "clustered.csv"
        _save(path, "x,y", _clustered(rng, parents, per_parent, 0.02))
        k_radii = np.linspace(0.01, 0.1, 10)
        g_radii = np.linspace(0.005, 0.05, 10)
        base = ["--in", str(path), "--region", "0,1,0,1", "--envelope", str(nsim)]
        env_header = "r,observed,lower,upper"
        commands = [
            Command(["analyze", "k", *base, "--radii", _fmt_list(k_radii),
                     "--correction", "border"], {"k.csv": (env_header, 10)}),
            Command(["analyze", "g", *base, "--radii", _fmt_list(g_radii)],
                    {"g.csv": (env_header, 10)}),
            Command(["analyze", "f", *base, "--radii", _fmt_list(g_radii),
                     "--probe-nx", "20", "--probe-ny", "20"], {"f.csv": (env_header, 10)}),
        ]
        return Prepared(commands, float(len(commands) * (nsim + 1) * parents * per_parent))

    def check(self, prep, outdirs):
        errors = []
        for outdir, stat in zip(outdirs, "kgf"):
            _, rows = _read_csv(outdir / f"{stat}.csv")
            vals = np.array(rows, dtype=float)
            if np.any(vals[:, 2] > vals[:, 3]):
                errors.append(f"envelope: {stat} has lower > upper")
            if stat == "k" and not vals[0, 1] > vals[0, 3]:
                errors.append("envelope: clustered K stays inside the band at the smallest radius")
        return errors


class Pattern(Workload):
    """Input points read, once per command, are its work."""

    name = "pattern"

    def prepare(self, seed, inputs, tiny):
        rng = np.random.default_rng([seed, 3])
        n_uniform, parents, per_parent = (1500, 5, 100) if tiny else (16000, 4, 1000)
        kde_n, gi_n = (20, 10) if tiny else (100, 50)
        pts = np.concatenate([rng.random((n_uniform, 2)),
                              _clustered(rng, parents, per_parent, 0.03)])
        path = inputs / "points.csv"
        _save(path, "x,y", pts[rng.permutation(len(pts))])
        src = ["--in", str(path), "--region", "0,1,0,1"]
        radii = np.linspace(0.001, 0.01, 10)
        commands = [
            Command(["analyze", "kde", *src, "--nx", str(kde_n), "--ny", str(kde_n),
                     "--bandwidth", "0.02"], {"kde.csv": ("cell_x,cell_y,value", kde_n * kde_n)}),
            Command(["analyze", "k", *src, "--radii", _fmt_list(radii), "--correction", "border"],
                    {"k.csv": ("r,observed", 10)}),
            Command(["analyze", "nni", *src], {"nni.csv": ("statistic,value", 3)}),
            Command(["analyze", "quadrat", *src, "--nx", "10", "--ny", "10"],
                    {"quadrat.csv": ("cell_x,cell_y,value", 100),
                     "quadrat_test.csv": ("statistic,value", 3)}),
            Command(["detect", "gistar", *src, "--nx", str(gi_n), "--ny", str(gi_n),
                     "--radius", "0.05"], {"gistar.csv": ("cell_x,cell_y,z", gi_n * gi_n)}),
        ]
        return Prepared(commands, float(len(commands) * len(pts)), {"gi_cells": gi_n * gi_n})

    def check(self, prep, outdirs):
        _, rows = _count_rows(outdirs[4] / "gistar.csv")
        if rows != prep.facts["gi_cells"]:
            return [f"pattern: GI* has {rows} rows, expected nx*ny = {prep.facts['gi_cells']}"]
        return []


class Stream(Workload):
    """Events and points written are its work."""

    name = "stream"

    def prepare(self, seed, inputs, tiny):
        horizon = 20.0 if tiny else 80.0
        rate = 100.0 if tiny else 1000.0
        base, amplitude, period = rate / 2, rate * 0.3, 2.0
        mu, alpha, beta = rate / 2, 0.5, 1.0
        csr_rate = 1e4 if tiny else 4e4
        h = format(horizon, "g")
        commands = [
            Command(["simulate", "hpp", "--rate", format(rate, "g"), "--horizon", h],
                    {"events.csv": ("t", None)}),
            Command(["simulate", "nhpp", "--intensity", "sinusoid", "--base", format(base, "g"),
                     "--amplitude", format(amplitude, "g"), "--period", format(period, "g"),
                     "--horizon", h], {"events.csv": ("t", None)}),
            Command(["simulate", "hawkes", "--mu", format(mu, "g"), "--alpha", format(alpha, "g"),
                     "--beta", format(beta, "g"), "--horizon", h], {"events.csv": ("t", None)}),
            Command(["simulate", "csr", "--rate", format(csr_rate, "g"), "--region", "0,1,0,1"],
                    {"points.csv": ("x,y", None)}),
        ]
        # expected count and its standard deviation per command
        n_star = alpha / beta
        hawkes_mean = (mu * horizon / (1 - n_star)
                       - mu * n_star / (beta * (1 - n_star) ** 2)
                       * (1 - math.exp(-(1 - n_star) * beta * horizon)))
        moments = [
            (rate * horizon, math.sqrt(rate * horizon)),
            # whole periods: the sine integrates to zero
            (base * horizon, math.sqrt(base * horizon)),
            (hawkes_mean, math.sqrt(mu * horizon / (1 - n_star) ** 3)),
            (csr_rate, math.sqrt(csr_rate)),
        ]
        return Prepared(commands, None, {"moments": moments})

    @staticmethod
    def _counts(prep, outdirs):
        return [_count_rows(d / name)[1]
                for d, cmd in zip(outdirs, prep.commands) for name in cmd.outputs]

    def check(self, prep, outdirs):
        errors = []
        for cmd, n, (mean, sd) in zip(prep.commands, self._counts(prep, outdirs),
                                      prep.facts["moments"]):
            if abs(n - mean) > 5 * sd:
                errors.append(f"stream: {cmd.argv[1]} wrote {n} rows, expected {mean:.0f} +- 5*{sd:.0f}")
        return errors

    def work(self, prep, outdirs):
        return float(sum(self._counts(prep, outdirs)))


class Combined(Workload):
    """Several parts in one pass; its work is the sum of theirs."""

    def __init__(self, name: str, parts: list[Workload]):
        self.name, self._parts = name, parts

    @property
    def parts(self) -> list[Workload]:
        return self._parts

    def prepare(self, seed, inputs, tiny):
        preps = [part.prepare(seed, inputs, tiny) for part in self.parts]
        return Prepared([cmd for p in preps for cmd in p.commands], None, {"parts": preps})

    def _split(self, prep, outdirs):
        start = 0
        for part, p in zip(self.parts, prep.facts["parts"]):
            yield part, p, outdirs[start:start + len(p.commands)]
            start += len(p.commands)

    def check(self, prep, outdirs):
        return [e for part, p, dirs in self._split(prep, outdirs) for e in part.check(p, dirs)]

    def work(self, prep, outdirs):
        return sum(part.work(p, dirs) for part, p, dirs in self._split(prep, outdirs))


PARTS: dict[str, Workload] = {w.name: w for w in (Scan(), Envelope(), Pattern(), Stream())}

WORKLOADS: dict[str, Workload] = {
    "scan": PARTS["scan"],
    "analysis": Combined("analysis", [PARTS["envelope"], PARTS["pattern"], PARTS["stream"]]),
}
WHY = {
    "scan": ("space-time scan on ~1,650 events with a planted cluster: 132,300 cylinders "
             "x 100 Monte Carlo sets; the only workload that reaches the scan engine"),
    "analysis": ("K/G/F with 99-replicate envelopes on 500 points, KDE/K/NNI/quadrat/GI* on "
                 "a 20,000-row CSV, HPP/NHPP/Hawkes/CSR simulation: spatial, temporal and io"),
}
WORK_UNIT = {
    "scan": "cylinder evaluations (cylinders x (nsim+1))",
    "analysis": ("points handled: (nsim+1) x points per envelope command, input points per "
                 "pattern command, rows written per simulation"),
}
