"""What the benchmark measures: workloads, metric names, units and bounds.

``BENCHMARK.json`` at the repository root is written from this module
(``python3 bench/run.py --all`` rewrites it), so the runner and the file
cannot disagree.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import WHY, WORKLOADS

RUN_SECONDS = 45

# name, unit, better, bound (the share of the parent's median by which the
# metric may worsen).  Timings get the widest bound allowed, 0.25: on the
# shared 2-vCPU machine the benchmark was built on, the same pass runs 1.0x
# to 1.5x its fastest time in phases lasting from seconds to minutes.  With
# runs of RUN_SECONDS in three processes, the spread (quartile distance over
# median) of the median pass time over ten seeds was 6-8% on analysis and
# 2-20% on scan there.  fail_ratio is
# reported next to these, but is not one of them: it is 0 on a healthy run,
# and failures already travel in the result's "attempted" and "failed".
END_TO_END = [
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

# name, unit, better, home.  A per-layer metric is measured on its home
# part (workloads.PARTS), the one whose commands it should speed up,
# whatever --workload names; home None means the requested workload itself.
PER_LAYER = [
    ("detect.scan_s", "s", "lower", "scan"),
    ("detect.scan.replicate_s", "s", "lower", "scan"),
    ("detect.scan.self_s", "s", "lower", "scan"),
    ("detect.scan.cylinders", "count", "lower", "scan"),
    ("detect.scan.cylinders_per_s", "1/s", "higher", "scan"),
    ("detect.scan.peak_alloc_mib", "MiB", "lower", None),
    ("detect.scan.threads2_speedup", "ratio", "higher", "scan"),
    ("spatial.envelope_s", "s", "lower", "envelope"),
    ("spatial.replicate_sim_s", "s", "lower", "envelope"),
    ("spatial.replicates", "count", "lower", "envelope"),
    ("spatial.redraws", "count", "lower", "envelope"),
    ("core.substreams", "count", "lower", "envelope"),
    ("spatial.envelope.threads2_speedup", "ratio", "higher", "envelope"),
    ("spatial.statistic_s", "s", "lower", "pattern"),
    ("spatial.statistic_calls", "count", "lower", "pattern"),
    ("detect.gistar_s", "s", "lower", "pattern"),
    ("io.read_s", "s", "lower", "pattern"),
    ("io.rows_read", "count", "lower", "pattern"),
    ("temporal.intensity_build_s", "s", "lower", "stream"),
    ("temporal.simulate_hpp_s", "s", "lower", "stream"),
    ("temporal.simulate_nhpp_s", "s", "lower", "stream"),
    ("temporal.simulate_hawkes_s", "s", "lower", "stream"),
    ("temporal.events", "count", "lower", "stream"),
    ("temporal.nhpp_accept_ratio", "ratio", "higher", "stream"),
    ("io.write_s", "s", "lower", "stream"),
    ("io.bytes_written", "count", "lower", "stream"),
    ("cli.self_s", "s", "lower", None),
    ("trace.overhead_s", "s", "lower", None),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def write_benchmark_json(root: Path) -> None:
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
