#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 bench/smoke.py

Asserts that each run succeeds with no failed operation, that its result
names exactly the metrics BENCHMARK.json lists (with their units), and
that BENCHMARK.json is the one spec.py writes.  Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import spec
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json(), "BENCHMARK.json is stale: run bench/run.py --all"
    wanted = {0: on_disk["end_to_end"], 1: on_disk["per_layer"]}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                   "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, f"{name} trace {trace}: {proc.stderr[-1000:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (name, trace, proc.stderr[-1000:])
            assert result["attempted"] >= 1
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in wanted[trace]}, (name, trace, units)
            values = [m["value"] for m in result["metrics"].values()]
            assert all(isinstance(v, (int, float)) for v in values), (name, trace, values)
            print(f"ok  {name:9s} trace {trace}  attempted {result['attempted']}  fail_ratio 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
