"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json once at its smallest job, untraced
and traced, and checks that each run exits 0, ends with the summary
object, emits exactly the metrics BENCHMARK.json names with their units,
and has no failed job.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: summary keys {sorted(result)}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                problems.append(f"{where}: metrics differ; missing {missing}, extra {extra}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} failed")
            print(f"{where}: {len(got)} metrics, {result['attempted']} attempted, "
                  f"{result['failed']} failed")
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
