"""Compare two sets of benchmark results, one row per workload and
end-to-end metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a result file written by run.py (``--result``) or
a directory of them; only untraced (``--trace 0``) results are read.
With several runs of a workload on one side, each run's median is one
sample; with a single run, its passes (and set-up runs) are the samples.

Verdicts, with the bound each metric has in BENCHMARK.json:
  better        the new median is lower by more than the base's
                quartile spread, or every new sample beats every base one
  within bound  the new median is at most ``bound`` (a share of the base
                median) worse
  worse         the new median is more than ``bound`` worse
  unresolved    either side's quartile spread exceeds the bound, or a
                side has fewer than 3 samples and the change exceeds it
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SAMPLES = 3  # fewer samples on a side give no spread to judge by


def load(path: Path) -> dict:
    """workload -> list of untraced result objects."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict = {}
    for f in files:
        result = json.loads(f.read_text())
        if result.get("trace") == 0 and not result.get("smoke"):
            runs.setdefault(result["workload"], []).append(result)
    return runs


def samples(runs: list, metric: str) -> list[float]:
    if len(runs) > 1:
        return [r["metrics"][metric]["value"] for r in runs]
    if metric == "setup_s":
        return runs[0]["setup_samples"]
    return [p[metric] for p in runs[0]["passes"] if not p["traced"]]


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], bound: float) -> str:
    """Lower is better for every end-to-end metric."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    change = (nmed - bmed) / bmed
    if min(len(base), len(new)) < MIN_SAMPLES:
        return "within bound" if abs(change) <= bound else "unresolved"
    if max(base) < min(new) and change > bound:
        return "worse"
    if max(new) < min(base):
        return "better"
    if max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed) > bound:
        return "unresolved"
    if change > bound:
        return "worse"
    if bmed - nmed > bq3 - bq1:
        return "better"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    header = (f"{'workload':13s} {'metric':12s} {'base median [q1, q3] n':34s} "
              f"{'new median [q1, q3] n':34s} {'change':>8s} {'bound':>6s}  verdict")
    print(header)
    for workload in sorted(set(base) & set(new)):
        for metric, bound in bounds.items():
            b, n = samples(base[workload], metric), samples(new[workload], metric)
            cells = []
            for xs in (b, n):
                q1, med, q3 = quartiles(xs)
                cells.append(f"{med:.4g} {units[metric]} [{q1:.4g}, {q3:.4g}] {len(xs)}")
            change = statistics.median(n) / statistics.median(b) - 1
            print(f"{workload:13s} {metric:12s} {cells[0]:34s} {cells[1]:34s} "
                  f"{change:+8.1%} {bound:6.2f}  {verdict(b, n, bound)}")
        ratios = []
        for runs in (base[workload], new[workload]):
            ratios.append(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs))
        state = "worse" if ratios[1] > ratios[0] else ("better" if ratios[1] < ratios[0] else "same")
        print(f"{workload:13s} {'fail_ratio':12s} {ratios[0]:<34.4g} {ratios[1]:<34.4g} "
              f"{'':>8s} {'':>6s}  {state}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print(f"# workloads on one side only: {', '.join(missing)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
