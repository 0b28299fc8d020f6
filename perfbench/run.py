"""weylnet benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Inputs are generated from ``--seed``
into a work directory under ``.bench_build/`` (generation is not
timed).  Jobs run one at a time, each in a fresh interpreter, in closed
loop from this one process; passes over the job list repeat while the
next one would end nearer to ``--seconds`` than the last.  Every job's
output is checked.

``--trace 0`` reports the end-to-end metrics (median over passes;
``setup_s`` is the median of fresh ``weylnet --help`` runs spread over
the run).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  A JSON result file with every
sample, quartiles and the environment is written to ``--result``; the
last line of standard output is the summary object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1          # pinned in every child; never above nproc
SETUP_SAMPLES = 5
RUN_LIMIT_S = 160.0       # no job runs past this, so a run ends well within 180 s
STARTED = time.monotonic()

END_TO_END = {"wall_s": "s", "max_job_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def job_units() -> dict:
    units = {}
    for ids in workloads.JOB_IDS.values():
        for job_id in ids:
            units[f"job.{job_id}.s"] = "s"
            units[f"job.{job_id}.rss_mb"] = "MB"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    return env


class Launcher:
    """Client of launch.py, which spawns, times and reaps every job."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = child_env()

    def run(self, argv: list[str], limit_s: float, cwd: str, log: str) -> dict:
        """Run child.py with ``argv``; seconds, exit code, peak RSS (MB), killed."""
        request = {"argv": [sys.executable, str(HERE / "child.py"), *argv], "env": self.env,
                   "cwd": cwd, "limit_s": limit_s, "log": log}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def stderr_tail(log: str) -> str:
    with open(log + ".stderr", errors="replace") as fh:
        lines = fh.read().strip().splitlines()
    return lines[-1] if lines else ""


def run_pass(jobs, launcher: Launcher, work: str, traced: bool) -> dict:
    tally = layers.LayerTally() if traced else None
    results = []
    for job in jobs:
        for path in job.outputs:
            if os.path.exists(path):
                os.remove(path)
        log = os.path.join(work, job.id)
        remaining = RUN_LIMIT_S - (time.monotonic() - STARTED)
        if remaining <= 0:
            results.append({"id": job.id, "s": None, "rss_mb": None,
                            "error": "run time limit reached before the job started"})
            continue
        spans = os.path.join(work, f"{job.id}.spans.json")
        argv = (["--spans", spans] if traced else []) + [job.kind, *job.args]
        run = launcher.run(argv, min(job.limit_s, remaining), work, log)
        error = None
        if run["killed"]:
            error = f"killed after {run['seconds']:.1f} s (limit {job.limit_s:.0f} s)"
        else:
            try:
                job.check(run["code"])
            except Exception as exc:  # any malformed output fails the job
                error = f"{type(exc).__name__}: {exc}"
                if run["code"] != 0:
                    error += f" [{stderr_tail(log)}]"
        results.append({"id": job.id, "s": run["seconds"], "rss_mb": run["rss_mb"], "error": error})
        if traced and os.path.exists(spans):
            with open(spans) as fh:
                job_spans = json.load(fh)
            os.remove(spans)
            tally.add_job(job_spans)
            own = layers.LayerTally()
            own.add_job(job_spans)
            results[-1]["self_s"] = dict(own.self_s.most_common())
    done = [r for r in results if r["s"] is not None]
    return {
        "traced": traced,
        "wall_s": sum(r["s"] for r in done),
        "max_job_s": max((r["s"] for r in done), default=0.0),
        "peak_rss_mb": max((r["rss_mb"] for r in done), default=0.0),
        "jobs": results,
        "layers": tally.metrics() if traced else None,
    }


def summary(samples: list[float], unit: str) -> dict:
    """Median, quartiles and sample count."""
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (med, med, med)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(samples)}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "commit": commit(),
        "seed": seed,
    }


def measure(args, work: str, launcher: Launcher) -> dict:
    jobs = workloads.build(args.workload, args.seed, work)
    if args.smoke:
        jobs = jobs[:1]
    attempted, failures = 0, []

    # Set-up samples are spread over the run (one before each untraced
    # pass, one after the last, the rest at the end) so that their median
    # does not rest on the machine's speed in a single stretch of seconds.
    setup = []

    def setup_sample():
        nonlocal attempted
        run = launcher.run(["cli", "--help"], 30.0, work, os.path.join(work, f"setup{len(setup)}"))
        attempted += 1
        if run["code"] != 0 or run["killed"]:
            failures.append({"id": "setup", "error": f"exit code {run['code']}"})
        setup.append(run["seconds"])

    kinds = [False, True] if args.trace else [False]
    passes = []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        traced = kinds[len(passes) % len(kinds)]
        if not args.trace:
            setup_sample()
        passes.append(run_pass(jobs, launcher, work, traced))
        passes[-1]["elapsed_s"] = time.monotonic() - pass_start
        if len(passes) < len(kinds):
            continue
        next_kind = kinds[len(passes) % len(kinds)]
        estimate = [p["elapsed_s"] for p in passes if p["traced"] == next_kind][-1]
        now = time.monotonic()
        # the next pass runs if it would end nearer to --seconds than this
        # one did, so a run measures --seconds on average at any pass length
        if now - start + estimate / 2 > args.seconds or now - STARTED + estimate > RUN_LIMIT_S:
            break
    while not args.trace and (len(setup) < len(passes) + 1 or len(setup) < SETUP_SAMPLES):
        setup_sample()

    for p in passes:
        attempted += len(p["jobs"])
        failures += [{"id": j["id"], "error": j["error"]} for j in p["jobs"] if j["error"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        for name, unit in layers.UNITS.items():
            if name != "trace.overhead_ratio":
                metrics[name] = summary([p["layers"][name] for p in traced], unit)
        ratio = (statistics.median(p["wall_s"] for p in traced)
                 / statistics.median(p["wall_s"] for p in plain) - 1.0)
        metrics["trace.overhead_ratio"] = summary([ratio], "ratio")
        for name, unit in job_units().items():
            _, job_id, field = name.split(".")
            key = "s" if field == "s" else "rss_mb"
            values = [j[key] for p in plain for j in p["jobs"] if j["id"] == job_id and j[key] is not None]
            metrics[name] = summary(values or [0.0], unit)
    else:
        for name in ("wall_s", "max_job_s", "peak_rss_mb"):
            metrics[name] = summary([p[name] for p in plain], END_TO_END[name])
        metrics["setup_s"] = summary(setup, "s")
    fail_ratio = len(failures) / attempted
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": environment(args.seed),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": fail_ratio,
        "failures": failures,
        "metrics": metrics,
        "setup_samples": setup,
        "passes": passes,
    }


def print_report(result: dict):
    print(f"# weylnet benchmark: workload {result['workload']}, seed "
          f"{result['environment']['seed']}, trace {result['trace']}, "
          f"{sum(not p['traced'] for p in result['passes'])} untraced / "
          f"{sum(p['traced'] for p in result['passes'])} traced passes")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']:6s} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
    print(f"{'fail_ratio':40s} {result['fail_ratio']:14.6g} {'ratio':6s} "
          f"{result['failed']} of {result['attempted']} failed")
    for p in result["passes"][:2]:
        for j in p["jobs"]:
            if "self_s" in j:
                top = ", ".join(f"{k} {v:.3g} s" for k, v in list(j["self_s"].items())[:3])
                print(f"# traced {j['id']}: most self time in {top}")
    for f in result["failures"]:
        print(f"# FAILED {f['id']}: {f['error']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run only the smallest job, once")
    parser.add_argument("--result", default=None, help="result file (default under .bench_build/)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "weylnet" / "cli.py").is_file():
        print(f"perfbench: no weylnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    launcher = Launcher()
    work = tempfile.mkdtemp(prefix=f"perfbench-{args.workload}-", dir=build)
    try:
        result = measure(args, work, launcher)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    path = Path(args.result) if args.result else (
        build / "perfbench-results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    print_report(result)
    print(f"# result file: {path}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
