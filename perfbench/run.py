"""torusrep benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the end-to-end metrics are measured untraced, and the
timings are scaled to the machine speed sampled during the run (speed.py);
with --trace 1 a traced run gives the per-layer metrics, and an untraced run
of the same length gives the tracing overhead.  Each run happens in a fresh
worker interpreter (perfbench/worker.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit
code is 0 only when every report was correct; 2 when the benchmark could
not run at all (then no result is printed).
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists in a section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def spawn_worker(deadline: float, **opts) -> Dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py")]
    cmd += [f"{k}={v}" for k, v in opts.items()]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker failed ({proc.returncode}): "
                             f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed nothing")
    return json.loads(lines[-1])


def environment(seed: int) -> Dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "torusrep", "*.py"))):
        with open(path, "rb") as fh:
            src_hash.update(fh.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": model,
            "commit": commit, "src_sha256": src_hash.hexdigest(), "seed": seed}


def count_failures(passes: List[Dict]):
    records = [r for p in passes for r in p["invocations"]]
    failures = [r for r in records if r["problem"]]
    return len(records), failures


def median_of(passes: List[Dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def untraced_run(args, deadline: float):
    setups = [spawn_worker(deadline, src=SRC, workload=args.workload,
                           seed=args.seed, mode="setup")["setup_s"]
              for _ in range(SETUP_PROBES)]
    run = spawn_worker(deadline, src=SRC, workload=args.workload,
                       seed=args.seed, seconds=args.seconds, calibrate=1)
    setups.append(run["setup_s"])
    passes = run["passes"]
    attempted, failures = count_failures(passes)
    raw = {key: median_of(passes, key) for key in ("wall_s", "cpu_s", "suite_s_max")}
    metrics = {key: value * run["speed"] for key, value in raw.items()}
    metrics.update(setup_s=statistics.median(setups) * run["speed"],
                   peak_rss_mb=run["peak_rss_mb"],
                   ok_frac=1.0 - len(failures) / attempted)
    raw.update(setup_s=statistics.median(setups), speed=run["speed"],
               speed_samples=run["speed_samples"])
    detail = {"passes": passes, "setup_samples": setups, "unscaled": raw}
    return metrics, metric_units("end_to_end"), attempted, failures, [], detail


def traced_run(args, deadline: float):
    units = metric_units("per_layer")
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    plain = spawn_worker(deadline, src=SRC, workload=args.workload,
                         seed=args.seed, seconds=args.seconds / 2)
    traced = spawn_worker(deadline, src=SRC, workload=args.workload,
                          seed=args.seed, seconds=args.seconds / 2,
                          trace=1, spans=spans)
    passes = plain["passes"] + traced["passes"]
    attempted, failures = count_failures(passes)
    problems = []
    for a, b in zip(plain["passes"], traced["passes"]):
        if [r["digest"] for r in a["invocations"]] != [r["digest"] for r in b["invocations"]]:
            problems.append("traced and untraced reports differ")
    # Times are medians over the traced passes; counts and ratios come from
    # pass 0, whose inputs depend on the run seed alone, so they repeat
    # exactly for a seed.
    layers = traced["layers"]
    metrics = {name: statistics.median(layer[name] for layer in layers)
               if units[name] == "s" else layers[0][name]
               for name in units if name in layers[0]}
    metrics["trace.overhead_s"] = (median_of(traced["passes"], "wall_s")
                                   - median_of(plain["passes"], "wall_s"))
    missing = sorted(set(units) - set(metrics))
    if missing:
        problems.append(f"per-layer metrics not measured: {missing}")
    for fn, workload in workloads.COVERAGE.items():
        calls = layers[0].get(fn + ".calls", 0)
        if workload == args.workload and not calls:
            problems.append(f"coverage: {fn} recorded no call on {workload}")
    detail = {"passes": passes, "layers_all": layers, "spans_file": spans}
    return metrics, units, attempted, failures, problems, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    try:
        workloads.lookup(args.workload)
    except KeyError:
        sys.stderr.write(f"benchmark error: unknown workload {args.workload}\n")
        return 2
    try:
        if not os.path.isdir(os.path.join(SRC, "torusrep")):
            raise BenchmarkError(f"no torusrep sources under {SRC}")
        run = traced_run if args.trace else untraced_run
        metrics, units, attempted, failures, problems, detail = run(args, deadline)
    except (BenchmarkError, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2

    env = environment(args.seed)
    env.update(workload=args.workload, seconds=args.seconds, trace=args.trace,
               passes=len(detail["passes"]))
    for (argv, problem), n in Counter((r["argv"], r["problem"]) for r in failures).items():
        sys.stderr.write(f"FAILED {argv}: {problem} (x{n})\n")
    for p in problems:
        sys.stderr.write(f"FAILED {p}\n")
    correct = not failures and not problems
    os.makedirs(OUT, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump({"env": env, "metrics": metrics, "problems": problems,
                   **detail}, fh, indent=1)
    for key, value in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {units[key]}")
    for key, value in detail.get("unscaled", {}).items():
        print(f"{args.workload} unscaled {key} = {value:.6g}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
