#!/usr/bin/env python3
"""Benchmark this checkout against a parent checkout and write BENCH_<PR>.json.

Usage:
    python3 scripts/bench.py --parent DIR --pr N [--what TEXT]

DIR is a second checkout of the parent commit (``git archive`` or
``git clone``).  The script runs, in fresh interpreters and alternating
which side goes first:

- ``perfbench/run.py --seed 0 --trace 0 --seconds 20`` on the four
  workloads, PAIRS (10) pairs each, with the bytecode caches of both sides
  removed before every run; per metric it records the medians of the
  speed-scaled run values, the parent's quartiles, and in how many pairs
  the change was better;
- the check-free deep-degree probe, ``torusrep.cli.main`` on
  ``verify-duality --N 2 --ell 2 --a 3,3 --n-max N --skip-hw`` (an argv
  both sides accept) at n_max 6 and 8, PROBE_RUNS (3) runs per side: the
  call's wall time, the peak RSS of the process and the sha256 of the
  report the call writes to stdout;
- the 16-job battery ``scripts/run_verification.py OUTDIR``, BATTERY_RUNS
  (3) runs per side: the process's wall time, each job's time as the
  script prints it, and the sha256 of each report, which must agree
  between the sides;
- one ``perfbench/run.py --trace 1`` run of the change per workload, for
  the coverage check and the elimination counts.

The result goes to BENCH_<N>.json at the root of this checkout.
"""
import argparse
import glob
import hashlib
import json
import os
import pathlib
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("deep_degree", "fixed_space", "fock_action", "algebra")
PROBE_DEGREES = (6, 8)
PAIRS = 10
SECONDS = 20
PROBE_RUNS = 3
BATTERY_RUNS = 3
PROBE = """\
import contextlib, hashlib, io, json, resource, time
from torusrep.cli import main
argv = "verify-duality --N 2 --ell 2 --a 3,3 --n-max {n} --skip-hw".split()
out = io.StringIO()
t = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(argv)
s = time.perf_counter() - t
print(json.dumps({{
    "wall_s": round(s, 3),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "passed": code == 0,
    "report_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}}))
"""


def end_to_end_metrics():
    """Name -> 'lower' / 'higher' for the end-to-end metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def src_sha256(root: pathlib.Path) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(str(root / "src" / "torusrep" / "*.py"))):
        h.update(pathlib.Path(path).read_bytes())
    return h.hexdigest()


def clear_bytecode(root: pathlib.Path) -> None:
    for cache in root.glob("src/**/__pycache__"):
        shutil.rmtree(cache, ignore_errors=True)


def perfbench(root: pathlib.Path, workload: str, trace: int):
    """The result line of one perfbench run, and its exit code."""
    clear_bytecode(root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(f"perfbench failed in {root}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), proc.returncode


def probe(root: pathlib.Path, n: int):
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", PROBE.format(n=n)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def battery(root: pathlib.Path):
    """One run of the battery in a fresh interpreter: its wall time, exit
    code, per-job times and report digests."""
    clear_bytecode(root)
    with tempfile.TemporaryDirectory() as out:
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "scripts/run_verification.py", out],
                              cwd=root, capture_output=True, text=True)
        wall = time.perf_counter() - t
        reports = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(pathlib.Path(out).glob("*.json"))}
    jobs = {name: float(s) for name, s in
            re.findall(r"^(\S+)\s+(?:pass|FAIL)\s+\(\s*([\d.]+)s\)", proc.stdout, re.M)}
    return {"wall_s": round(wall, 3), "exit_code": proc.returncode,
            "job_s": jobs, "reports": reports}


def summarize(parent, change, better):
    """Medians, the parent's quartiles, and the pairs the change won."""
    wins = sum((c < p) if better == "lower" else (c > p)
               for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4) if len(parent) > 1 else [pm, pm, pm]
    return {"parent_median": round(pm, 4), "change_median": round(cm, 4),
            "parent_quartiles": [round(q[0], 4), round(q[2], 4)],
            "change_better_pairs": wins,
            "rel": round(cm / pm - 1, 4) if pm else 0.0}


def environment():
    model = None
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": model}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path)
    ap.add_argument("--pr", required=True, type=int)
    ap.add_argument("--what", default="")
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    metrics = end_to_end_metrics()

    def order(k):
        return ("parent", "change") if k % 2 == 0 else ("change", "parent")

    probes = {}
    for n in PROBE_DEGREES:
        runs = {"parent": [], "change": []}
        for k in range(PROBE_RUNS):
            for side in order(k):
                runs[side].append(probe(sides[side], n))
                print(f"probe n_max {n} {side}: {runs[side][-1]}", file=sys.stderr)
        probes[f"n_max_{n}"] = {
            side: {"runs": [{"wall_s": r["wall_s"], "peak_rss_mb": r["peak_rss_mb"]}
                            for r in rs],
                   "wall_s_median": statistics.median(r["wall_s"] for r in rs),
                   "peak_rss_mb_max": max(r["peak_rss_mb"] for r in rs),
                   "passed": all(r["passed"] for r in rs),
                   "report_sha256": sorted({r["report_sha256"] for r in rs})}
            for side, rs in runs.items()}

    runs = {"parent": [], "change": []}
    for k in range(BATTERY_RUNS):
        for side in order(k):
            runs[side].append(battery(sides[side]))
            print(f"battery {side}: wall_s {runs[side][-1]['wall_s']}", file=sys.stderr)
    batteries = {
        side: {"wall_s": [r["wall_s"] for r in rs],
               "wall_s_median": statistics.median(r["wall_s"] for r in rs),
               "exit_codes": [r["exit_code"] for r in rs],
               "job_s_median": {job: statistics.median(r["job_s"].get(job, 0.0) for r in rs)
                                for job in rs[0]["job_s"]}}
        for side, rs in runs.items()}
    digests = [r["reports"] for rs in runs.values() for r in rs]
    batteries["reports"] = len(digests[0])
    batteries["reports_identical"] = all(d == digests[0] for d in digests)

    trace0 = {}
    for workload in WORKLOADS:
        values = {"parent": [], "change": []}
        for k in range(PAIRS):
            for side in order(k):
                result, _ = perfbench(sides[side], workload, 0)
                values[side].append(result)
                print(f"{workload} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        entry = {"pairs": PAIRS}
        for name, better in metrics.items():
            entry[name] = summarize(
                [r["metrics"][name]["value"] for r in values["parent"]],
                [r["metrics"][name]["value"] for r in values["change"]], better)
        entry["attempted"] = {s: [r["attempted"] for r in rs] for s, rs in values.items()}
        entry["failed"] = {s: sum(r["failed"] for r in rs) for s, rs in values.items()}
        trace0[workload] = entry

    trace1 = {}
    for workload in WORKLOADS:
        result, code = perfbench(ROOT, workload, 1)
        entry = {"exit_code": code, "correct": result["correct"],
                 "failed": result["failed"]}
        entry.update({name: m["value"] for name, m in result["metrics"].items()
                      if name.startswith(("linalg.nullspace.", "fock.basis_monomials.",
                                          "duality.weight_spaces."))
                      and not name.endswith(".self_s")})
        trace1[workload] = entry

    parent_commit = None
    if (args.parent / ".git").exists():
        parent_commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=args.parent,
                                       capture_output=True, text=True).stdout.strip()
    out = {
        "what": args.what,
        "parent_commit": parent_commit,
        "env": environment(),
        "src_sha256": {side: src_sha256(root) for side, root in sides.items()},
        "deep_degree_probe": {
            "command": "PYTHONPATH=src python3 -c " + json.dumps(PROBE.format(n="N")),
            "note": "N = n_max; one fresh interpreter per run, parent and change "
                    "alternated; wall_s is the main() call alone (parsing, the "
                    "suite and the JSON report), peak_rss_mb is ru_maxrss of the "
                    "whole process",
            "results": probes,
        },
        "battery": {
            "command": "python3 scripts/run_verification.py OUTDIR",
            "note": "one fresh interpreter per run, parent and change alternated; "
                    "wall_s is the whole process, job_s_median the per-job times "
                    "the script prints (0.1 s resolution)",
            "results": batteries,
        },
        "perfbench_trace0": {
            "command": f"python3 perfbench/run.py --workload W --seed 0 "
                       f"--seconds {SECONDS} --trace 0",
            "note": "bytecode caches removed before every run, pairs alternating "
                    "which side ran first; medians of the speed-scaled run values",
            "workloads": trace0,
        },
        "perfbench_trace1_change": {
            "command": f"python3 perfbench/run.py --workload W --seed 0 "
                       f"--seconds {SECONDS} --trace 1",
            "workloads": trace1,
        },
    }
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
