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
  the change was better.  When the change wins at least PAIRS - 1 or at
  most 1 of a workload's pairs on ``wall_s``, it runs PAIRS more pairs of
  that workload, each with the other side first, and records their
  summaries under ``other_side_first``;
- the probes, ``torusrep.cli.main`` on each argv of PROBES (argvs both
  sides accept: the deep-degree duality runs, without the highest-weight
  checks two flavours at n_max 6, 8 and 10 and three flavours at n_max 5,
  with them rank 3 and two flavours at n_max 5; the level-one
  nilpotency suite at rank 2 to degree 2 and rank 3 to degree 1; the
  highest-weight suite at rank 3 with three distinct flavours to mu
  bound 3; the module suite at rank 2 with two distinct flavours to
  degree 1; the bracket and theta suites at rank 3, q = 5/2, 20 000
  trials; and the two branching tables at rank 10 (Levi, GL_5 x GL_5)
  and rank 5 (diagonal, four factors)),
  PAIRS alternating pairs: the call's wall time and the CPU time of the
  child process spent in it, the peak RSS of the process and the
  sha256 of the report the call writes to stdout; per time it records the
  medians, the parent's quartiles and in how many of the pairs where both
  sides completed the change was faster.  Each run is a child process
  whose address space is limited to PROBE_AS_BYTES (2 GiB) and whose time
  to PROBE_TIMEOUT_S; a run that exceeds either is recorded as not
  completed;
- the import probe: IMPORT_PAIRS (30) alternating pairs of
  ``perfbench/worker.py mode=setup`` (the timed import of ``torusrep.cli``
  and the set-up of the workload's argv lists), each run in a fresh
  interpreter with the bytecode caches of its side removed first; it
  records the ``setup_s`` of every run, the medians, the parent's quartiles
  and in how many pairs the change was faster;
- the 16-job battery ``scripts/run_verification.py OUTDIR``, BATTERY_RUNS
  (3) runs per side: the process's wall time, each job's time as the
  script prints it, and the sha256 of each report, which must agree
  between the sides;
- one ``perfbench/run.py --trace 1`` run of each side per workload, for
  the coverage check, the elimination counts, the Fock-action counts and
  the ``CachedAction`` counts.

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
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("deep_degree", "fixed_space", "fock_action", "algebra")
PROBES = {
    f"n_max_{n}": f"verify-duality --N 2 --ell 2 --a 3,3 --n-max {n} --skip-hw"
    for n in (6, 8, 10)}
PROBES["ell_3_n_max_5"] = "verify-duality --N 2 --ell 3 --a 3,3,3 --n-max 5 --skip-hw"
PROBES["hw_N_3_n_max_5"] = "verify-duality --N 3 --ell 2 --a 3,3 --n-max 5"
PROBES["nilpotency_N_2_deg_2"] = "verify-nilpotency --N 2 --ell 1 --a 3 --deg-max 2"
PROBES["nilpotency_N_3_deg_1"] = "verify-nilpotency --N 3 --ell 1 --a 3 --deg-max 1"
PROBES["hw_N_3_ell_3"] = "verify-hw --N 3 --ell 3 --a 3,5,7 --mu-bound 3"
PROBES["module_N_2_ell_2_deg_1"] = ("verify-module --N 2 --ell 2 --a 3,5 --trials 100"
                                    " --deg-max 1 --seed 7")
PROBES["bracket_N_3_trials_20000"] = "verify-bracket --N 3 --q 5/2 --trials 20000 --seed 0"
PROBES["theta_N_3_trials_20000"] = "verify-theta --N 3 --q 5/2 --trials 20000 --seed 0"
PROBES["levi_gl10"] = ('branch --mode levi --I "[[1,2,3,4,5],[6,7,8,9,10]]"'
                       ' --J "[[1,2,3,4,5,6,7,8,9,10]]" --xi "(9,7,6,5,4,3,2,1,0,0)"'
                       ' --mu "(0,0,0,0,0)"')
PROBES["diag_gl5"] = ('branch --mode diag --I "[[1,2,3,4,5]]"'
                      ' --mus "(4,3,2,1,0);(3,2,1,1,0);(2,2,1,0,0);(3,1,0,0,-1)"')
PROBE_AS_BYTES = 2 << 30
PROBE_TIMEOUT_S = 600
PAIRS = 10
IMPORT_PAIRS = 30
SECONDS = 20
BATTERY_RUNS = 3
PROBE = """\
import contextlib, hashlib, io, json, resource, shlex, time
from torusrep.cli import main
argv = shlex.split({argv!r})
out = io.StringIO()
t, c = time.perf_counter(), time.process_time()
with contextlib.redirect_stdout(out):
    code = main(argv)
s, cpu = time.perf_counter() - t, time.process_time() - c
print(json.dumps({{
    "wall_s": round(s, 3),
    "cpu_s": round(cpu, 3),
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


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (PROBE_AS_BYTES, PROBE_AS_BYTES))


def probe(root: pathlib.Path, argv: str):
    """One probe run in a fresh, address-space-limited interpreter; None
    when it runs out of memory or time."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, "-c", PROBE.format(argv=argv)], env=env,
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              preexec_fn=limit_address_space)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_setup_s(root: pathlib.Path) -> float:
    """The set-up time of one perfbench worker with no bytecode cache: the
    import of torusrep.cli from root/src, and the argv lists."""
    clear_bytecode(root)
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", f"src={root / 'src'}", "workload=algebra",
         "seed=0", "mode=setup"], cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


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
    for name, argv in PROBES.items():
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            for side in order(k):
                runs[side].append(probe(sides[side], argv))
                print(f"probe {name} {side}: {runs[side][-1]}", file=sys.stderr)
        probes[name] = {"argv": argv}
        for side, rs in runs.items():
            done = [r for r in rs if r is not None]
            probes[name][side] = {
                "completed": len(done), "runs": len(rs),
                "wall_s": [r["wall_s"] for r in done],
                "cpu_s": [r["cpu_s"] for r in done],
                "peak_rss_mb": [r["peak_rss_mb"] for r in done],
                "peak_rss_mb_max": max((r["peak_rss_mb"] for r in done), default=None),
                "passed": all(r["passed"] for r in done),
                "report_sha256": sorted({r["report_sha256"] for r in done})}
        pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
                 if p is not None and c is not None]
        probes[name]["complete_pairs"] = len(pairs)
        for key in ("wall_s", "cpu_s"):
            probes[name][key] = summarize([p[key] for p, _ in pairs],
                                          [c[key] for _, c in pairs], "lower") if pairs else None

    setups = {"parent": [], "change": []}
    for k in range(IMPORT_PAIRS):
        for side in order(k):
            setups[side].append(import_setup_s(sides[side]))
        print(f"import pair {k}: {setups['parent'][-1]:.4f} {setups['change'][-1]:.4f}",
              file=sys.stderr)
    imports = {"runs": setups, "setup_s": summarize(setups["parent"], setups["change"],
                                                    "lower")}

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

    def perfbench_pairs(workload, shift):
        """PAIRS untraced pairs, pair k run in order(k + shift): the
        per-metric summaries and the run results of each side."""
        values = {"parent": [], "change": []}
        for k in range(PAIRS):
            for side in order(k + shift):
                result, _ = perfbench(sides[side], workload, 0)
                values[side].append(result)
                print(f"{workload} {side}: wall_s "
                      f"{result['metrics']['wall_s']['value']:.4f}", file=sys.stderr)
        return {name: summarize([r["metrics"][name]["value"] for r in values["parent"]],
                                [r["metrics"][name]["value"] for r in values["change"]],
                                better)
                for name, better in metrics.items()}, values

    trace0 = {}
    for workload in WORKLOADS:
        summary, values = perfbench_pairs(workload, 0)
        entry = {"pairs": PAIRS, **summary}
        entry["attempted"] = {s: [r["attempted"] for r in rs] for s, rs in values.items()}
        entry["failed"] = {s: sum(r["failed"] for r in rs) for s, rs in values.items()}
        # a one-sided set may be drift of the machine: repeat it with the
        # other side first in every pair
        if not 1 < entry["wall_s"]["change_better_pairs"] < PAIRS - 1:
            entry["other_side_first"], _ = perfbench_pairs(workload, 1)
        trace0[workload] = entry

    trace1 = {}
    for workload in WORKLOADS:
        trace1[workload] = {}
        for side, root in sides.items():
            result, code = perfbench(root, workload, 1)
            entry = {"exit_code": code, "correct": result["correct"],
                     "failed": result["failed"]}
            entry.update({name: m["value"] for name, m in result["metrics"].items()
                          if name.startswith(("linalg.nullspace.", "fock.basis_monomials.",
                                              "duality.weight_spaces.", "duality.fixed_space.",
                                              "duality.joint_hw_dim.", "fock.rho_action.",
                                              "fock.gl_ell_action.", "fock.bilinear_on_monomial.",
                                              "fock.rho_mat_on_monomial.", "verify.CachedAction."))
                          and not name.endswith(".self_s")})
            trace1[workload][side] = entry

    parent_commit = None
    if (args.parent / ".git").exists():
        parent_commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=args.parent,
                                       capture_output=True, text=True).stdout.strip()
    out = {
        "what": args.what,
        "parent_commit": parent_commit,
        "env": environment(),
        "src_sha256": {side: src_sha256(root) for side, root in sides.items()},
        "probes": {
            "command": "PYTHONPATH=src python3 -c " + json.dumps(PROBE.format(argv="ARGV")),
            "note": "ARGV = each probe's argv; one fresh interpreter per run, parent "
                    "and change alternated, each under RLIMIT_AS = "
                    f"{PROBE_AS_BYTES >> 20} MiB and a {PROBE_TIMEOUT_S} s timeout; "
                    "wall_s is the main() call alone (parsing, the suite and the JSON "
                    "report), cpu_s the process CPU time of that call, peak_rss_mb "
                    "ru_maxrss of the whole process; wall_s and cpu_s summarize the "
                    "pairs where both sides completed",
            "results": probes,
        },
        "import": {
            "command": "python3 perfbench/worker.py src=SRC workload=algebra seed=0 mode=setup",
            "note": f"{IMPORT_PAIRS} pairs, parent and change alternated, bytecode caches "
                    "of the side removed before every run; setup_s unscaled, as the "
                    "worker prints it",
            "results": imports,
        },
        "battery": {
            "command": "python3 scripts/run_verification.py OUTDIR",
            "note": "one fresh interpreter per run, parent and change alternated; "
                    "wall_s is the whole process, job_s_median the per-job times "
                    "the script prints (0.001 s resolution)",
            "results": batteries,
        },
        "perfbench_trace0": {
            "command": f"python3 perfbench/run.py --workload W --seed 0 "
                       f"--seconds {SECONDS} --trace 0",
            "note": "bytecode caches removed before every run, pairs alternating "
                    "which side ran first; medians of the speed-scaled run values; "
                    "other_side_first: a second set of pairs, each in the other order, "
                    "run when the change won at least PAIRS - 1 or at most 1 pairs "
                    "on wall_s",
            "workloads": trace0,
        },
        "perfbench_trace1": {
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
