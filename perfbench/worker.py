"""One workload in one fresh interpreter.

Imports torusrep from the checkout and builds the argv lists (the timed
set-up), then runs passes over the workload in a closed loop, one client
and one in-process CLI call at a time, until the time budget is spent.
Every report is checked.  Prints one JSON line.

    python3 perfbench/worker.py src=SRC workload=NAME seed=N seconds=S
        [calibrate=1] [trace=1 spans=FILE] [mode=setup|record]

Arguments are key=value pairs so that nothing beyond sys, os and time is
imported before the set-up clock stops.
"""
import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def import_torusrep(src: str):
    """Import the CLI module from src, never from an installed copy."""
    sys.path.insert(0, src)
    import torusrep.cli
    where = os.path.dirname(os.path.dirname(os.path.abspath(torusrep.cli.__file__)))
    if where != os.path.abspath(src):
        raise ImportError(f"torusrep imported from {where}, not from {src}")
    return torusrep.cli


OPTS = dict(arg.split("=", 1) for arg in sys.argv[1:])

import workloads  # noqa: E402

CLI = import_torusrep(OPTS["src"])
TEMPLATES = workloads.lookup(OPTS["workload"])
RUN_SEED = int(OPTS["seed"])


def plan(k: int):
    """(template, argv, seed) of every invocation of pass k."""
    seed = workloads.pass_seed(RUN_SEED, k)
    return [(t, workloads.argv_for(t, seed), seed) for t in TEMPLATES]


PLAN0 = plan(0)
SETUP_S = time.perf_counter() - T_START

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Decides whether one invocation's outcome is correct.

    Unseeded reports, and seeded ones at the default seed, must match the
    stored reference digest byte for byte.  Seeded reports at other seeds
    must exit 0 with verdict ``pass``.
    """

    def __init__(self):
        with open(REFERENCES) as fh:
            self.refs: Dict[str, str] = json.load(fh)["digests"]

    def problem(self, template: str, seed: int, rc, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if workloads.is_seeded(template) and seed != workloads.DEFAULT_SEED:
            try:
                verdict = json.loads(out).get("verdict")
            except ValueError:
                return "report is not JSON"
            return None if verdict == "pass" else f"verdict {verdict}"
        want = self.refs.get(template)
        if want is None:
            return "no stored reference"
        return None if digest(out) == want else "report differs from reference"


def invoke(argv: List[str]):
    """One in-process CLI call: (exit code, stdout, stderr, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = CLI.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            error = traceback.format_exc(limit=4)
    return rc, out.getvalue(), err.getvalue(), error


def run_pass(invocations, checker: Optional[Checker], probe=None) -> Dict:
    """Run every invocation once; time each and check each (unless
    recording references).  With a speed probe, the time spent in its
    samples is taken out of every interval (see speed.py)."""
    def spent() -> float:
        return probe.spent if probe else 0.0

    if probe:
        probe.sample()
    records = []
    wall0, cpu0, spent0 = time.perf_counter(), time.process_time(), spent()
    for template, argv, seed in invocations:
        t0, h0 = time.perf_counter(), spent()
        rc, out, err, error = invoke(argv)
        elapsed = time.perf_counter() - t0 - (spent() - h0)
        problem = error or (checker and checker.problem(template, seed, rc, out))
        records.append({"argv": template, "seed": seed, "seconds": elapsed, "rc": rc,
                        "digest": digest(out), "problem": problem,
                        "stderr": err[-400:] if problem else ""})
    wall = time.perf_counter() - wall0 - (spent() - spent0)
    cpu = time.process_time() - cpu0 - (spent() - spent0)
    if probe:
        probe.sample()
    return {"wall_s": wall, "cpu_s": cpu,
            "suite_s_max": max(r["seconds"] for r in records),
            "invocations": records}


def main() -> int:
    if OPTS.get("mode") == "setup":
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    checker = None if OPTS.get("mode") == "record" else Checker()
    tracer = None
    if OPTS.get("trace") == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    seconds = float(OPTS["seconds"])
    passes, layers = [], []
    with contextlib.ExitStack() as stack:
        probe = None
        if OPTS.get("calibrate") == "1":
            import speed
            probe = stack.enter_context(speed.SpeedProbe())
        t0 = time.perf_counter()
        while True:
            if tracer is not None:
                tracer.reset()
            p = run_pass(plan(len(passes)) if passes else PLAN0, checker, probe)
            if tracer is not None:
                layers.append(tracing.layer_metrics(tracer))
            passes.append(p)
            if time.perf_counter() - t0 + p["wall_s"] > seconds:
                break
    if tracer is not None and OPTS.get("spans"):
        tracer.write(OPTS["spans"])

    print(json.dumps({
        "speed": probe.factor() if probe else None,
        "speed_samples": len(probe.samples) if probe else 0,
        "setup_s": SETUP_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "layers": layers,
        "python": sys.version.split()[0],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
