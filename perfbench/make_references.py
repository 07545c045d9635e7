"""Record the reference report digests the benchmark checks against.

    python3 perfbench/make_references.py

Runs every invocation of every workload once at the default seed and
writes the sha256 of each report to perfbench/references.json.  Run it
only at a commit whose reports are known good: the digests are what every
later run must reproduce byte for byte.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import workloads
from run import HERE, SRC

REFERENCES = os.path.join(HERE, "references.json")


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=HERE, text=True,
                            capture_output=True).stdout.strip() or None
    digests = {}
    names = list(workloads.WORKLOADS) + list(workloads.SELFTEST_WORKLOADS)
    for name in names:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), f"src={SRC}",
               f"workload={name}", f"seed={workloads.DEFAULT_SEED}",
               "seconds=0", "mode=record"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        for rec in json.loads(out.splitlines()[-1])["passes"][0]["invocations"]:
            if rec["rc"] == 0:
                digests[rec["argv"]] = rec["digest"]
            print(f"{rec['seconds']:8.3f} s  rc={rec['rc']}  {rec['argv']}")
    with open(REFERENCES, "w") as fh:
        json.dump({"commit": commit, "seed": workloads.DEFAULT_SEED,
                   "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
