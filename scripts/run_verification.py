#!/usr/bin/env python3
"""Run the full verification battery and write one report per suite.

Usage: python scripts/run_verification.py [outdir]
"""
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from torusrep.duality import (  # noqa: E402
    verify_lattice_intertwiner,
    verify_levi_branching,
    verify_skew_duality,
    verify_tensor_branching,
)
from torusrep.verify import (  # noqa: E402
    verify_bracket_axioms,
    verify_highest_weight,
    verify_module_property,
    verify_nilpotency,
    verify_theta_iso,
)

SEED = 7


JOBS = [
    ("bracket_N2", lambda: verify_bracket_axioms(2, 2, 200, SEED)),
    ("bracket_N3", lambda: verify_bracket_axioms(3, "5/2", 200, SEED)),
    ("theta_N2", lambda: verify_theta_iso(2, 2, 200, SEED)),
    ("theta_N3", lambda: verify_theta_iso(3, 3, 200, SEED)),
    ("module_l1", lambda: verify_module_property(2, [3], 2, 100, SEED)),
    ("module_l2", lambda: verify_module_property(2, [3, 5], 2, 100, SEED)),
    ("hw_N2l2", lambda: verify_highest_weight(2, [3, 3], 2)),
    ("nilpotency", lambda: verify_nilpotency([3], 2)),
    ("duality_N2l1", lambda: verify_skew_duality(2, [3], 2, 2)),
    ("duality_N2l2", lambda: verify_skew_duality(2, [3, 3], 2, 2)),
    ("duality_N3l1", lambda: verify_skew_duality(3, [3], 2, 2)),
    ("tensor_33", lambda: verify_tensor_branching(2, [3], [3], 2, 1)),
    ("tensor_35", lambda: verify_tensor_branching(2, [3], [5], 2, 1)),
    ("levi_22", lambda: verify_levi_branching((2, 2), [3], 2, 1)),
    ("levi_23", lambda: verify_levi_branching((2, 3), [3], 2, 1)),
    ("lattice", lambda: verify_lattice_intertwiner(2, 2, 1, [3], 2, n_max=1,
                                                   trials=100, seed=SEED)),
]


def main() -> int:
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "out")
    outdir.mkdir(parents=True, exist_ok=True)
    bad = 0
    for name, job in JOBS:
        t0 = time.time()
        rep = job()
        path = outdir / f"{name}.json"
        path.write_text(rep.to_json())
        status = "pass" if rep.passed else "FAIL"
        print(f"{name:18s} {status}  ({time.time() - t0:5.1f}s)  -> {path}")
        bad += not rep.passed
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
