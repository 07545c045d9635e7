#!/usr/bin/env python3
"""Print the graded decomposition table of one Fock configuration.

Usage: python scripts/duality_tables.py [N] [q] [a1,a2,...] [n_max]

The number of flavors ell is the length of the parameter tuple.
"""
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from torusrep.duality import verify_skew_duality  # noqa: E402
from torusrep.fock import graded_dim  # noqa: E402
from torusrep.scalars import as_scalar  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    N = int(argv[0]) if len(argv) > 0 else 2
    q = as_scalar(argv[1]) if len(argv) > 1 else as_scalar(2)
    a = [as_scalar(x) for x in argv[2].split(",")] if len(argv) > 2 else [as_scalar(3)]
    n_max = int(argv[3]) if len(argv) > 3 else 2
    ell = len(a)
    rep = verify_skew_duality(N, a, q, n_max)
    print(f"N={N} ell={ell} q={q} a={a}  ({rep.verdict})")
    for entry in rep.degrees:
        n = entry["n"]
        print(f"  degree {n}: dim = {graded_dim(n, N, ell)}")
        for key in sorted(entry["table"]):
            mult, dim = entry["table"][key]
            print(f"    weight {key:12s} multiplicity {mult:3d} x Levi dim {dim}")
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
