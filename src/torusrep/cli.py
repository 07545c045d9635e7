"""Command-line verification driver.

Exit codes: 0 the suite passed, 1 an identity failed (witness in the
report), 2 usage error, 3 non-generic or mismatched parameters.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .duality import (
    verify_lattice_intertwiner,
    verify_levi_branching,
    verify_skew_duality,
    verify_tensor_branching,
)
from .errors import (
    IncompatiblePartitions,
    InvalidParams,
    InvalidQ,
    NotGeneric,
    PartitionMismatch,
)
from .fock import graded_dim
from .glrep import DominantWeight, levi_branch_D, tensor_mult_C
from .reports import DecompositionReport, weight_key
from .scalars import SetPartition, as_scalar
from .verify import (
    verify_bracket_axioms,
    verify_highest_weight,
    verify_module_property,
    verify_nilpotency,
    verify_theta_iso,
)

USAGE_ERROR, VERIFY_ERROR, GENERICITY_ERROR = 2, 1, 3


def _converter(what: str):
    """Make an argparse type converter report bad input as a usage error
    (exit 2) instead of a traceback."""
    def wrap(convert):
        def checked(s: str):
            try:
                return convert(s)
            except (InvalidParams, ValueError, TypeError, ZeroDivisionError) as exc:
                raise argparse.ArgumentTypeError(f"not {what}: {s}") from exc
        return checked
    return wrap


@_converter("a rational")
def _rational(s: str):
    return as_scalar(s)


# Bounds below these minimums would leave a check empty: usage errors.
def _nonnegative(s: str):
    n = int(s)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _positive(s: str):
    n = int(s)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


@_converter("a list of rationals")
def _rational_list(s: str):
    return [as_scalar(x) for x in s.split(",") if x.strip()]


def _positive_list(s: str):
    return [_positive(x) for x in s.split(",") if x.strip()]


@_converter("an integer weight")
def _weight(s: str):
    s = s.strip().lstrip("(").rstrip(")")
    return tuple(int(x) for x in s.split(",") if x.strip())


def _weight_list(s: str):
    return [_weight(w) for w in s.split(";")]


@_converter("a set partition")
def _partition(s: str):
    return SetPartition.of(json.loads(s))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="torusrep",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, N=True, a=True, seed=False):
        if N:
            sp.add_argument("--N", type=int, default=2)
        sp.add_argument("--q", type=_rational, default=as_scalar(2))
        if a:
            sp.add_argument("--ell", type=_positive, default=1)
            sp.add_argument("--a", type=_rational_list, default=[as_scalar(3)])
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output", type=str, default=None)
        sp.add_argument("--format", choices=("json", "tsv"), default="json")

    sp = sub.add_parser("verify-bracket", help="bracket axioms on random triples")
    common(sp, a=False, seed=True)
    sp.add_argument("--trials", type=_positive, default=200)
    sp.add_argument("--max-exp", type=_nonnegative, default=3)

    sp = sub.add_parser("verify-theta", help="covariant relabeling is a bracket isomorphism")
    common(sp, a=False, seed=True)
    sp.add_argument("--trials", type=_positive, default=200)
    sp.add_argument("--max-exp", type=_nonnegative, default=3)

    sp = sub.add_parser("verify-module", help="commutator vs bracket on the Fock space")
    common(sp, seed=True)
    sp.add_argument("--trials", type=_positive, default=100)
    sp.add_argument("--deg-max", type=_nonnegative, default=2)
    sp.add_argument("--max-exp", type=_nonnegative, default=2)

    sp = sub.add_parser("verify-hw", help="highest-weight relations of the product vectors")
    common(sp)
    sp.add_argument("--mu-bound", type=_nonnegative, default=2)

    sp = sub.add_parser("verify-nilpotency", help="level-one square-vanishing")
    common(sp)
    sp.add_argument("--deg-max", type=_nonnegative, default=2)

    sp = sub.add_parser("verify-duality", help="graded skew-duality bookkeeping")
    common(sp)
    sp.add_argument("--n-max", type=_nonnegative, default=2)
    sp.add_argument("--skip-hw", action="store_true")

    sp = sub.add_parser("verify-tensor", help="tensor branching through Levi restriction")
    common(sp)
    sp.add_argument("--ellp", type=_positive, default=1)
    sp.add_argument("--b", type=_rational_list, default=[as_scalar(3)])
    sp.add_argument("--n-max", type=_nonnegative, default=1)

    sp = sub.add_parser("verify-levi", help="diagonal Levi branching of the big Fock space")
    common(sp, N=False)
    sp.add_argument("--bfN", type=_positive_list, default=[2, 2])
    sp.add_argument("--n-max", type=_nonnegative, default=1)

    sp = sub.add_parser("verify-lattice", help="index-sublattice refolding intertwiner")
    common(sp, seed=True)
    sp.add_argument("--M0", type=_positive, default=2)
    sp.add_argument("--M1", type=_positive, default=1)
    sp.add_argument("--n-max", type=_nonnegative, default=1)
    sp.add_argument("--trials", type=_positive, default=100)

    sp = sub.add_parser("dims", help="graded slice dimension")
    sp.add_argument("--N", type=_positive, required=True)
    sp.add_argument("--ell", type=_positive, required=True)
    sp.add_argument("--n", type=_nonnegative, required=True)

    sp = sub.add_parser("branch", help="branching multiplicity tables")
    sp.add_argument("--mode", choices=("tensor", "levi", "diag"), required=True)
    sp.add_argument("--I", type=_partition, required=True,
                    help='product-side partition, e.g. "[[1],[2]]"')
    sp.add_argument("--J", type=_partition, default=None,
                    help="merged partition (default: one merged block)")
    sp.add_argument("--mu", type=_weight, default=None)
    sp.add_argument("--nu", type=_weight, default=None)
    sp.add_argument("--xi", type=_weight, default=None)
    sp.add_argument("--mus", type=_weight_list, default=None,
                    help='semicolon-separated weights, e.g. "(1,0);(0,-1)"')
    sp.add_argument("--output", type=str, default=None)
    sp.add_argument("--format", choices=("json", "tsv"), default="json")
    return p


def _emit(report: DecompositionReport, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_tsv()
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else VERIFY_ERROR


def _split_product_partition(part: SetPartition, na: int):
    part_a = SetPartition.of([b for b in part.blocks if b[0] <= na])
    part_b = SetPartition.of([tuple(i - na for i in b)
                              for b in part.blocks if b[0] > na])
    if part_a.ell != na:
        raise InvalidParams("product partition blocks straddle the mu/nu split")
    return part_a, part_b


def _pad_dominant(w, offset: int, merged: SetPartition):
    """Zero-pad a segment weight to the merged index set, sorted within
    each merged block (the polynomial induction seed)."""
    full = [0] * merged.ell
    for i, x in enumerate(w, start=1):
        full[i - 1 + offset] = x
    for b in merged.blocks:
        vals = sorted((full[i - 1] for i in b), reverse=True)
        for i, v in zip(b, vals):
            full[i - 1] = v
    return tuple(full)


def _branch_table(args) -> DecompositionReport:
    part = args.I
    if args.mode == "tensor":
        if args.mu is None or args.nu is None:
            raise InvalidParams("--mode tensor needs --mu and --nu")
        merged = args.J or SetPartition.full(part.ell)
        na = len(args.mu)
        _split_product_partition(part, na)   # validates the split
        report = DecompositionReport(config={
            "suite": "branch-tensor", "I": part.describe(),
            "J": merged.describe(), "mu": weight_key(args.mu),
            "nu": weight_key(args.nu)})
        cmap = tensor_mult_C([
            DominantWeight.of(_pad_dominant(args.mu, 0, merged), merged),
            DominantWeight.of(_pad_dominant(args.nu, na, merged), merged)])
        table = {weight_key(xi): c for xi, c in sorted(cmap.items())}
        report.add_case("table", table, sum(table.values()), sum(table.values()))
        return report
    if args.mode == "levi":
        if args.xi is None or args.mu is None:
            raise InvalidParams("--mode levi needs --xi and --mu (split witness)")
        merged = args.J or SetPartition.full(part.ell)
        na = len(args.mu)
        part_a, part_b = _split_product_partition(part, na)
        D = levi_branch_D(DominantWeight.of(args.xi, merged), part_a, part_b)
        report = DecompositionReport(config={
            "suite": "branch-levi", "I": part.describe(),
            "J": merged.describe(), "xi": weight_key(args.xi)})
        table = {weight_key(mu) + "|" + weight_key(nu): c
                 for (mu, nu), c in sorted(D.items())}
        report.add_case("table", table, sum(table.values()), sum(table.values()))
        return report
    if not args.mus:
        raise InvalidParams("--mode diag needs --mus")
    weights = [DominantWeight.of(w, part) for w in args.mus]
    cmap = tensor_mult_C(weights)
    report = DecompositionReport(config={
        "suite": "branch-diag", "I": part.describe(),
        "mus": [weight_key(w.mu) for w in weights]})
    table = {weight_key(xi): c for xi, c in sorted(cmap.items())}
    report.add_case("table", table, sum(table.values()), sum(table.values()))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        # --ell and --ellp state the lengths of --a and --b
        opts = vars(args)
        for count, values in (("ell", "a"), ("ellp", "b")):
            if values in opts and len(opts[values]) != opts[count]:
                raise InvalidParams(f"need {opts[count]} parameters, "
                                    f"got {len(opts[values])}")
        if args.command == "verify-bracket":
            rep = verify_bracket_axioms(args.N, args.q, args.trials, args.seed,
                                        args.max_exp)
        elif args.command == "verify-theta":
            rep = verify_theta_iso(args.N, args.q, args.trials, args.seed,
                                   args.max_exp)
        elif args.command == "verify-module":
            rep = verify_module_property(args.N, args.a, args.q, args.trials,
                                         args.seed, args.deg_max, args.max_exp)
        elif args.command == "verify-hw":
            rep = verify_highest_weight(args.N, args.a, args.q, args.mu_bound)
        elif args.command == "verify-nilpotency":
            rep = verify_nilpotency(args.a, args.q, args.N, args.deg_max)
        elif args.command == "verify-duality":
            rep = verify_skew_duality(args.N, args.a, args.q, args.n_max,
                                      check_hw=not args.skip_hw)
        elif args.command == "verify-tensor":
            rep = verify_tensor_branching(args.N, args.a, args.b, args.q,
                                          args.n_max)
        elif args.command == "verify-levi":
            rep = verify_levi_branching(args.bfN, args.a, args.q, args.n_max)
        elif args.command == "verify-lattice":
            rep = verify_lattice_intertwiner(args.N, args.M0, args.M1, args.a,
                                             args.q, args.n_max, args.trials,
                                             args.seed)
        elif args.command == "dims":
            sys.stdout.write(f"{graded_dim(args.n, args.N, args.ell)}\n")
            return 0
        elif args.command == "branch":
            rep = _branch_table(args)
        else:  # pragma: no cover
            return USAGE_ERROR
    except (NotGeneric, PartitionMismatch) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return GENERICITY_ERROR
    except (InvalidParams, InvalidQ, IncompatiblePartitions) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    return _emit(rep, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
