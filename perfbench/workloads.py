"""Workload definitions: the CLI invocations each workload runs, and the
layer each wrapped function is expected to be exercised by.

An invocation is an argv list for ``torusrep.cli.main``.  The token
``{seed}`` marks the seeded suites (bracket, theta, module, lattice); the
benchmark substitutes the pass seed there (see ``pass_seed``) and nowhere
else.
"""
from __future__ import annotations

import shlex
from typing import Dict, List

SEED = "{seed}"
DEFAULT_SEED = 0

WORKLOADS: Dict[str, List[str]] = {
    # The memoised Fock action, no elimination.  The module suite reuses
    # generator keys (cache hits); nilpotency sweeps many distinct mode keys.
    "fock_action": [
        "verify-module --N 2 --ell 2 --a 3,5 --trials 100 --deg-max 0 --seed {seed}",
        "verify-nilpotency --N 2 --ell 1 --a 3 --deg-max 0",
        "verify-hw --N 2 --ell 2 --a 3,5",
        "verify-hw --N 3 --ell 2 --a 3,5",
    ],
    # Many small and medium elimination systems, repeated weight-slice
    # enumeration and the joint highest-weight checks.
    "fixed_space": [
        "verify-duality --N 2 --ell 2 --a 3,3 --n-max 3",
        "verify-duality --N 2 --ell 1 --a 3 --n-max 4",
        "verify-duality --N 3 --ell 1 --a 3 --n-max 3",
        "verify-tensor --n-max 2",
        "verify-levi --bfN 2,2 --n-max 2",
        "verify-lattice --seed {seed}",
    ],
    # A few large dense systems: the degree-4 slice has dimension 6304.
    "deep_degree": [
        "verify-duality --N 2 --ell 2 --a 3,3 --n-max 4 --skip-hw",
    ],
    # Brackets, the covariant isomorphism and LR combinatorics; no Fock
    # action and no elimination.
    "algebra": [
        f"verify-{suite} --N {N} --q {q} --trials 1000 --seed {{seed}}"
        for suite in ("bracket", "theta") for N in (2, 3) for q in ("2", "5/2")
    ] + [
        'branch --mode diag --I "[[1,2,3,4]]"'
        ' --mus "(3,2,1,0);(2,1,1,0);(3,1,0,-1);(2,2,0,0);(1,0,0,-2)"',
        'branch --mode levi --I "[[1,2,3,4],[5,6,7,8]]"'
        ' --J "[[1,2,3,4,5,6,7,8]]" --xi "(8,6,5,4,3,2,1,0)" --mu "(0,0,0,0)"',
    ],
}

# Not part of BENCHMARK.json: a tiny list whose second argv is a usage
# error (exit 2), used by the tests to check the failure accounting.
SELFTEST_WORKLOADS: Dict[str, List[str]] = {
    "usage_error": [
        "verify-levi --bfN 2,2 --n-max 1",
        "verify-duality --ell 1 --a 3,3",
    ],
}

# Each wrapped function and the workload on which it must record at least
# one call in a traced run.  A zero there means a by-name import escaped
# the rebinding.
COVERAGE: Dict[str, str] = {
    "cli.main": "algebra",
    "reports.to_json": "algebra",
    "verify.suite": "fock_action",
    "verify.CachedAction": "fock_action",
    "fock.rho_mat_on_monomial": "fock_action",
    "fock.bilinear_on_monomial": "fock_action",
    "fock.rho_action": "fixed_space",
    "fock.gl_ell_action": "fixed_space",
    "fock.glbar_action": "fixed_space",
    "fock.basis_monomials": "deep_degree",
    "duality.weight_spaces": "deep_degree",
    "duality.fixed_space": "fixed_space",
    "duality.joint_hw_dim": "fixed_space",
    "linalg.nullspace": "deep_degree",
    "liealg.bracket": "algebra",
    "covariant.cov_bracket": "algebra",
    "covariant.theta": "algebra",
    "covariant.theta_inv": "algebra",
    "glrep.lr_coeff": "algebra",
    "glrep.tensor_mult_C": "algebra",
    "glrep.levi_branch_D": "algebra",
    "scalars.qpow": "fock_action",
    "scalars.validate_spectrum": "fock_action",
}


def lookup(name: str) -> List[str]:
    """The invocation templates of a workload, benchmark or self-test."""
    if name in WORKLOADS:
        return WORKLOADS[name]
    return SELFTEST_WORKLOADS[name]


def is_seeded(template: str) -> bool:
    return SEED in template


def pass_seed(run_seed: int, k: int) -> int:
    """The seed of pass k of a run: each pass draws fresh inputs, so a
    run's median covers many seeds, and pass 0 of the default run is the
    default seed itself."""
    return 1000 * run_seed + k


def argv_for(template: str, seed: int) -> List[str]:
    return shlex.split(template.replace(SEED, str(seed)))
