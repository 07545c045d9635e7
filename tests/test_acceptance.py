"""Acceptance gate: every criterion runs exactly, prints one line, and
must finish inside its stated budget."""
import time
from contextlib import contextmanager
from fractions import Fraction

from fock_oracles import vacuum
from glrep_oracles import (
    levi_branch_oracle,
    lr_coeff_oracle,
    partitions_with_bound,
    tensor_mult_oracle,
)

from torusrep.duality import (
    verify_lattice_intertwiner,
    verify_levi_branching,
    verify_skew_duality,
    verify_tensor_branching,
)
from torusrep.fock import rho_action
from torusrep.glrep import (
    DominantWeight,
    levi_branch_D,
    lr_coeff,
    tensor_mult_C,
)
from torusrep.liealg import K0, K1, GlqElement
from torusrep.scalars import ParameterSet, SetPartition, qpow
from torusrep.verify import (
    verify_bracket_axioms,
    verify_highest_weight,
    verify_module_property,
    verify_nilpotency,
    verify_theta_iso,
)

SEED = 20240817


@contextmanager
def criterion(name: str, limit_s: float):
    t0 = time.perf_counter()
    failed = None
    try:
        yield
    except BaseException as exc:
        failed = exc
    dt = time.perf_counter() - t0
    status = "PASS" if failed is None and dt < limit_s else "FAIL"
    print(f"{name} {status} ({dt:.1f}s, limit {limit_s:.0f}s)")
    if failed is not None:
        raise failed
    assert dt < limit_s, f"{name} exceeded its {limit_s}s budget ({dt:.1f}s)"


def test_A1_bracket_axioms():
    with criterion("A1 bracket axioms", 10):
        for q in (2, 3, Fraction(5, 2)):
            for N in (2, 3):
                rep = verify_bracket_axioms(N, q, 200, SEED, max_exp=3)
                assert rep.passed, rep.witness


def test_A2_theta_isomorphism():
    with criterion("A2 covariant isomorphism", 10):
        for q in (2, 3, Fraction(5, 2)):
            for N in (2, 3):
                rep = verify_theta_iso(N, q, 200, SEED, max_exp=3)
                assert rep.passed, rep.witness


def test_A3_module_property():
    with criterion("A3 module property", 60):
        for a in ([3], [3, 5]):
            rep = verify_module_property(2, a, 2, 100, SEED,
                                         deg_max=2, max_exp=2)
            assert rep.passed, rep.witness
        # the scalar corrections and the central values, explicitly
        params = ParameterSet.of(2, [3, 5], 2)
        v = vacuum()
        assert rho_action(GlqElement({(K0, 0): 1}), params, v) == v.scale(2)
        assert rho_action(GlqElement({(K1, 0): 1}), params, v).is_zero()
        for m1 in (-2, -1, 1, 2):
            want = sum(qpow(ap, m1) for ap in params.a) * \
                qpow(params.q, m1) / (1 - qpow(params.q, m1))
            got = rho_action(GlqElement.matrix_unit(1, 1, 0, m1), params, v)
            assert got == v.scale(want)


def test_A4_highest_weight():
    with criterion("A4 highest-weight relations", 60):
        for N in (2, 3):
            for a in ([3], [3, 3], [3, 5]):
                rep = verify_highest_weight(N, a, 2, mu_bound=2)
                assert rep.passed, rep.witness


def test_A5_nilpotency():
    with criterion("A5 level-one nilpotency", 30):
        rep = verify_nilpotency([3], 2, N=2, deg_max=2)
        assert rep.passed, rep.witness


def test_A6_skew_duality():
    with criterion("A6 skew duality", 120):
        rep = verify_skew_duality(2, [3], 2, 2)
        assert rep.passed, rep.witness
        d0 = rep.degrees[0]
        assert d0["table"] == {"(0)": [1, 1], "(1)": [2, 1], "(2)": [1, 1]}
        assert d0["lhs"] == d0["rhs"] == 4
        for (N, a) in ((2, [3, 5]), (2, [3, 3]), (3, [3])):
            rep = verify_skew_duality(N, a, 2, 2)
            assert rep.passed, rep.witness


def test_A7_tensor_branching():
    with criterion("A7 tensor branching", 120):
        rep = verify_tensor_branching(2, [3], [3], 2, 1)
        assert rep.passed, rep.witness
        table0 = rep.degrees[0]["table"]
        assert table0["(1)|(1)"] == [4, 4]
        # the worked split of the 4: D^(2,0) * 1 + D^(1,1) * 3
        merged = SetPartition.full(2)
        gl1 = SetPartition.full(1)
        D20 = levi_branch_D(DominantWeight.of((2, 0), merged), gl1, gl1)
        D11 = levi_branch_D(DominantWeight.of((1, 1), merged), gl1, gl1)
        assert D20[((1,), (1,))] == 1 and D11[((1,), (1,))] == 1
        from torusrep.duality import FlavorTables, fixed_dim, weight_spaces
        spaces = weight_spaces(0, FlavorTables(2, 2))
        assert fixed_dim(merged, spaces[(2, 0)], {}) == 1
        assert fixed_dim(merged, spaces[(1, 1)], {}) == 3
        rep = verify_tensor_branching(2, [3], [5], 2, 1)
        assert rep.passed, rep.witness


def test_A8_levi_branching():
    with criterion("A8 Levi branching", 180):
        for bfN in ((2, 2), (2, 3)):
            rep = verify_levi_branching(bfN, [3], 2, 1)
            assert rep.passed, rep.witness


def test_A9_lr_oracle_agreement():
    with criterion("A9 multiplicity oracles", 60):
        parts = [()]
        for total in range(1, 5):
            parts.extend(partitions_with_bound(total, total, total))
        for lam in parts:
            for mu in parts:
                n = max(len(lam) + len(mu), 1)
                total = sum(lam) + sum(mu)
                cands = list(partitions_with_bound(total, n, total)) if total else [()]
                for nu in cands:
                    assert lr_coeff(lam, mu, nu) == lr_coeff_oracle(lam, mu, nu)
        gl1 = SetPartition.full(1)
        gl2 = SetPartition.full(2)
        span = range(-2, 3)
        for a in span:
            for b in span:
                if a < b:
                    continue
                xi = DominantWeight.of((a, b), gl2)
                assert levi_branch_D(xi, gl1, gl1) == levi_branch_oracle((a, b), 1, 1)
                for c in span:
                    for d in span:
                        if c < d:
                            continue
                        got = tensor_mult_C([xi, DominantWeight.of((c, d), gl2)])
                        assert got == tensor_mult_oracle((a, b), (c, d), 2)
        for a in span:
            for c in span:
                w1 = DominantWeight.of((a,), gl1)
                w2 = DominantWeight.of((c,), gl1)
                assert tensor_mult_C([w1, w2]) == tensor_mult_oracle((a,), (c,), 1)


def test_A10_lattice_intertwiner():
    with criterion("A10 sublattice intertwiner", 120):
        rep = verify_lattice_intertwiner(2, 2, 1, [3], 2, n_max=1,
                                         trials=100, seed=SEED)
        assert rep.passed, rep.witness
        assert rep.config["refolded_a"] == ["3", "3/2"]
        assert rep.config["refolded_q"] == "4"
