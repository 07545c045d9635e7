import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fock_oracles import eta_eval
from glrep_oracles import (
    complement,
    eta_equiv,
    eta_of,
    levi_branch_oracle,
    lr_support,
    partitions_with_bound,
    poly_mul,
    schur_expand,
    schur_poly,
    tensor_mult_brauer,
    tensor_mult_oracle,
    weyl_bound,
)
from torusrep import glrep
from torusrep.errors import IncompatiblePartitions, InvalidParams
from torusrep.scalars import SetPartition
from torusrep.glrep import (
    DominantWeight,
    is_dominant,
    levi_branch_D,
    levi_dim,
    lr_coeff,
    tensor_mult_C,
    weyl_dim,
)


def all_partitions_up_to(size):
    out = [()]
    for total in range(1, size + 1):
        out.extend(partitions_with_bound(total, total, total))
    return out


def test_lr_examples():
    assert lr_coeff((1,), (1, 1), (2, 1)) == 1
    assert lr_coeff((2, 1), (), (2, 1)) == 1
    assert lr_coeff((1,), (1,), (3,)) == 0
    # a classical multiplicity-two instance
    assert lr_coeff((2, 1), (2, 1), (3, 2, 1)) == 2


def test_lr_agrees_with_schur_oracle():
    parts = all_partitions_up_to(4)
    for lam in parts:
        for mu in parts:
            nvars = max(len(lam) + len(mu), 1)
            prod = poly_mul(schur_poly(lam, nvars), schur_poly(mu, nvars))
            expansion = schur_expand(prod, nvars)
            for nu, c in expansion.items():
                assert lr_coeff(lam, mu, nu) == c
            # and zero off the support
            assert all(c > 0 for c in expansion.values())


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(all_partitions_up_to(4)), st.sampled_from(all_partitions_up_to(4)))
def test_lr_symmetry_and_dimension(lam, mu):
    n = max(len(lam) + len(mu), 1)
    total = sum(lam) + sum(mu)
    dims = 0
    for nu in partitions_with_bound(total, n, total) if total else [()]:
        c = lr_coeff(lam, mu, nu)
        assert c == lr_coeff(mu, lam, nu)
        if c:
            dims += c * weyl_dim(list(nu) + [0] * (n - len(nu)), n)
    assert dims == weyl_dim(list(lam) + [0] * (n - len(lam)), n) * \
        weyl_dim(list(mu) + [0] * (n - len(mu)), n)


def test_weyl_dim_examples():
    assert weyl_dim((1, 0), 2) == 2
    assert weyl_dim((0, 0, 0), 3) == 1
    assert weyl_dim((2, 1, 0), 3) == 8
    # SSYT-count oracle
    for lam in [(2,), (1, 1), (2, 1), (3, 1)]:
        for n in (2, 3):
            if len(lam) > n:
                continue
            count = sum(schur_poly(lam, n).values())
            assert weyl_dim(list(lam) + [0] * (n - len(lam)), n) == count


def test_levi_branch_D_examples():
    gl2 = SetPartition.full(2)
    gl1 = SetPartition.full(1)
    xi = DominantWeight.of((1, 0), gl2)
    got = levi_branch_D(xi, gl1, gl1)
    assert got == {((1,), (0,)): 1, ((0,), (1,)): 1}

    xi = DominantWeight.of((1, 1), gl2)
    assert levi_branch_D(xi, gl1, gl1) == {((1,), (1,)): 1}

    xi = DominantWeight.of((2, 0), gl2)
    got = levi_branch_D(xi, gl1, gl1)
    assert got == {((2,), (0,)): 1, ((1,), (1,)): 1, ((0,), (2,)): 1}


def test_levi_branch_D_against_oracle():
    gl1 = SetPartition.full(1)
    gl2 = SetPartition.full(2)
    rng = range(-2, 3)
    for a, b in itertools.product(rng, rng):
        if a < b:
            continue
        xi = DominantWeight.of((a, b), gl2)
        got = levi_branch_D(xi, gl1, gl1)
        want = {k: v for k, v in levi_branch_oracle((a, b), 1, 1).items()}
        assert got == want


def dominant_weights(n, lo, hi):
    """Weakly decreasing n-tuples with entries in [lo, hi]."""
    return [w for w in itertools.product(range(hi, lo - 1, -1), repeat=n)
            if all(w[i] >= w[i + 1] for i in range(n - 1))]


def test_levi_branch_D_multirow_against_oracle():
    # row bounds above 1 on both sides and proper inner shapes lam inside xi
    checked = 0
    for n in range(2, 6):
        merged = SetPartition.full(n)
        for xi in dominant_weights(n, -2, 3):
            shifted = [x - min(xi + (0,)) for x in xi]
            if sum(shifted) > 6:
                continue
            for n1 in range(1, n):
                got = levi_branch_D(DominantWeight.of(xi, merged),
                                    SetPartition.full(n1),
                                    SetPartition.full(n - n1))
                assert got == levi_branch_oracle(xi, n1, n - n1)
                checked += 1
    assert checked > 200


def test_levi_branch_D_two_merged_blocks_against_oracle():
    # merged {1,2,4} | {3,5} restricted to {1,2} | {3} and {4} | {5}
    merged = SetPartition.of([[1, 2, 4], [3, 5]])
    part_a = SetPartition.of([[1, 2], [3]])
    part_b = SetPartition.of([[1], [2]])
    for w1 in dominant_weights(3, -1, 2):
        for w2 in dominant_weights(2, -1, 2):
            xi = (w1[0], w1[1], w2[0], w1[2], w2[1])
            want = {}
            for (a1, b1), c1 in levi_branch_oracle(w1, 2, 1).items():
                for (a2, b2), c2 in levi_branch_oracle(w2, 1, 1).items():
                    key = (a1 + a2, b1 + b2)
                    want[key] = want.get(key, 0) + c1 * c2
            got = levi_branch_D(DominantWeight.of(xi, merged), part_a, part_b)
            assert got == want


@pytest.mark.parametrize("xi, n1", [
    ((3, 2, 2, 0), 2),       # n1 = n2, |xi| odd
    ((4, 1, 0, 0, 0), 3),    # n1 > n2, |xi| odd
    ((2, 2, 1), 1),          # n1 < n2, |xi| odd
    ((2, 2, 2, 0), 2),       # n1 = n2, |xi| even
    ((2, 1, 0, -1), 2),      # n1 = n2, |xi| even after the det shift
    ((2, 2, 1, 1, 0), 3),    # n1 > n2, |xi| even
    ((3, 2, 1, 0), 1),       # n1 < n2, |xi| even
    ((2, 1, 1, 1, 0, 0), 1),  # n1 < n2, only the one-row side searched
    ((3, 2, 1, 1, 0), 4),    # n1 > n2, both sides searched
])
def test_levi_block_searches_only_the_smaller_half(monkeypatch, xi, n1):
    calls = []
    search = glrep._lr_contents

    def counting(lam, nu, cap):
        calls.append(lam)
        return search(lam, nu, cap)

    monkeypatch.setattr(glrep, "_lr_contents", counting)
    n = len(xi)
    got = levi_branch_D(DominantWeight.of(xi, SetPartition.full(n)),
                        SetPartition.full(n1), SetPartition.full(n - n1))
    want = levi_branch_oracle(xi, n1, n - n1)
    assert got == want
    # lam in the decreasing lexicographic shape walk, mu descending
    assert list(got) == sorted(want, reverse=True)
    # one search per shape s inside xi holding at most half of its cells
    # that can be lam (at most n1 rows) or mu (at most n2 rows) beside a
    # shape of the other |xi| - |s| cells that fits in the other side's
    # rows; with |xi| even the equal halves are both searched, so their
    # pairs are written from both sides
    shifted = glrep.trim(tuple(x - min(xi + (0,)) for x in xi))
    total, n2 = sum(shifted), n - n1

    def fits(s, rows, other):
        return len(s) <= rows and total - sum(s) <= sum(shifted[:other])

    inner = [s for s in all_partitions_up_to(total // 2)
             if len(s) <= len(shifted) and all(a <= b for a, b in zip(s, shifted))
             and (fits(s, n1, n2) or fits(s, n2, n1))]
    assert sorted(calls) == sorted(inner)


def test_shape_walk_matches_oracle_enumeration():
    # the walk against partitions_with_bound filtered by containment
    outers = [p + (0,) * pad for p in all_partitions_up_to(4) for pad in (0, 1)]
    outers += [(k,) * r for k in (1, 2, 3) for r in (2, 3)]
    inners = all_partitions_up_to(3)
    for outer in outers:
        rows, top = len(outer), max(outer, default=0)
        everything = [nu for total in range(sum(outer) + 1)
                      for nu in partitions_with_bound(total, rows, top)]
        for inner in inners:
            between = [nu for nu in everything
                       if len(inner) <= len(nu)
                       and all(a <= b for a, b in zip(inner, nu))
                       and all(b <= c for b, c in zip(nu, outer))]
            assert list(glrep._shapes_between(inner, outer)) == \
                sorted(between, reverse=True), (inner, outer)
            for size in range(sum(outer) + 2):
                want = [nu for nu in between if sum(nu) == size]
                got = list(glrep._shapes_between(inner, outer, size))
                assert got == sorted(want, reverse=True), (inner, outer, size)


def test_tensor_block_reads_lr_only_on_shapes_containing_both_factors(monkeypatch):
    seen = []
    real = glrep.lr_coeff

    def counting(lam, mu, nu):
        seen.append((lam, mu, nu))
        return real(lam, mu, nu)

    monkeypatch.setattr(glrep, "lr_coeff", counting)
    gl3 = SetPartition.full(3)
    weights = [(2, 1, 0), (2, 0, -1), (1, 1, 1), (3, 1, 0), (0, 0, -2)]
    for w1 in weights:
        for w2 in weights:
            seen.clear()
            got = tensor_mult_C([DominantWeight.of(w1, gl3),
                                 DominantWeight.of(w2, gl3)])
            assert got == tensor_mult_oracle(w1, w2, 3)
            assert seen
            for lam, mu, nu in seen:
                for inner in (lam, mu):
                    assert len(inner) <= len(nu) and \
                        all(a <= b for a, b in zip(inner, nu)), (lam, mu, nu)


def test_every_nonzero_lr_coefficient_lies_under_the_weyl_bound():
    checked = 0
    for n in range(1, 5):
        parts = [p for p in all_partitions_up_to(5) if len(p) <= n]
        for lam in parts:
            for mu in parts:
                bound = weyl_bound(lam, mu, n)
                for nu, c in lr_support(lam, mu, n).items():
                    assert c and all(map(int.__le__, nu, bound)), (lam, mu, nu)
                    checked += 1
    assert checked == 2376


def test_tensor_block_reads_lr_only_under_the_weyl_bound(monkeypatch):
    seen = []
    real = glrep.lr_coeff

    def counting(lam, mu, nu):
        seen.append((lam, mu, nu))
        return real(lam, mu, nu)

    monkeypatch.setattr(glrep, "lr_coeff", counting)
    gl4 = SetPartition.full(4)
    # the weights of the benchmark's diag branching table
    weights = [(3, 2, 1, 0), (2, 1, 1, 0), (3, 1, 0, -1), (2, 2, 0, 0), (1, 0, 0, -2)]
    for w1 in weights:
        for w2 in weights:
            seen.clear()
            got = tensor_mult_C([DominantWeight.of(w1, gl4), DominantWeight.of(w2, gl4)])
            want = tensor_mult_oracle(w1, w2, 4)
            assert got == want and list(got) == list(want)
            for lam, mu, nu in seen:
                assert all(map(int.__le__, nu, weyl_bound(lam, mu, 4))), (lam, mu, nu)


def test_tensor_mult_C_matches_brauer_on_the_diag_table():
    # the whole five-fold product of the benchmark's diag branching table,
    # the accumulated weights far beyond the Schur-product oracle's reach;
    # the order is the first appearance over the factors in turn
    gl4 = SetPartition.full(4)
    weights = [(3, 2, 1, 0), (2, 1, 1, 0), (3, 1, 0, -1), (2, 2, 0, 0), (1, 0, 0, -2)]
    want = {weights[0]: 1}
    for w in weights[1:]:
        acc = {}
        for cur, m in want.items():
            for nu, c in tensor_mult_brauer(cur, w, 4).items():
                acc[nu] = acc.get(nu, 0) + m * c
        want = acc
    got = tensor_mult_C([DominantWeight.of(w, gl4) for w in weights])
    assert got == want and list(got) == list(want)


def test_brauer_oracle_matches_schur_product_oracle():
    for n in (2, 3):
        ws = dominant_weights(n, -2, 2)
        for w1 in ws:
            for w2 in ws:
                got = tensor_mult_brauer(w1, w2, n)
                want = tensor_mult_oracle(w1, w2, n)
                assert got == want and list(got) == list(want), (w1, w2)


def test_lr_complement_symmetry_oracle():
    # c^nu_{lam,mu} = c^{lam'}_{mu,nu'}, with ' the complement in the
    # n x (lam_1 + mu_1) box, on every triple with |nu| <= 6 and n <= 4
    checked = nonzero = 0
    for n in range(1, 5):
        parts = [p for p in all_partitions_up_to(6) if len(p) <= n]

        def pad(w):
            return w + (0,) * (n - len(w))

        for lam in parts:
            for mu in parts:
                total = sum(lam) + sum(mu)
                if total > 6:
                    continue
                width = max(lam, default=0) + max(mu, default=0)
                coeffs = lr_support(lam, mu, n)
                for nu in partitions_with_bound(total, n, width) if total else [()]:
                    other = tensor_mult_brauer(pad(complement(nu, n, width)), pad(mu), n)
                    c = other.get(pad(complement(lam, n, width)), 0)
                    assert coeffs.get(nu, 0) == c, (n, lam, mu, nu)
                    checked += 1
                    nonzero += c > 0
    assert checked == 1232 and nonzero == 625


def test_levi_branch_D_dimension_identity():
    gl1 = SetPartition.full(1)
    gl2 = SetPartition.full(2)
    gl3 = SetPartition.full(3)
    for xi_t in [(2, 0, -1), (1, 1, 0), (3, 1, -2)]:
        xi = DominantWeight.of(xi_t, gl3)
        got = levi_branch_D(xi, gl2, gl1)
        assert sum(D * weyl_dim([m - min(mu + (0,)) for m in mu], 2)
                   * 1 for (mu, nu), D in got.items()) > 0
        total = 0
        for (mu, nu), D in got.items():
            total += D * levi_dim(mu, gl2) * levi_dim(nu, gl1)
        assert total == levi_dim(xi_t, gl3)


def test_levi_branch_D_incompatible():
    # merged partition separating 1 and 2 cannot restrict GL_2-style blocks
    merged = SetPartition.of([[1], [2]])
    xi = DominantWeight.of((1, 0), merged)
    with pytest.raises(IncompatiblePartitions):
        levi_branch_D(xi, SetPartition.full(2), SetPartition.of([]))
    # one merged block restricts to one block on each side, not two
    xi = DominantWeight.of((2, 1, 0), SetPartition.full(3))
    with pytest.raises(IncompatiblePartitions):
        levi_branch_D(xi, SetPartition.full(1), SetPartition.of([[1], [2]]))


def test_tensor_mult_C_examples():
    gl1 = SetPartition.full(1)
    w1 = DominantWeight.of((1,), gl1)
    w2 = DominantWeight.of((-1,), gl1)
    assert tensor_mult_C([w1, w2]) == {(0,): 1}

    gl2 = SetPartition.full(2)
    v = DominantWeight.of((1, 0), gl2)
    assert tensor_mult_C([v, v]) == {(2, 0): 1, (1, 1): 1}

    w = DominantWeight.of((0, -1), gl2)
    assert tensor_mult_C([v, w]) == {(1, -1): 1, (0, 0): 1}


def test_tensor_mult_C_against_oracle():
    gl2 = SetPartition.full(2)
    rng = range(-2, 3)
    weights = [(a, b) for a in rng for b in rng if a >= b]
    for w1 in weights:
        for w2 in weights:
            got = tensor_mult_C([DominantWeight.of(w1, gl2), DominantWeight.of(w2, gl2)])
            assert got == tensor_mult_oracle(w1, w2, 2)


def test_tensor_mult_C_blockwise():
    part = SetPartition.of([[1, 2], [3]])
    v = DominantWeight.of((1, 0, 2), part)
    w = DominantWeight.of((1, 1, -1), part)
    got = tensor_mult_C([v, w])
    assert got == {(2, 1, 1): 1}


def test_tensor_mult_C_associative():
    gl2 = SetPartition.full(2)
    ws = [DominantWeight.of(t, gl2) for t in [(1, 0), (1, -1), (2, 1)]]

    def toD(m):
        return {k: v for k, v in m.items()}

    left = tensor_mult_C(ws)
    acc = tensor_mult_C([ws[1], ws[2]])
    alt = {}
    for xi, c in acc.items():
        for out, c2 in tensor_mult_C([ws[0], DominantWeight.of(xi, gl2)]).items():
            alt[out] = alt.get(out, 0) + c * c2
    assert toD(left) == alt


def test_det_twist_invariance():
    gl2 = SetPartition.full(2)
    v, w = (1, 0), (2, -1)
    base = tensor_mult_C([DominantWeight.of(v, gl2), DominantWeight.of(w, gl2)])
    c = 3
    shifted = tensor_mult_C([
        DominantWeight.of(tuple(x + c for x in v), gl2),
        DominantWeight.of(tuple(x + c for x in w), gl2)])
    assert shifted == {tuple(x + 2 * c for x in k): m for k, m in base.items()}


def test_eta_eval_examples():
    q = Fraction(2)
    mu, params = eta_of((1,), (3,), 2, q)
    for n in range(-3, 4):
        assert eta_eval(mu, 1, n, params) == Fraction(3) ** n
        assert eta_eval(mu, 2, n, params) == 0
    mu0, params0 = eta_of((0,), (7,), 2, q)
    assert eta_eval(mu0, 2, 0, params0) == 1
    assert eta_eval(mu0, 2, 1, params0) == Fraction(7) * 2
    assert eta_eval(mu0, 1, 5, params0) == 0


def test_eta_eval_rejects_bad_input():
    # mu has one entry per parameter a_p, and h_{i,n} needs 1 <= i <= N
    mu, params = eta_of((1, 4), (3, 5), 2, 2)
    assert eta_eval(mu, 2, 1, params) == 5 * Fraction(1, 2)
    for bad_mu in [(1,), (1, 4, 0)]:
        with pytest.raises(InvalidParams):
            eta_eval(bad_mu, 1, 1, params)
    for bad_i in (0, 3):
        with pytest.raises(InvalidParams):
            eta_eval(mu, bad_i, 1, params)


def test_eta_equiv_examples():
    q = Fraction(2)
    e1 = eta_of((1,), (3,), 2, q)
    e2 = eta_of((3,), (6,), 2, q)
    e3 = eta_of((1,), (5,), 2, q)
    assert eta_equiv(e1, e2)
    assert not eta_equiv(e1, e3)
    assert eta_equiv(e1, e1)


def test_eta_equiv_is_equivalence_and_permutation_invariant():
    q = Fraction(2)
    es = [
        eta_of((1, 4), (3, 5), 2, q),
        eta_of((4, 1), (5, 3), 2, q),
        eta_of((3, 4), (6, 5), 2, q),
        eta_of((1, 4), (3, 7), 2, q),
    ]
    assert eta_equiv(es[0], es[1]) and eta_equiv(es[0], es[2])
    assert eta_equiv(es[1], es[2])
    assert not eta_equiv(es[0], es[3])
    # eta values actually coincide for equivalent data
    mu0, p0 = es[0]
    for mu, params in es[1:3]:
        for n in range(-2, 3):
            for h in (1, 2):
                assert eta_eval(mu0, h, n, p0) == eta_eval(mu, h, n, params)


def test_dominant_weight_validation():
    part = SetPartition.of([[1, 2], [3]])
    DominantWeight.of((2, 1, 5), part)
    with pytest.raises(Exception):
        DominantWeight.of((1, 2, 0), part)
    assert is_dominant((2, 2, -1), part)
    assert not is_dominant((2, 3, 0), part)


def test_levi_dim():
    part = SetPartition.of([[1, 2], [3]])
    assert levi_dim((1, 0, 7), part) == 2
    assert levi_dim((1, -1, 0), part) == 3
    assert levi_dim((0, 0, 0), part) == 1
