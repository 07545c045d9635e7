import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusrep.liealg import GlqElement, bracket, h_gen
from torusrep.scalars import ParameterSet, qpow
from torusrep.fock import (
    PSI,
    PSIBAR,
    FockVector,
    basis_monomials,
    bilinear_on_monomial,
    creators_of_degree,
    gen_degree,
    gen_label,
    gen_mode,
    gl_ell_action,
    glbar_action,
    graded_dim,
    hw_degree,
    hw_vector,
    monomial_degree,
    monomial_weight,
    normal_order_pair,
    psi,
    psibar,
    rho_action,
    rho_mat_on_monomial,
)

from fock_oracles import (
    apply_word,
    format_monomial,
    normal_order_pair_mode_criterion,
    rho_action_tensor_oracle,
    vector_to_json,
)
from test_liealg import rand_basis

E = GlqElement.matrix_unit


def test_flat_coordinates_roundtrip():
    N = 3
    for i in range(1, N + 1):
        for n in range(-3, 4):
            g = psi(i, 1, n, N)
            assert gen_mode(g, N) == n and gen_label(g, N) == i
            assert gen_degree(g, N) == -n
            gb = psibar(i, 1, n, N)
            assert gen_mode(gb, N) == n and gen_label(gb, N) == i
            assert gen_degree(gb, N) == -n


def test_phi_coordinate_identities():
    # flat index -1 is psi_1(0) for any N; psibar side is psibar_N(-1)
    N = 2
    assert psi(1, 1, 0, N) == (1, PSI, -1)
    assert psibar(2, 1, -1, N) == (1, PSIBAR, -1)


def test_vacuum_annihilation():
    N = 2
    v = FockVector.vacuum()
    assert apply_word([psibar(1, 1, 0, N)], v).is_zero()
    assert apply_word([psi(1, 1, 1, N)], v).is_zero()
    w = apply_word([psi(1, 1, 0, N)], v)
    assert apply_word([psi(1, 1, 0, N)], w).is_zero()
    assert apply_word([psibar(1, 1, 0, N)], w) == v


def test_anticommutation_signs():
    # psi_1(0) psi_2(0) |0> = -psi_2(0) psi_1(0) |0>
    N = 2
    a, b = psi(1, 1, 0, N), psi(2, 1, 0, N)
    v1 = apply_word([a, b], FockVector.vacuum())
    v2 = apply_word([b, a], FockVector.vacuum())
    assert v1 == -v2 and not v1.is_zero()


def test_clifford_relations_on_states():
    # {psi_i(m), psibar_j(n)} = delta_{ij} delta_{m+n,0} on a sample state
    N, ell = 2, 2
    rng = random.Random(3)
    monos = basis_monomials(1, N, ell)
    for _ in range(60):
        m = rng.choice(monos)
        v = FockVector.monomial(m)
        i, j = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        p, pb = rng.randrange(1, ell + 1), rng.randrange(1, ell + 1)
        mm, nn = rng.randrange(-2, 3), rng.randrange(-2, 3)
        a, b = psi(i, p, mm, N), psibar(j, pb, nn, N)
        anti = apply_word([a, b], v) + apply_word([b, a], v)
        expected = v if (i == j and p == pb and mm + nn == 0) else FockVector.zero()
        assert anti == expected


def test_normal_order_rules_agree():
    # the orders may differ only where the anticommutator vanishes, so at
    # m + n == 0 the two rules must agree
    for m in range(-3, 4):
        assert normal_order_pair(m, -m) == normal_order_pair_mode_criterion(m, -m)
    # as operators the two characterizations agree everywhere, including m+n=0
    N, ell = 2, 1
    monos = basis_monomials(0, N, ell) + basis_monomials(1, N, ell)
    for m in range(-2, 3):
        for n in range(-2, 3):
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    for mono in monos:
                        x = bilinear_on_monomial(i, 1, m, j, 1, n, mono, N,
                                                 normal_order_pair)
                        y = bilinear_on_monomial(i, 1, m, j, 1, n, mono, N,
                                                 normal_order_pair_mode_criterion)
                        assert x == y


def test_normal_order_pair_examples():
    assert normal_order_pair(0, 0) == (True, 1)
    assert normal_order_pair(1, 0) == (False, -1)
    assert normal_order_pair(-2, -1) == (True, 1)


# -- full-window oracles of the two Fock actions -------------------------------

def rho_mat_window_oracle(i, j, m0, m1, params, mono, rule=normal_order_pair):
    """rho_mat_on_monomial by a scan of the whole mode window [m0 - d, d]
    (d the monomial degree), outside which both orderings kill the monomial."""
    N, ell, q, a = params.N, params.ell, params.q, params.a
    out = {}
    d = monomial_degree(mono, N)
    lo = m0 - d
    if m1:
        ap = [qpow(x, m1) for x in a]
        qstep = qpow(q, -m1)
        qk = qpow(q, -m1 * lo)
    for k in range(lo, d + 1):
        for p in range(1, ell + 1):
            step = bilinear_on_monomial(i, p, m0 - k, j, p, k, mono, N, rule)
            if step is None:
                continue
            sign, mono2 = step
            cc = Fraction(sign) if m1 == 0 else sign * ap[p - 1] * qk
            s = out.get(mono2, Fraction(0)) + cc
            if s:
                out[mono2] = s
            elif mono2 in out:
                del out[mono2]
        if m1:
            qk *= qstep
    if m0 == 0 and i == j and m1 != 0:
        s0 = sum((qpow(ap, m1) for ap in a), Fraction(0))
        cc = s0 * qpow(q, m1) / (1 - qpow(q, m1))
        s = out.get(mono, Fraction(0)) + cc
        if s:
            out[mono] = s
        elif mono in out:
            del out[mono]
    return out


def gl_ell_window_oracle(r, s, vec, N):
    """gl_ell_action by a scan of every label and the mode window [-d, d]."""
    acc = {}
    for mono, c in vec._terms.items():
        d = monomial_degree(mono, N)
        for i in range(1, N + 1):
            for n in range(-d, d + 1):
                step = bilinear_on_monomial(i, r, -n, i, s, n, mono, N)
                if step is None:
                    continue
                sign, mono2 = step
                s2 = acc.get(mono2, Fraction(0)) + (c if sign == 1 else -c)
                if s2:
                    acc[mono2] = s2
                elif mono2 in acc:
                    del acc[mono2]
    return acc


# Pairwise generic for q = 2 and q = 5/2 (no ratio is a power of q); 3 and
# -3 make the diagonal correction's sum of a_p^{m1} vanish for odd m1.
A_VALUES = (3, 5, -3, Fraction(7, 3), Fraction(-1, 2))
DEGREE_SHAPES = [(), (1,), (2,), (3,), (1, 1), (1, 2), (1, 1, 1)]


def monomials(N, ell):
    """Canonical monomials of degree at most 3: any set of degree-0
    creators plus distinct creators whose degrees form one of the shapes."""
    zero = creators_of_degree(0, N, ell)

    def positive(shape):
        return st.tuples(*(st.sampled_from(creators_of_degree(d, N, ell))
                           for d in shape))

    return (st.tuples(st.sets(st.sampled_from(zero)),
                      st.sampled_from(DEGREE_SHAPES).flatmap(positive))
            .filter(lambda t: len(set(t[1])) == len(t[1]))
            .map(lambda t: tuple(sorted(t[0] | set(t[1])))))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rho_mat_on_monomial_matches_window_oracle(data):
    N = data.draw(st.sampled_from([2, 3]))
    ell = data.draw(st.integers(1, 3))
    q = data.draw(st.sampled_from([Fraction(2), Fraction(5, 2)]))
    a = data.draw(st.lists(st.sampled_from(A_VALUES), min_size=ell, max_size=ell))
    params = ParameterSet.of(q, a, N)
    mono = data.draw(monomials(N, ell))
    m0, m1 = data.draw(st.integers(-5, 5)), data.draw(st.integers(-3, 3))
    for rule in (normal_order_pair, normal_order_pair_mode_criterion):
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                got = rho_mat_on_monomial(i, j, m0, m1, params, mono, rule)
                want = rho_mat_window_oracle(i, j, m0, m1, params, mono, rule)
                assert list(got.items()) == list(want.items())


def test_rho_mat_diagonal_correction_can_vanish():
    # a_1^{m1} + a_2^{m1} = 0 at odd m1, and no bilinear term reaches the
    # vacuum at m0 = 0: the diagonal correction alone is zero
    params = ParameterSet.of(2, [3, -3], 2)
    for m1 in (-3, -1, 1, 3):
        assert rho_mat_on_monomial(1, 1, 0, m1, params, ()) == {}
        assert rho_mat_window_oracle(1, 1, 0, m1, params, ()) == {}


def test_actions_keep_fraction_coefficients():
    # at m1 = 0 rho_mat_on_monomial may return int signs; the vectors built
    # from them still carry Fractions
    from torusrep.verify import CachedAction

    params = ParameterSet.of(2, [3, 5], 2)
    act = CachedAction(params)
    for mono in basis_monomials(1, 2, 2):
        v = FockVector.monomial(mono)
        for x in (E(1, 2, 0, 0), E(2, 1, -1, 0), E(1, 1, 1, 0)):
            for w in (rho_action(x, params, v), act(x, v)):
                assert all(type(c) is Fraction for _, c in w.items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gl_ell_action_matches_window_oracle(data):
    N = data.draw(st.sampled_from([2, 3]))
    ell = data.draw(st.integers(1, 3))
    monos = data.draw(st.lists(monomials(N, ell), min_size=1, max_size=3,
                               unique=True))
    coeffs = data.draw(st.lists(st.sampled_from([1, -1, Fraction(2, 3)]),
                                min_size=len(monos), max_size=len(monos)))
    vec = FockVector(dict(zip(monos, coeffs)))
    for r in range(1, ell + 1):
        for s in range(1, ell + 1):
            got = gl_ell_action(r, s, vec, N)
            want = gl_ell_window_oracle(r, s, vec, N)
            assert list(got._terms.items()) == list(want.items())


def test_rho_examples():
    params = ParameterSet.of(2, [3], 2)
    v = FockVector.vacuum()
    got = rho_action(E(1, 1, 0, 1), params, v)
    assert got == v.scale(Fraction(3) * 2 / (1 - 2))
    assert rho_action(GlqElement.k0(), params, v) == v
    assert rho_action(E(1, 2, 1, 1), params, v).is_zero()
    assert rho_action(GlqElement.k1(), params, v).is_zero()

    params2 = ParameterSet.of(2, [3, 5], 2)
    w = hw_vector([1, 1], params2)
    assert rho_action(GlqElement.k0(), params2, w) == w.scale(2)


def test_gl_ell_examples():
    N, ell = 2, 2
    v = FockVector.monomial((psi(1, 2, 0, N),))
    got = gl_ell_action(1, 2, v, N)
    assert got == FockVector.monomial((psi(1, 1, 0, N),))
    assert gl_ell_action(1, 2, FockVector.vacuum(), N).is_zero()
    w = FockVector.monomial((psi(1, 1, 0, N),))
    assert gl_ell_action(1, 1, w, N) == w


def test_glbar_examples():
    N = 2
    v = FockVector.monomial((psi(2, 1, 0, N),))
    got = glbar_action(1, 2, v, N, [1])
    assert got == FockVector.monomial((psi(1, 1, 0, N),))
    # vacuum killed by strictly-upper units acting at positive rows
    for row, col in [(3, 1), (3, 4), (5, 2)]:
        assert glbar_action(row, col, FockVector.vacuum(), N, [1]).is_zero() or row <= col


def test_glbar_level():
    # the central charge of the doubly-infinite action is the block size:
    # [E_{A,B}, E_{B,A}] acts as E_{A,A} - E_{B,B} + |S_r| when the unit
    # pair straddles the normal-ordering cut (A <= 0 < B), and without the
    # central summand otherwise
    N = 2
    blocks = [(1, 2), (1,), (2,)]
    vs = [FockVector.vacuum(),
          FockVector.monomial((psi(1, 1, 0, N), psi(1, 2, 0, N))),
          FockVector.monomial((psibar(2, 1, -1, N),))]
    for S in blocks:
        for (A, B) in [(-1, 1), (0, 2), (1, 2), (-2, -1), (1, 4)]:
            for v in vs:
                comm = (glbar_action(A, B, glbar_action(B, A, v, N, S), N, S)
                        - glbar_action(B, A, glbar_action(A, B, v, N, S), N, S))
                want = (glbar_action(A, A, v, N, S)
                        - glbar_action(B, B, v, N, S))
                if A <= 0 < B:
                    want = want + v.scale(len(S))
                assert comm == want


def test_glbar_diagonal_counts():
    N = 2
    v = FockVector.monomial((psi(1, 1, 0, N), psi(1, 2, 0, N)))
    got = glbar_action(1, 1, v, N, flavors=[1])
    assert got == v


def test_hw_vector_examples():
    params = ParameterSet.of(2, [3], 2)
    assert hw_vector([0], params) == FockVector.vacuum()
    assert hw_vector([1], params) == FockVector.monomial((psi(1, 1, 0, 2),))
    assert hw_vector([-1], params) == FockVector.monomial((psibar(2, 1, -1, 2),))
    assert hw_degree([0], params) == 0
    assert hw_degree([-1], params) == 1
    params2 = ParameterSet.of(2, [3, 3], 2)
    v = hw_vector([2, 1], params2)
    assert v == FockVector.monomial(
        (psi(2, 1, 0, 2), psi(1, 1, 0, 2), psi(1, 2, 0, 2)))


def test_graded_dim_examples():
    assert graded_dim(0, 2, 1) == 4
    assert graded_dim(1, 2, 1) == 16
    for N, ell in [(2, 1), (2, 2), (3, 1)]:
        assert graded_dim(0, N, ell) == 2 ** (N * ell)


@pytest.mark.parametrize("N,ell,nmax", [(2, 1, 3), (2, 2, 2), (3, 1, 2)])
def test_basis_enumeration_matches_graded_dim(N, ell, nmax):
    for n in range(nmax + 1):
        monos = basis_monomials(n, N, ell)
        assert len(monos) == graded_dim(n, N, ell)
        assert all(monomial_degree(m, N) == n for m in monos)
        assert len(set(monos)) == len(monos)


def test_weight_of_monomial():
    N, ell = 2, 2
    m = (psi(1, 1, 0, N), psi(2, 1, 0, N), psibar(1, 2, -1, N))
    assert monomial_weight(m, ell) == (2, -1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([1, 2]))
def test_module_property(seed, ell):
    N = 2
    rng = random.Random(seed)
    params = ParameterSet.of(2, [3] if ell == 1 else [3, 5], N)
    x = rand_basis(rng, N, 2)
    y = rand_basis(rng, N, 2)
    vs = basis_monomials(rng.randrange(0, 3), N, ell)
    v = FockVector.monomial(rng.choice(vs))
    lhs = (rho_action(x, params, rho_action(y, params, v))
           - rho_action(y, params, rho_action(x, params, v)))
    rhs = rho_action(bracket(x, y, params.q), params, v)
    assert lhs == rhs


def test_rho_grading():
    # a degree-d element (d = -m0) maps degree-n states into degree n+d
    N = 2
    params = ParameterSet.of(2, [3], N)
    rng = random.Random(7)
    for _ in range(40):
        m0 = rng.randrange(-2, 3)
        x = E(rng.randrange(1, 3), rng.randrange(1, 3), m0, rng.randrange(-2, 3))
        n = rng.randrange(0, 3)
        v = FockVector.monomial(rng.choice(basis_monomials(n, N, 1)))
        out = rho_action(x, params, v)
        for mono, _ in out.items():
            assert monomial_degree(mono, N) == n - m0


def test_gl_ell_preserves_degree_and_commutes_with_rho():
    # the torus action commutes with the flavor action within a block of
    # equal parameters (here both flavors share a = 3); across unequal
    # blocks only the diagonal flavor operators commute
    N, ell = 2, 2
    params = ParameterSet.of(2, [3, 3], N)
    rng = random.Random(5)
    for _ in range(20):
        x = rand_basis(rng, N, 2)
        n = rng.randrange(0, 3)
        v = FockVector.monomial(rng.choice(basis_monomials(n, N, ell)))
        r, s = rng.randrange(1, ell + 1), rng.randrange(1, ell + 1)
        g = gl_ell_action(r, s, v, N)
        for mono, _ in g.items():
            assert monomial_degree(mono, N) == n
        a = rho_action(x, params, g)
        b = gl_ell_action(r, s, rho_action(x, params, v), N)
        assert a == b


def test_gl_ell_block_commutation_split_blocks():
    N, ell = 2, 2
    params = ParameterSet.of(2, [3, 5], N)
    rng = random.Random(6)
    for _ in range(12):
        x = rand_basis(rng, N, 2)
        n = rng.randrange(0, 2)
        v = FockVector.monomial(rng.choice(basis_monomials(n, N, ell)))
        for r in (1, 2):
            a = rho_action(x, params, gl_ell_action(r, r, v, N))
            b = gl_ell_action(r, r, rho_action(x, params, v), N)
            assert a == b


def test_gl_ell_commutes_with_glbar():
    N, ell = 2, 2
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randrange(0, 3)
        v = FockVector.monomial(rng.choice(basis_monomials(n, N, ell)))
        r, s = rng.randrange(1, ell + 1), rng.randrange(1, ell + 1)
        row, col = rng.randrange(-1, 4), rng.randrange(-1, 4)
        if row == 0 or col == 0:
            continue
        flavors = range(1, ell + 1)
        a = gl_ell_action(r, s, glbar_action(row, col, v, N, flavors), N)
        b = glbar_action(row, col, gl_ell_action(r, s, v, N), N, flavors)
        assert a == b


def test_evaluation_module_oracle_ell2():
    N, ell = 2, 2
    params = ParameterSet.of(2, [3, 5], N)
    rng = random.Random(13)
    for _ in range(25):
        x = rand_basis(rng, N, 2)
        n = rng.randrange(0, 3)
        v = FockVector.monomial(rng.choice(basis_monomials(n, N, ell)))
        assert rho_action(x, params, v) == rho_action_tensor_oracle(x, params, v)


def test_nilpotency_squared_field_level_one():
    # level 1: coefficient sums of the squared field vanish for i != j;
    # spot-check one family directly, the full sweep runs in acceptance
    N, ell = 2, 1
    params = ParameterSet.of(2, [3], N)
    vs = [FockVector.monomial(m)
          for n in range(0, 2) for m in basis_monomials(n, N, ell)]
    i, j, m1 = 1, 2, 1
    for v in vs:
        d = max(monomial_degree(m, N) for m in v.support())
        for K in range(-4, 5):
            acc = FockVector.zero()
            for k2 in range(K - 2 * d - 2, 2 * d + 3):
                k1 = K - k2
                inner = rho_action(E(i, j, k2, m1), params, v)
                acc = acc + rho_action(E(i, j, k1, m1), params, inner)
            assert acc.is_zero()


def test_diagonal_bilinears_count_mode_sets():
    # on a product vector, each diagonal bilinear :psi_i^p(-k)psibar_i^p(k):
    # acts by 0/1 (mu_p > 0, occupied psi modes k >= 0 with k*N + i <= mu_p)
    # or 0/-1 (mu_p < 0, occupied psibar modes k <= -1 with -k*N - i + 1
    # <= -mu_p); this is the counting behind the toral eigenvalues
    N = 2
    for ell, mus in [(1, [(1,), (2,), (3,), (-1,), (-2,), (0,)]),
                     (2, [(2, 1), (1, -2), (-1, -1)])]:
        params = ParameterSet.of(2, [3] * ell, N)
        for mu in mus:
            mono = hw_vector(mu, params).support()[0]
            for p in range(1, ell + 1):
                for i in range(1, N + 1):
                    for k in range(-4, 5):
                        got = bilinear_on_monomial(i, p, -k, i, p, k, mono, N)
                        mp = mu[p - 1]
                        if mp > 0:
                            expect = 1 if (k >= 0 and k * N + i <= mp) else 0
                        elif mp < 0:
                            expect = -1 if (k <= -1 and -k * N - i + 1 <= -mp) else 0
                        else:
                            expect = 0
                        assert got == ((expect, mono) if expect else None), \
                            (mu, p, i, k)


def test_vacuum_weight_consistency():
    for (N, ell, a) in [(2, 1, [3]), (2, 2, [3, 5]), (3, 1, [3])]:
        params = ParameterSet.of(2, a, N)
        v = FockVector.vacuum()
        got = rho_action(h_gen(N, 0, N, params.q), params, v)
        assert got == v.scale(ell)
        for i in range(1, N):
            assert rho_action(h_gen(i, 0, N, params.q), params, v).is_zero()


def test_format_monomial():
    N = 2
    m = (psi(1, 1, 0, N), psibar(2, 1, -1, N))
    assert format_monomial(m, N) == "psi[1,1](0)*psibar[2,1](-1)|0>"
    assert format_monomial((), N) == "|0>"
    v = FockVector.monomial(m, Fraction(-5, 3))
    assert vector_to_json(v, N) == {"psi[1,1](0)*psibar[2,1](-1)|0>": "-5/3"}
