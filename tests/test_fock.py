import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusrep.duality import TORAL_WINDOW
from torusrep.liealg import GlqElement, K0, K1, bracket
from torusrep.scalars import ONE, ParameterSet, accumulate, qpow
from torusrep.verify import (
    K_WINDOW, M1_WINDOW, verify_module_property, verify_nilpotency)
from torusrep.fock import (
    PSI,
    PSIBAR,
    FockVector,
    _gen_on_monomial,
    basis_monomials,
    bilinear_on_monomial,
    creators_of_degree,
    gen_label,
    gen_mode,
    gl_ell_action,
    glbar_action,
    graded_dim,
    hw_degree,
    hw_monomial,
    monomial_degree,
    monomial_weight,
    partner,
    psi,
    psibar,
    rho_action,
    rho_mat_on_monomial,
    sign_table,
)

from fock_oracles import (
    apply_word,
    bilinear_mode_criterion,
    format_monomial,
    highest_weight_oracle,
    lift,
    module_property_oracle,
    nilpotency_oracle,
    rho_action_tensor_oracle,
    vacuum,
    vector_to_json,
    with_stray_term,
)
from liealg_oracles import h_gen
from test_liealg import rand_basis

E = GlqElement.matrix_unit


def test_flat_coordinates_roundtrip():
    N = 3
    for i in range(1, N + 1):
        for n in range(-3, 4):
            g = psi(i, 1, n, N)
            assert gen_mode(g, N) == n and gen_label(g, N) == i
            assert monomial_degree((g,), N) == -n
            gb = psibar(i, 1, n, N)
            assert gen_mode(gb, N) == n and gen_label(gb, N) == i
            assert monomial_degree((gb,), N) == -n


def test_phi_coordinate_identities():
    # flat index -1 is psi_1(0) for any N; psibar side is psibar_N(-1)
    N = 2
    assert psi(1, 1, 0, N) == (1, PSI, -1)
    assert psibar(2, 1, -1, N) == (1, PSIBAR, -1)


def test_partner_is_what_an_annihilator_removes():
    # on a one-generator monomial an annihilator acts exactly when the
    # monomial holds its partner, a creator, and then leaves the vacuum
    gens = [(p, kind, idx) for p in (1, 2) for kind in (PSI, PSIBAR)
            for idx in range(-6, 6)]
    for a in gens:
        if a[2] < 0:
            continue
        assert partner(a)[2] < 0 and partner(partner(a)) == a
        for c in gens:
            if c[2] < 0:
                step = _gen_on_monomial(a, (c,))
                assert step == ((1, ()) if c == partner(a) else None)


def test_vacuum_annihilation():
    N = 2
    v = vacuum()
    assert apply_word([psibar(1, 1, 0, N)], v).is_zero()
    assert apply_word([psi(1, 1, 1, N)], v).is_zero()
    w = apply_word([psi(1, 1, 0, N)], v)
    assert apply_word([psi(1, 1, 0, N)], w).is_zero()
    assert apply_word([psibar(1, 1, 0, N)], w) == v


def test_anticommutation_signs():
    # psi_1(0) psi_2(0) |0> = -psi_2(0) psi_1(0) |0>
    N = 2
    a, b = psi(1, 1, 0, N), psi(2, 1, 0, N)
    v1 = apply_word([a, b], vacuum())
    v2 = apply_word([b, a], vacuum())
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


def labelled_bilinear(i, p, m, j, pb, n, mono, N):
    """The flat kernel :psi_i^p(m) psibar_j^pb(n):, reached through the
    paper's labels and modes."""
    return bilinear_on_monomial(psi(i, p, m, N), psibar(j, pb, n, N), mono)


def test_normal_order_rules_agree():
    # the flat rule (an annihilating psi acts first) and the mode criterion
    # may differ only where the anticommutator vanishes, so as operators
    # they agree everywhere, including m + n == 0; both flavor pairs p, pb
    # are covered, the cross-flavor ones (p != pb) as in the flavor action
    N, ell = 2, 2
    monos = basis_monomials(0, N, ell) + basis_monomials(1, N, ell)
    hits = set()
    for m, n in itertools.product(range(-2, 3), repeat=2):
        for i, j, p, pb in itertools.product(range(1, N + 1), repeat=4):
            for mono in monos:
                x = labelled_bilinear(i, p, m, j, pb, n, mono, N)
                y = bilinear_mode_criterion(i, p, m, j, pb, n, mono, N)
                assert x == y, (i, p, m, j, pb, n, mono)
                if x is not None:
                    hits.add((p != pb, x[0]))
    assert hits == {(False, 1), (False, -1), (True, 1), (True, -1)}


# -- full-window oracles of the two Fock actions -------------------------------

def rho_mat_window_oracle(i, j, m0, m1, params, mono,
                          bilinear=labelled_bilinear):
    """rho_mat_on_monomial by a scan of the whole mode window [m0 - d, d]
    (d the monomial degree), outside which both orderings kill the monomial;
    each bilinear term comes from ``bilinear`` (the production kernel, or
    the mode-criterion oracle)."""
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
            step = bilinear(i, p, m0 - k, j, p, k, mono, N)
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
    """gl_ell_action by a scan of the mode window [-d, d] and every label,
    mode outer, so the flat index of psibar_i^s(n) ascends; each term comes
    from the mode-criterion oracle."""
    acc = {}
    for mono, c in vec._terms.items():
        d = monomial_degree(mono, N)
        for n in range(-d, d + 1):
            for i in range(1, N + 1):
                step = bilinear_mode_criterion(i, r, -n, i, s, n, mono, N)
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
    for bilinear in (labelled_bilinear, bilinear_mode_criterion):
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                got = rho_mat_on_monomial(i, j, m0, m1, params, mono)
                want = rho_mat_window_oracle(i, j, m0, m1, params, mono,
                                             bilinear)
                assert list(got.items()) == list(want.items())


def test_rho_mat_diagonal_correction_can_vanish():
    # a_1^{m1} + a_2^{m1} = 0 at odd m1, and no bilinear term reaches the
    # vacuum at m0 = 0: the diagonal correction alone is zero
    params = ParameterSet.of(2, [3, -3], 2)
    for m1 in (-3, -1, 1, 3):
        assert rho_mat_on_monomial(1, 1, 0, m1, params, ()) == {}
        assert rho_mat_window_oracle(1, 1, 0, m1, params, ()) == {}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rho_mat_on_monomial_memo_is_exact(data):
    # one ParameterSet answers every m1 from one sign table per
    # (i, j, m0, mono); each answer must equal a fresh instance's and the
    # window oracle's, item for item and in order
    N = data.draw(st.sampled_from([2, 3]))
    a = data.draw(st.one_of(
        st.just((3, -3)),
        st.lists(st.sampled_from(A_VALUES), min_size=1, max_size=3)))
    q = data.draw(st.sampled_from([Fraction(2), Fraction(5, 2)]))
    monos = data.draw(st.lists(monomials(N, len(a)), min_size=1, max_size=2,
                               unique=True))
    i, j = data.draw(st.integers(1, N)), data.draw(st.integers(1, N))
    m0 = data.draw(st.sampled_from([0, 0, -2, -1, 1, 2]))
    m1s = data.draw(st.permutations(range(-3, 4)))
    shared = ParameterSet.of(q, a, N)
    for m1 in m1s:
        for mono in monos:
            got = rho_mat_on_monomial(i, j, m0, m1, shared, mono)
            fresh = rho_mat_on_monomial(i, j, m0, m1, ParameterSet.of(q, a, N),
                                        mono)
            want = rho_mat_window_oracle(i, j, m0, m1, shared, mono)
            assert list(got.items()) == list(fresh.items()) == list(want.items())
            assert all(type(c) is Fraction for c in got.values())
    assert len(shared.signs) == len(monos)


def test_action_tables_are_suite_scoped(monkeypatch):
    # each suite builds its own ParameterSet, so a second run builds every
    # sign table again instead of reading the first run's
    from torusrep import fock
    from torusrep.verify import verify_nilpotency

    built = []
    real = fock.sign_table

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(fock, "sign_table", counting)
    first = verify_nilpotency([3], 2, deg_max=0)
    n_first = len(built)
    second = verify_nilpotency([3], 2, deg_max=0)
    assert n_first > 0 and len(built) == 2 * n_first
    assert first.to_json() == second.to_json()

    p1, p2 = ParameterSet.of(2, [3], 2), ParameterSet.of(2, [3], 2)
    rho_mat_on_monomial(1, 2, -1, 1, p1, ())
    assert p1 == p2 and hash(p1) == hash(p2)
    assert p1.signs and p1.powers and not p2.signs and not p2.powers


def test_sign_table_calls_the_bilinear_only_on_hits(monkeypatch):
    # every candidate that reaches bilinear_on_monomial gives a term: one
    # whose annihilating factor has no partner, or whose creating factor is
    # already in the monomial, is ruled out before the call; this holds for
    # the torus sign tables and for both flavor actions
    from torusrep import fock

    results = []

    def recording(*args):
        results.append(bilinear_on_monomial(*args))
        return results[-1]

    monkeypatch.setattr(fock, "bilinear_on_monomial", recording)
    callers = {}
    for N, ell in [(2, 1), (2, 2), (3, 1)]:
        monos = [m for d in range(3) for m in basis_monomials(d, N, ell)]
        flavors = range(1, ell + 1)
        for mono in monos:
            start = len(results)
            for i in range(1, N + 1):
                for j in range(1, N + 1):
                    for m0 in range(-2, 3):
                        sign_table(i, j, m0, mono, N, ell)
            callers["sign_table"] = callers.get("sign_table", 0) + len(results) - start
            start = len(results)
            for r in flavors:
                for s in flavors:
                    gl_ell_action(r, s, mono)
            callers["gl_ell"] = callers.get("gl_ell", 0) + len(results) - start
            start = len(results)
            for A in range(-2 * N, 2 * N + 2):
                for B in range(-2 * N, 2 * N + 2):
                    glbar_action(A, B, mono, flavors)
            callers["glbar"] = callers.get("glbar", 0) + len(results) - start
    assert all(callers.values()), callers
    assert None not in results


@pytest.mark.parametrize("N,ell", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_toral_generators_act_diagonally(N, ell):
    # each h_{i,n} combines k0, k1 and the diagonal units E_{i,i} t1^n with
    # |n| <= TORAL_WINDOW (m0 = 0), and each such unit maps every monomial
    # to a multiple of itself; the joint highest-weight check reads the
    # eigenvalues off these images
    params = ParameterSet.of(2, [3, 5][:ell], N)
    window = range(-TORAL_WINDOW, TORAL_WINDOW + 1)
    units = {(i, i, 0, n) for i in range(1, N + 1) for n in window}
    for i, n in itertools.product(range(1, N + 1), window):
        assert {key for key, _ in h_gen(i, n, N)._terms} <= units | {K0, K1}
    for d in range(4):
        for m in basis_monomials(d, N, ell):
            for (i, _, _, n) in sorted(units):
                assert set(rho_mat_on_monomial(i, i, 0, n, params, m)) <= {m}, (i, n, m)


def test_actions_keep_fraction_coefficients():
    # at m1 = 0 the images carry the Fraction constants +-1, and the vectors
    # built from them Fractions
    from torusrep.verify import CachedAction

    params = ParameterSet.of(2, [3, 5], 2)
    act = CachedAction(params)
    for mono in basis_monomials(1, 2, 2):
        v = FockVector.monomial(mono)
        for x in (E(1, 2, 0, 0), E(2, 1, -1, 0), E(1, 1, 1, 0)):
            ((i, j, m0, m1), _), = x._terms
            image = rho_mat_on_monomial(i, j, m0, m1, params, mono)
            assert all(type(c) is Fraction for c in image.values())
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
            got = lift(gl_ell_action, r, s, vec)
            want = gl_ell_window_oracle(r, s, vec, N)
            assert list(got._terms.items()) == list(want.items())


def test_rho_examples():
    params = ParameterSet.of(2, [3], 2)
    v = vacuum()
    got = rho_action(E(1, 1, 0, 1), params, v)
    assert got == v.scale(Fraction(3) * 2 / (1 - 2))
    assert rho_action(GlqElement({(K0, 0): 1}), params, v) == v
    assert rho_action(E(1, 2, 1, 1), params, v).is_zero()
    assert rho_action(GlqElement({(K1, 0): 1}), params, v).is_zero()

    params2 = ParameterSet.of(2, [3, 5], 2)
    w = FockVector.monomial(hw_monomial([1, 1]))
    assert rho_action(GlqElement({(K0, 0): 1}), params2, w) == w.scale(2)


def test_gl_ell_examples():
    N, ell = 2, 2
    v = FockVector.monomial((psi(1, 2, 0, N),))
    got = lift(gl_ell_action, 1, 2, v)
    assert got == FockVector.monomial((psi(1, 1, 0, N),))
    assert lift(gl_ell_action, 1, 2, vacuum()).is_zero()
    w = FockVector.monomial((psi(1, 1, 0, N),))
    assert lift(gl_ell_action, 1, 1, w) == w


@pytest.mark.parametrize("N,ell,deg", [(2, 1, 2), (3, 1, 2), (2, 2, 1)])
def test_glbar_action_matches_flavorwise_bilinear_oracle(N, ell, deg):
    # glbar_action reads its terms off line_terms; the oracle has no
    # survival rule: it applies :psi^p[-A] psibar^p[B-1]: flavor by flavor
    # and drops the bilinears that vanish
    blocks = sorted({tuple(range(1, ell + 1))} | {(p,) for p in range(1, ell + 1)})
    seen = set()
    for mono in [m for d in range(deg + 1) for m in basis_monomials(d, N, ell)]:
        for A in range(-2 * N, 2 * N + 2):
            for B in range(-2 * N, 2 * N + 2):
                for flavors in blocks:
                    want = []
                    for p in flavors:
                        term = bilinear_on_monomial((p, PSI, -A), (p, PSIBAR, B - 1), mono)
                        if term is not None:
                            want.append((term[1], term[0], p, 0))
                    assert list(glbar_action(A, B, mono, flavors)) == want, (A, B, mono)
                    if want:
                        seen.add("both-create" if -A < 0 and B - 1 < 0
                                 else "diagonal" if A == B else "lower" if A > B else "upper")
    assert seen == {"both-create", "diagonal", "lower", "upper"}


def test_glbar_examples():
    N = 2
    v = FockVector.monomial((psi(2, 1, 0, N),))
    got = lift(glbar_action, 1, 2, v, [1])
    assert got == FockVector.monomial((psi(1, 1, 0, N),))
    # vacuum killed by strictly-upper units acting at positive rows
    for row, col in [(3, 1), (3, 4), (5, 2)]:
        assert lift(glbar_action, row, col, vacuum(), [1]).is_zero() or row <= col


def test_glbar_level():
    # the central charge of the doubly-infinite action is the block size:
    # [E_{A,B}, E_{B,A}] acts as E_{A,A} - E_{B,B} + |S_r| when the unit
    # pair straddles the normal-ordering cut (A <= 0 < B), and without the
    # central summand otherwise
    N = 2
    blocks = [(1, 2), (1,), (2,)]
    vs = [vacuum(),
          FockVector.monomial((psi(1, 1, 0, N), psi(1, 2, 0, N))),
          FockVector.monomial((psibar(2, 1, -1, N),))]
    for S in blocks:
        for (A, B) in [(-1, 1), (0, 2), (1, 2), (-2, -1), (1, 4)]:
            for v in vs:
                comm = (lift(glbar_action, A, B, lift(glbar_action, B, A, v, S), S)
                        - lift(glbar_action, B, A, lift(glbar_action, A, B, v, S), S))
                want = lift(glbar_action, A, A, v, S) - lift(glbar_action, B, B, v, S)
                if A <= 0 < B:
                    want = want + v.scale(len(S))
                assert comm == want


def test_glbar_diagonal_counts():
    N = 2
    v = FockVector.monomial((psi(1, 1, 0, N), psi(1, 2, 0, N)))
    got = lift(glbar_action, 1, 1, v, [1])
    assert got == v


@pytest.mark.parametrize("case", ["raising", "toral-eigenvalue", "toral-off-line",
                                  "flavor-fixed"])
def test_each_highest_weight_law_can_fail(monkeypatch, case):
    # a vector with a degree-one creator is not killed by the raising half;
    # eta with one more term, (a_1)^n, fails the eigenvalue check, and so
    # does a diagonal sign table with a stray term off the product vector's
    # line, at the first h; the product vector of the
    # flavor-reversed weight passes all three (one block of equal a_p, so
    # the torus side cannot tell the flavors apart) but is not flavor-fixed
    from torusrep import duality, verify

    N = 2
    if case == "raising":
        monkeypatch.setattr(verify, "hw_monomial", lambda mu: (psi(1, 1, -1, N),))
    elif case == "toral-eigenvalue":
        real_scalars = duality.toral_scalars

        def shifted(mu, i, params):
            out = real_scalars(mu, i, params)
            out[1, 0] = out.get((1, 0), 0) - 1
            return out

        monkeypatch.setattr(duality, "toral_scalars", shifted)
    elif case == "toral-off-line":
        monkeypatch.setattr(duality, "cached_sign_table", with_stray_term(
            duality.cached_sign_table, (psi(1, 1, -9, N),), {(1, 1, 0), (2, 2, 0)}))
    else:
        real_monomial = verify.hw_monomial
        monkeypatch.setattr(verify, "hw_monomial", lambda mu: real_monomial(mu[::-1]))
    report = verify.verify_highest_weight(N, [3, 3], 2, mu_bound=1)
    assert not report.passed
    if case == "toral-off-line":
        assert report.witness == {"mu": "(-1,-1)", "law": "toral-eigenvalue",
                                  "h": f"h[1,{-TORAL_WINDOW}]"}
    else:
        assert report.witness["law"] == case, report.witness


def test_a_raising_key_that_cancels_in_the_window_still_fails(monkeypatch):
    # the raising law is proven at every m1: a stray term in the sign table
    # the keyed sums read, which the windowed evaluation does not see,
    # fails the suite, and its key is the witness
    from torusrep import verify

    N = 2
    stray = (psi(1, 1, -9, N),)
    monkeypatch.setattr(verify, "cached_sign_table",
                        with_stray_term(verify.cached_sign_table, stray, {(1, 2, 0)}))
    report = verify.verify_highest_weight(N, [3, 3], 2, mu_bound=1)
    assert report.degrees[0]["table"] == {"mus": [0, 6]}
    assert report.witness == {"mu": "(-1,-1)", "law": "raising-degree-zero", "x": "E[1,2]",
                              "key": [str(stray), 1, 0], "sum": 1}


HW_CONFIGS = [(2, [3], 2, 2), (2, [3, 3], 2, 2), (2, [3, 5], 2, 2), (3, [3, 5], 2, 2),
              (3, [3, 3], 2, 2), (2, [3, 5], "5/2", 2), (3, [3, 5, 7], 2, 1)]


@pytest.mark.parametrize("N,a,q,bound", HW_CONFIGS)
@pytest.mark.parametrize("monomial", ["product", "degree-one", "reversed", "shifted"])
def test_highest_weight_suite_matches_the_pointwise_oracle(monkeypatch, N, a, q, bound,
                                                           monomial):
    # the keyed suite writes the report of the point-by-point route, on the
    # product monomials and on three wrong ones: a degree-one creator (raising
    # fails), the flavor-reversed weight's and the weight shifted by one
    # (toral laws fail)
    from torusrep import verify

    make = {"product": hw_monomial,
            "degree-one": lambda mu: (psi(1, 1, -1, N),),
            "reversed": lambda mu: hw_monomial(mu[::-1]),
            "shifted": lambda mu: hw_monomial([m + 1 for m in mu])}[monomial]
    monkeypatch.setattr(verify, "hw_monomial", make)
    got = verify.verify_highest_weight(N, a, q, mu_bound=bound)
    assert got.to_json() == highest_weight_oracle(N, a, q, bound, make).to_json()
    assert got.passed == (monomial == "product" or (monomial == "reversed" and len(a) == 1))


def test_hw_monomial_examples():
    params = ParameterSet.of(2, [3], 2)
    assert hw_monomial([0]) == ()
    assert hw_monomial([1]) == (psi(1, 1, 0, 2),)
    assert hw_monomial([-1]) == (psibar(2, 1, -1, 2),)
    assert hw_degree([0], params) == 0
    assert hw_degree([-1], params) == 1
    assert hw_monomial([2, 1]) == (psi(2, 1, 0, 2), psi(1, 1, 0, 2), psi(1, 2, 0, 2))


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
    rhs = rho_action(bracket(x, y), params, v)
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
        g = lift(gl_ell_action, r, s, v)
        for mono, _ in g.items():
            assert monomial_degree(mono, N) == n
        a = rho_action(x, params, g)
        b = lift(gl_ell_action, r, s, rho_action(x, params, v))
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
            a = rho_action(x, params, lift(gl_ell_action, r, r, v))
            b = lift(gl_ell_action, r, r, rho_action(x, params, v))
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
        a = lift(gl_ell_action, r, s, lift(glbar_action, row, col, v, flavors))
        b = lift(glbar_action, row, col, lift(gl_ell_action, r, s, v), flavors)
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


@pytest.mark.parametrize("N,deg_max", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1)])
def test_keyed_nilpotency_matches_family_oracle(N, deg_max):
    got = verify_nilpotency([3], 2, N=N, deg_max=deg_max)
    assert got.passed
    assert got.to_json() == nilpotency_oracle([3], 2, N, deg_max).to_json()


def flip_k1_signs_on_degree_two(monkeypatch):
    """Flip the sign of the k = 1 terms of every sign table on a degree-2
    monomial; every route reads the tables through fock.sign_table."""
    from torusrep import fock

    real = fock.sign_table

    def flipped(i, j, m0, mono, N, ell):
        table = real(i, j, m0, mono, N, ell)
        if monomial_degree(mono, N) != 2:
            return table
        return tuple((m2, -s if k == 1 else s, p, k) for m2, s, p, k in table)

    monkeypatch.setattr(fock, "sign_table", flipped)


def test_keyed_sums_evaluate_to_the_square(monkeypatch):
    # with a flipped sign the square no longer vanishes; at every windowed
    # m1 the keyed sums of each (i, j, vector, K) must still evaluate to the
    # square summed in exact arithmetic through the action
    from torusrep import verify

    flip_k1_signs_on_degree_two(monkeypatch)
    N, d = 2, 1
    params = ParameterSet.of(2, [3], N)
    act = verify.CachedAction(ParameterSet.of(2, [3], N))
    nonzero = 0
    for i, j in [(1, 2), (2, 1)]:
        for mono in [m for n in range(d + 1) for m in basis_monomials(n, N, 1)]:
            v = FockVector.monomial(mono)
            keyed = dict(verify.nilpotency_sums(i, j, mono, d, params))
            nonzero += len(keyed)
            for m1 in range(-M1_WINDOW, M1_WINDOW + 1):
                inner = {k2: act(E(i, j, k2, m1), v)
                         for k2 in range(-K_WINDOW - 2 * d, 2 * d + 1)}
                for K in range(-K_WINDOW, K_WINDOW + 1):
                    square = FockVector.zero()
                    for k2, w in inner.items():
                        if K - k2 <= 2 * d + 2:
                            square = square + act(E(i, j, K - k2, m1), w)
                    got = verify.evaluate_sums(keyed.get(K, {}), m1, params)
                    assert got == square._terms, (i, j, mono, m1, K)
    assert nonzero


def test_nilpotency_routes_catch_a_flipped_sign(monkeypatch):
    flip_k1_signs_on_degree_two(monkeypatch)
    for deg_max in (1, 2):
        keyed = verify_nilpotency([3], 2, N=2, deg_max=deg_max)
        oracle = nilpotency_oracle([3], 2, 2, deg_max)
        assert keyed.verdict == oracle.verdict == "fail"
        assert keyed.witness == oracle.witness
        assert keyed.to_json() == oracle.to_json()


def test_nilpotency_fails_on_a_key_that_cancels_in_the_window(monkeypatch, capsys):
    # Add to one vector's keyed sums the integer coefficients c_s of
    # P(z) = prod over the windowed m1 of (z - q^{-m1}), keyed on the
    # exponent s: at m1 the sum is a^{2 m1} P(q^{-m1}) = 0, so every
    # windowed family cancels, yet the keys are nonzero and the suite fails
    # with the key as its witness.
    from torusrep import cli, verify

    q = Fraction(2)
    poly = [Fraction(1)]
    for m1 in range(-M1_WINDOW, M1_WINDOW + 1):
        root = q ** -m1
        poly = [(poly[s - 1] if s else 0) - root * (poly[s] if s < len(poly) else 0)
                for s in range(len(poly) + 1)]
    scale = math.lcm(*(c.denominator for c in poly))
    coeffs = [int(c * scale) for c in poly]
    extra = {((), (1, 1), s): c for s, c in enumerate(coeffs) if c}
    assert len(extra) == 2 * M1_WINDOW + 2
    params = ParameterSet.of(q, [3], 2)
    assert all(not verify.evaluate_sums(extra, m1, params)
               for m1 in range(-M1_WINDOW, M1_WINDOW + 1))
    assert verify.evaluate_sums(extra, M1_WINDOW + 1, params)

    real = verify.nilpotency_sums

    def injected(i, j, mono, d, params):
        out = real(i, j, mono, d, params)
        if (i, j, mono) == (2, 1, ()):
            out = out + [(K_WINDOW, extra)]
        return out

    monkeypatch.setattr(verify, "nilpotency_sums", injected)
    rep = verify.verify_nilpotency([3], 2, N=2, deg_max=0)
    assert rep.verdict == "fail"
    assert rep.degrees[0]["table"] == {"families": [10, 10]}
    (mono3, flavors, s), c = next(iter(extra.items()))
    assert rep.witness == {"i": 2, "j": 1, "K": K_WINDOW, "vector": "()",
                           "key": [str(mono3), list(flavors), s], "sum": c}
    assert cli.main(["verify-nilpotency", "--N", "2", "--ell", "1", "--a", "3",
                     "--q", "2", "--deg-max", "0"]) == 1
    assert '"key"' in capsys.readouterr().out


# At N 3 with two flavors, degree 2 has 5 764 basis vectors; that case is
# left out for time.
MODULE_CONFIGS = [(N, a, d) for N in (2, 3) for a in ([3], [3, 5], [3, 3])
                  for d in range(3) if (N, len(a), d) != (3, 2, 2)]


@pytest.mark.parametrize("N,a,deg_max", MODULE_CONFIGS)
def test_keyed_module_property_matches_action_oracle(N, a, deg_max):
    for seed in range(3):
        got = verify_module_property(N, a, 2, 5, seed, deg_max=deg_max)
        assert got.passed
        want = module_property_oracle(N, a, 2, 5, seed, deg_max=deg_max)
        assert got.to_json() == want.to_json()


@pytest.mark.parametrize("N,a,deg_max", [(2, [3], 1), (2, [3, 5], 1), (3, [3], 1),
                                          (2, [3, 3], 1)])
def test_module_routes_agree_on_a_flipped_sign(monkeypatch, N, a, deg_max):
    # failing reports, and their first failing trial and vector, match
    flip_k1_signs_on_degree_two(monkeypatch)
    for seed in range(3):
        got = verify_module_property(N, a, 2, 30, seed, deg_max=deg_max)
        want = module_property_oracle(N, a, 2, 30, seed, deg_max=deg_max)
        assert got.verdict == want.verdict == "fail"
        assert got.witness == want.witness
        assert got.to_json() == want.to_json()


def bracket_swapped_twists(x, y):
    """[x, y] with the exponents m1 n0 and n1 m0 of its two terms swapped."""
    out = {}
    for (kx, ex), cx in x._terms.items():
        for (ky, ey), cy in y._terms.items():
            if not (isinstance(kx, tuple) and isinstance(ky, tuple)):
                continue
            (i, j, m0, m1), (k, l, n0, n1) = kx, ky
            c, e, s0, s1 = cx * cy, ex + ey, m0 + n0, m1 + n1
            if j == k:
                w = e + n1 * m0
                accumulate(out, ((i, l, s0, s1), w), c)
                if i == l and not s0 and not s1:
                    accumulate(out, (K0, w), c * m0)
                    accumulate(out, (K1, w), c * m1)
            if i == l:
                accumulate(out, ((k, j, s0, s1), e + m1 * n0), -c)
    return GlqElement._of(out)


@pytest.mark.parametrize("mutation", ["sign-table", "bracket-twists", "diagonal-scalar"])
def test_module_property_can_fail(monkeypatch, mutation):
    # the left side drops the diagonal scalar, which cancels in the
    # commutator, so a wrong scalar shows only on the bracket side
    from torusrep import verify

    if mutation == "sign-table":
        flip_k1_signs_on_degree_two(monkeypatch)
    elif mutation == "bracket-twists":
        monkeypatch.setattr(verify, "bracket", bracket_swapped_twists)
    else:
        real = verify.rho_mat_on_monomial

        def shifted(i, j, m0, m1, params, mono):
            out = dict(real(i, j, m0, m1, params, mono))
            if m0 == 0 and i == j and m1:
                accumulate(out, mono, ONE)
            return out

        monkeypatch.setattr(verify, "rho_mat_on_monomial", shifted)
    report = verify.verify_module_property(2, [3], 2, 100, 7, deg_max=1)
    assert not report.passed


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
            mono = hw_monomial(mu)
            for p in range(1, ell + 1):
                for i in range(1, N + 1):
                    for k in range(-4, 5):
                        got = bilinear_on_monomial(psi(i, p, -k, N), psibar(i, p, k, N), mono)
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
        v = vacuum()
        got = rho_action(h_gen(N, 0, N), params, v)
        assert got == v.scale(ell)
        for i in range(1, N):
            assert rho_action(h_gen(i, 0, N), params, v).is_zero()


def test_format_monomial():
    N = 2
    m = (psi(1, 1, 0, N), psibar(2, 1, -1, N))
    assert format_monomial(m, N) == "psi[1,1](0)*psibar[2,1](-1)|0>"
    assert format_monomial((), N) == "|0>"
    v = FockVector.monomial(m, Fraction(-5, 3))
    assert vector_to_json(v, N) == {"psi[1,1](0)*psibar[2,1](-1)|0>": "-5/3"}
