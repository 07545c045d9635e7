import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusrep.covariant import (
    CovElement,
    K,
    KPRIME,
    _canonicalize_raw,
    _raw_units,
    canonicalize,
    cov_basis_keys,
    cov_bracket,
    ekey,
    hkey,
    theta,
    theta_inv,
)
from torusrep import verify
from torusrep.cli import main
from torusrep.errors import NotInSl, NotInSlInfinity
from torusrep.liealg import K0, K1, GlqElement, bracket, sl_defects
from torusrep.scalars import accumulate

from liealg_oracles import at, bracket_oracle, cov_bracket_orbit_oracle
from test_liealg import COEFFS, EXPONENTS, Q_VALUES, basis_window, central, rand_basis

E = GlqElement.matrix_unit
Q = Fraction(5, 2)


def test_canonicalize_examples():
    # the class is q^e times the basis vector
    assert canonicalize(5, 3, 2, 2) == (-4, ekey(1, 1, 2, -1))
    assert canonicalize(1, 2, 0, 2) == (0, ekey(1, 2, 0, 0))

    # E_{3,3} - E_{1,1} at N=2: the shifted unit E_{3,3} is E_{1,1} - kprime
    d = _canonicalize_raw({(3, 3, 0, 0): 1, (1, 1, 0, 0): -1}, 2)
    assert d == CovElement.basis(KPRIME, -1)
    # ... at every exponent
    d = _canonicalize_raw({(3, 3, 0, 2): 1, (1, 1, 0, 2): -1}, 2)
    assert d == CovElement.basis(KPRIME, -1, e=2)
    # a raw diagonal part traceless at q = 1 only
    with pytest.raises(NotInSl):
        _canonicalize_raw({(3, 3, 1, 0): 1, (1, 1, 1, 1): -1}, 2)

    with pytest.raises(NotInSlInfinity):
        canonicalize(3, 3, 1, 2)


def test_canonicalize_shift_relation():
    # class(E_{m,n} t^k) = q^k * class(E_{m+N,n+N} t^k)
    N = 3
    for (m, n, k) in [(5, 3, 2), (1, 2, 0), (-4, 7, -1), (2, 2 - 3, 4)]:
        e1, k1 = canonicalize(m, n, k, N)
        e2, k2 = canonicalize(m + N, n + N, k, N)
        assert k1 == k2 and e1 == k + e2


def test_canonicalize_idempotent_on_basis():
    N = 2
    for m1 in range(-2, 3):
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                if (i - j, m1) == (0, 0):
                    continue
                assert canonicalize(i, N * m1 + j, 3, N) == (0, ekey(i, j, 3, m1))


def test_cov_bracket_worked_instance():
    # [class(E_{3,2} t), class(E_{0,1} t^-1)] at N=2 equals
    # q^-1 (class(E_{1,1}-E_{0,0}) + k) and the diagonal class telescopes
    # to hbar_1 - kprime
    N = 2
    e1, ku = canonicalize(3, 2, 1, N)
    u = CovElement.basis(ku, e=e1)               # = class(E_{3,2} t)
    e2, kv = canonicalize(0, 1, -1, N)
    v = CovElement.basis(kv, e=e2)               # = class(E_{0,1} t^-1)
    got = cov_bracket(u, v, N)
    want = (CovElement.basis(hkey(1), e=-1) - CovElement.basis(KPRIME, e=-1)
            + CovElement.basis(K, e=-1))
    assert got == want
    # and directly via the raw canonicalizer
    raw = {(1, 1, 0, 0): 1, (0, 0, 0, 0): -1}
    assert _canonicalize_raw(raw, N) == (
        CovElement.basis(hkey(1)) - CovElement.basis(KPRIME))


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("q", [Fraction(5, 2), Fraction(-3)])
def test_diagonal_classes_match_orbit_oracle(N, q):
    # the route takes e_{i,i}(m0, 0) as the single unit E_{i,i} t^m0, the
    # oracle as the two-unit representative
    keys = list(cov_basis_keys(N, 2))
    for i in range(1, N + 1):
        for m0 in (-3, -2, -1, 1, 2, 3):
            u = CovElement.basis(ekey(i, i, m0, 0))
            for key in keys:
                v = CovElement.basis(key)
                assert at(cov_bracket(u, v, N), q) == cov_bracket_orbit_oracle(u, v, N, q)


@pytest.mark.parametrize("q", [Fraction(5, 2), Fraction(-3)])
def test_diagonal_outputs_match_orbit_oracle(q):
    # [e_{i,j}(m0, m1), e_{j,i}(n0, n1)] has diagonal raw units at every
    # degree and row shift, at t = 0 too
    N = 3
    window = range(-1, 2)
    for i, j in itertools.permutations(range(1, N + 1), 2):
        for m0, m1, n0, n1 in itertools.product(window, repeat=4):
            u = CovElement.basis(ekey(i, j, m0, m1))
            v = CovElement.basis(ekey(j, i, n0, n1))
            assert at(cov_bracket(u, v, N), q) == cov_bracket_orbit_oracle(u, v, N, q)


def test_cov_bracket_small_cases():
    N = 2
    assert cov_bracket(CovElement.basis(K), CovElement.basis(ekey(1, 2, 3, 1)), N).is_zero()
    got = cov_bracket(CovElement.basis(ekey(1, 2, 0, 0)), CovElement.basis(ekey(2, 1, 0, 0)), N)
    assert got == CovElement.basis(hkey(1))
    # kprime is central in the quotient even though its raw form is not
    for other in [ekey(1, 2, 2, -1), ekey(1, 1, 3, 0), hkey(1), KPRIME, K]:
        assert cov_bracket(CovElement.basis(KPRIME), CovElement.basis(other), N).is_zero()


def test_theta_examples():
    N = 2
    assert theta(E(1, 2, 2, 3), N) == CovElement.basis(ekey(1, 2, 2, 3))
    assert theta(central(K1, e=2), N) == CovElement.basis(KPRIME, e=2)
    assert theta(central(K0), N) == CovElement.basis(K)
    assert theta(E(1, 1, 2, 0), N) == CovElement.basis(ekey(1, 1, 2, 0))
    assert theta(E(1, 1) - E(2, 2), N) == CovElement.basis(hkey(1))
    assert theta(E(1, 1, e=-1) - E(2, 2, e=-1), N) == CovElement.basis(hkey(1), e=-1)
    with pytest.raises(NotInSl):
        theta(E(1, 1), N)
    # traceless at q = 1 only
    with pytest.raises(NotInSl):
        theta(E(1, 1) - E(2, 2, e=1), N)


def test_theta_refuses_an_index_above_N():
    # a matrix index above N is outside the rank-N algebra, even when the
    # degree-(0,0) diagonal part is traceless
    for x in (E(1, 3, 1, 0), E(3, 1), E(1, 1) - E(3, 3)):
        assert sl_defects(x, 2)
        with pytest.raises(NotInSl):
            theta(x, 2)
    assert not sl_defects(E(1, 3, 1, 0), 3)


def test_theta_inv_examples():
    assert theta_inv(CovElement.basis(ekey(1, 2, 2, 3))) == E(1, 2, 2, 3)
    assert theta_inv(CovElement.basis(K)) == central(K0)
    assert theta_inv(CovElement.basis(ekey(1, 2, 2, 3), -2, e=4)) == E(1, 2, 2, 3, -2, e=4)
    assert theta_inv(CovElement.basis(hkey(1))) == E(1, 1) - E(2, 2)
    # matrix indices below 1 are rejected, as by GlqElement.matrix_unit
    for key in (ekey(0, 1, 1, 0), hkey(0)):
        with pytest.raises(ValueError):
            theta_inv(CovElement.basis(key))


@pytest.mark.parametrize("N", [2, 3])
def test_theta_bijective_on_basis_window(N):
    seen = set()
    for key in cov_basis_keys(N, 3):
        u = CovElement.basis(key)
        x = theta_inv(u)
        assert theta(x, N) == u
        assert x not in seen
        seen.add(x)


@pytest.mark.parametrize("N", [2, 3])
def test_theta_inv_theta_identity(N):
    for x in basis_window(N, 3):
        assert theta_inv(theta(x, N)) == x


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([2, 3]))
def test_theta_is_homomorphism(seed, N):
    rng = random.Random(seed)
    x = rand_basis(rng, N, 3)
    y = rand_basis(rng, N, 3)
    lhs = theta(bracket(x, y), N)
    rhs = cov_bracket(theta(x, N), theta(y, N), N)
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([2, 3]))
def test_cov_bracket_is_a_lie_bracket(seed, N):
    # antisymmetry and Jacobi checked directly on the quotient side
    rng = random.Random(seed)
    keys = list(cov_basis_keys(N, 2))
    u, v, w = (CovElement.basis(rng.choice(keys)) for _ in range(3))
    assert cov_bracket(u, v, N) == -cov_bracket(v, u, N)
    jac = (cov_bracket(u, cov_bracket(v, w, N), N)
           + cov_bracket(v, cov_bracket(w, u, N), N)
           + cov_bracket(w, cov_bracket(u, v, N), N))
    assert jac.is_zero()


def cov_elements(N: int):
    """Multi-term keyed elements over the canonical window |m0|, |m1| <= 2,
    with q-exponents from EXPONENTS."""
    return st.dictionaries(st.tuples(st.sampled_from(list(cov_basis_keys(N, 2))),
                                     st.sampled_from(EXPONENTS)),
                           st.sampled_from(COEFFS),
                           min_size=1, max_size=4).map(CovElement._of)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from(Q_VALUES), st.data())
def test_cov_bracket_matches_orbit_oracle(N, q, data):
    u = data.draw(cov_elements(N))
    v = data.draw(cov_elements(N))
    assert at(cov_bracket(u, v, N), q) == cov_bracket_orbit_oracle(u, v, N, q)


def test_cov_bracket_matches_orbit_oracle_on_every_window_pair():
    # the theta images of every ordered pair of the N = 2, max_exp 1 window
    N = 2
    window = [theta(x, N) for x in basis_window(N, 1)]
    for u, v in itertools.product(window, repeat=2):
        got = cov_bracket(u, v, N)
        for q in Q_VALUES:
            assert at(got, q) == cov_bracket_orbit_oracle(u, v, N, q), (u, v, q)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_theta_inverts_theta_inv_on_keyed_elements(N, data):
    u = data.draw(cov_elements(N))
    assert theta(theta_inv(u), N) == u


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from(Q_VALUES), st.data())
def test_oracles_agree_under_theta(N, q, data):
    # the two slow oracles, tied by theta alone
    u = data.draw(cov_elements(N))
    v = data.draw(cov_elements(N))
    x, y = theta_inv(u), theta_inv(v)
    assert theta(bracket_oracle(x, y, q), N) == cov_bracket_orbit_oracle(u, v, N, q)


def cov_bracket_swapped_shifts(u, v, N):
    """`cov_bracket` with the shift exponents of its two cross terms
    swapped: the first term picks up the second's g*m, and back."""
    acc = {}
    for a, b, m, eu, cu in _raw_units(u, N):
        for c, d, n, ev, cv in _raw_units(v, N):
            w, e = cu * cv, eu + ev
            g1, g2 = (c - b) // N, (d - a) // N
            if (c - b) % N == 0:
                r = a + N * g1
                accumulate(acc, (r, d, m + n, e + g2 * m), w)
                if r == d and m + n == 0 and m:
                    accumulate(acc, (K, e + g2 * m), w * m)
            if (d - a) % N == 0:
                accumulate(acc, (c, b + N * g2, m + n, e + g1 * m), -w)
    return _canonicalize_raw(acc, N)


def test_theta_suite_catches_swapped_shift_exponents(monkeypatch, capsys):
    monkeypatch.setattr(verify, "cov_bracket", cov_bracket_swapped_shifts)
    for N, q in ((2, "2"), (3, "5/2")):
        report = verify.verify_theta_iso(N, q, 50, 0)
        assert not report.passed
        assert report.witness["law"] == "bracket-transport"
        assert set(report.witness) == {"trial", "law", "x", "y"}
    argv = ["verify-theta", "--N", "2", "--q", "2", "--trials", "50", "--seed", "0"]
    assert main(argv) == 1
    assert '"law": "bracket-transport"' in capsys.readouterr().out


def test_gsum_support_is_small():
    # for canonical keys the orbit sum has at most two contributing shifts;
    # the bracket of basis classes therefore has few terms
    N = 2
    rng = random.Random(11)
    for _ in range(50):
        x = rand_basis(rng, N, 2)
        y = rand_basis(rng, N, 2)
        got = cov_bracket(theta(x, N), theta(y, N), N)
        assert len(list(got.items())) <= 2 * (N + 2)


def test_format_cov():
    u = (CovElement.basis(ekey(1, 2, 0, -1), Fraction(-1, 2)) + CovElement.basis(K)
         + CovElement.basis(hkey(1), e=3))
    s = u.text()
    assert "e[1,2](0,-1)" in s and "k" in s
    assert s == "k + q^3*hbar[1] - 1/2*e[1,2](0,-1)"
    assert CovElement.zero().text() == "0"
