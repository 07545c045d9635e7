import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from torusrep import cli, verify
from torusrep.liealg import (
    K0,
    K1,
    GlqElement,
    bracket,
    degrees,
    sl_defects,
)
from torusrep.scalars import accumulate

from liealg_oracles import at, bracket_oracle, h_gen

E = GlqElement.matrix_unit
Q = Fraction(5, 2)

# Keyed elements carry integer coefficients; the oracle tests also draw
# rational ones, since the brackets are bilinear over any coefficients.
COEFFS = [1, -1, 2, -3, 7, Fraction(-2, 3), Fraction(3, 4)]
EXPONENTS = range(-2, 3)
Q_VALUES = [Fraction(2), Fraction(5, 2), Fraction(-3), Fraction(1, 3), Fraction(7, 3)]


def central(key, coeff=1, e=0):
    """The term coeff q^e k0 or coeff q^e k1."""
    return GlqElement({(key, e): coeff})


def rand_basis(rng, N, max_exp):
    """A random element of the standard trace-zero basis."""
    kind = rng.randrange(8)
    if kind == 0:
        return central(K0)
    if kind == 1:
        return central(K1)
    if kind == 2 and N >= 2:
        r = rng.randrange(1, N)
        return E(r, r) - E(r + 1, r + 1)
    while True:
        i, j = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        m0 = rng.randrange(-max_exp, max_exp + 1)
        m1 = rng.randrange(-max_exp, max_exp + 1)
        if (i - j, m0, m1) != (0, 0, 0):
            return E(i, j, m0, m1)


def test_bracket_worked_instances():
    # level terms appear exactly on matching opposite monomials, on q^-1
    x = bracket(E(1, 2, 1, 1), E(2, 1, -1, -1))
    expected = (E(1, 1, e=-1) - E(2, 2, e=-1) + central(K0, e=-1) + central(K1, e=-1))
    assert x == expected
    assert at(x, Q) == at(expected, Q) == at(E(1, 1) - E(2, 2) + central(K0)
                                             + central(K1), Q).scale(Q ** -1)

    assert bracket(central(K0), E(1, 2, 0, 3)).is_zero()
    assert bracket(E(1, 2, 0, 1), E(1, 2, 0, 3)).is_zero()

    y = bracket(E(1, 1, 1, 1), E(1, 1, -1, -1))
    assert y == central(K0, e=-1) + central(K1, e=-1)


def test_bracket_central_instance_general():
    # [E_{i,j} t0^m0 t1^m1, E_{j,i} t0^-m0 t1^-m1]
    for (i, j, m0, m1) in [(1, 2, 2, 3), (2, 1, -1, 2), (1, 2, 0, 2), (2, 2, 1, -2)]:
        got = bracket(E(i, j, m0, m1), E(j, i, -m0, -m1))
        e = -m1 * m0
        want = (E(i, i, e=e) - E(j, j, e=e) + central(K0, m0, e) + central(K1, m1, e))
        assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([2, 3]))
def test_bracket_axioms(seed, N):
    rng = random.Random(seed)
    x = rand_basis(rng, N, 3)
    y = rand_basis(rng, N, 3)
    z = rand_basis(rng, N, 3)
    assert bracket(x, y) == -bracket(y, x)
    jac = (bracket(x, bracket(y, z))
           + bracket(y, bracket(z, x))
           + bracket(z, bracket(x, y)))
    assert jac.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_bracket_closure_and_grading(seed):
    rng = random.Random(seed)
    N = rng.choice([2, 3])
    x = rand_basis(rng, N, 3)
    y = rand_basis(rng, N, 3)
    b = bracket(x, y)
    assert not sl_defects(b, N)
    gx, gy = degrees(x), degrees(y)
    if len(gx) == 1 and len(gy) == 1 and not b.is_zero():
        (dx,), (dy,) = gx, gy
        assert degrees(b) == {dx + dy}


def glq_elements(N: int):
    """Multi-term keyed elements with k0/k1 terms, q-exponents from
    EXPONENTS and coefficients from COEFFS."""
    key = st.one_of(st.sampled_from([K0, K1]),
                    st.tuples(st.integers(1, N), st.integers(1, N),
                              st.integers(-2, 2), st.integers(-2, 2)))
    return st.dictionaries(st.tuples(key, st.sampled_from(EXPONENTS)),
                           st.sampled_from(COEFFS),
                           min_size=1, max_size=5).map(GlqElement._of)


def basis_window(N, max_exp):
    """The standard trace-zero basis with |m0|, |m1| <= max_exp."""
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            for m0 in range(-max_exp, max_exp + 1):
                for m1 in range(-max_exp, max_exp + 1):
                    if (i - j, m0, m1) != (0, 0, 0):
                        yield E(i, j, m0, m1)
    for r in range(1, N):
        yield E(r, r) - E(r + 1, r + 1)
    yield central(K0)
    yield central(K1)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from(Q_VALUES), st.data())
def test_bracket_matches_oracle(N, q, data):
    x = data.draw(glq_elements(N))
    y = data.draw(glq_elements(N))
    assert at(bracket(x, y), q) == bracket_oracle(x, y, q)


def test_bracket_matches_oracle_on_every_window_pair():
    # every ordered pair of the N = 2, max_exp 1 window, at each q
    window = list(basis_window(2, 1))
    for x, y in itertools.product(window, repeat=2):
        b = bracket(x, y)
        for q in Q_VALUES:
            assert at(b, q) == bracket_oracle(x, y, q), (x, y, q)


def bracket_wrong_twist(x, y):
    """[x, y] with q^{m1 n0} in place of q^{n1 m0} on the second term."""
    out = {}
    for (kx, ex), cx in x._terms.items():
        for (ky, ey), cy in y._terms.items():
            if not (isinstance(kx, tuple) and isinstance(ky, tuple)):
                continue
            (i, j, m0, m1), (k, l, n0, n1) = kx, ky
            c, e = cx * cy, ex + ey + m1 * n0
            if j == k:
                accumulate(out, ((i, l, m0 + n0, m1 + n1), e), c)
            if i == l:
                accumulate(out, ((k, j, m0 + n0, m1 + n1), e), -c)
            if j == k and i == l and m0 + n0 == 0 and m1 + n1 == 0:
                accumulate(out, (K0, e), c * m0)
                accumulate(out, (K1, e), c * m1)
    return GlqElement._of(out)


def test_bracket_suite_catches_a_wrong_twist(monkeypatch, capsys):
    # the suite computes [x, y] once per trial and reuses it in every law;
    # a kernel with the wrong q-power must still fail with the witness of a
    # law that fails at --q
    monkeypatch.setattr(verify, "bracket", bracket_wrong_twist)
    report = verify.verify_bracket_axioms(2, 2, 50, 0)
    assert not report.passed
    assert report.witness["law"] in ("antisymmetry", "jacobi")
    assert "key" not in report.witness
    argv = ["verify-bracket", "--N", "2", "--q", "2", "--trials", "50", "--seed", "0"]
    assert cli.main(argv) == 1
    assert '"verdict": "fail"' in capsys.readouterr().out


def bracket_cancelling_at_2(x, y):
    """[x, y] plus 2 E_{1,2} - q E_{1,2}, which vanishes at q = 2 only."""
    return bracket(x, y) + GlqElement._of({((1, 2, 0, 0), 0): 2, ((1, 2, 0, 0), 1): -1})


@pytest.mark.parametrize("N", [2, 3])
def test_a_defect_that_cancels_at_q_fails_the_keyed_suite(monkeypatch, capsys, N):
    # the defect is invisible at q = 2: every drawn pair has the oracle's
    # value there, so a suite evaluating its laws at q = 2 passes
    rng = random.Random(0)
    for _ in range(50):
        x, y = (verify.sample_basis_element(rng, N, 3) for _ in range(2))
        assert at(bracket_cancelling_at_2(x, y), 2) == bracket_oracle(x, y, 2)
    monkeypatch.setattr(verify, "bracket", bracket_cancelling_at_2)
    report = verify.verify_bracket_axioms(N, 2, 50, 0)
    assert not report.passed
    assert report.witness["trial"] == 0 and report.witness["law"] == "antisymmetry"
    assert report.witness["key"] in (["(1, 2, 0, 0)", 0], ["(1, 2, 0, 0)", 1])
    assert report.witness["sum"] in (4, -2)
    # at q = 5/2 the defect does not cancel: the pointwise witness
    report = verify.verify_bracket_axioms(N, "5/2", 50, 0)
    assert not report.passed and "key" not in report.witness
    argv = ["verify-bracket", "--N", str(N), "--q", "2", "--trials", "50", "--seed", "0"]
    assert cli.main(argv) == 1
    assert '"key": [' in capsys.readouterr().out


def test_commuting_family():
    # {E_{i,j} t0^m0 t1^m} with i != j fixed pairwise commutes
    for m0, n0 in [(0, 1), (2, -1), (1, 1)]:
        assert bracket(E(1, 2, m0, 2), E(1, 2, n0, -1)).is_zero()


def test_raising_part_stable_under_toral_bracket():
    # [plus, toral] stays in the raising part: every key has m0 >= 1, or
    # m0 = 0 with i < j
    N = 2
    plus_gens = [E(1, 2, 0, 2), E(1, 2, 1, -1), E(2, 1, 2, 0), E(1, 1, 1, 3)]
    torals = [h_gen(i, n, N) for i in (1, 2) for n in (-2, 0, 3)]
    for x in plus_gens:
        for h in torals:
            for (key, _), _ in bracket(x, h).items():
                assert isinstance(key, tuple)
                i, j, m0, _ = key
                assert m0 >= 1 or (m0 == 0 and i < j)


def test_h_gen_cases():
    N = 3
    assert h_gen(N, 0, N) == central(K0) - E(1, 1) + E(N, N)
    assert h_gen(1, 0, 2) == E(1, 1) - E(2, 2)
    assert h_gen(2, 3, 2) == E(1, 1, 0, 3, -1, e=3) + E(2, 2, 0, 3)
    assert at(h_gen(2, 3, 2), 2) == E(1, 1, 0, 3, -8) + E(2, 2, 0, 3)


def test_degrees():
    assert degrees(E(1, 2, -3, 1)) == {3}
    assert degrees(central(K0)) == {0}
    assert degrees(E(1, 2, 1, 0) + E(2, 1, -1, 0, e=2)) == {-1, 1}
    assert degrees(E(1, 2, 0, 1) + central(K1)) == {0}


def test_sl_defects_sum_the_trace_per_exponent():
    # E_{1,1} - q E_{2,2} has trace 1 - q: zero only at q = 1
    assert sl_defects(E(1, 1) - E(2, 2, e=1), 2) == {("trace", 0): 1, ("trace", 1): -1}
    assert sl_defects(E(1, 1, e=1) - E(2, 2, e=1) + E(1, 2, 0, 1, e=3), 2) == {}
    assert sl_defects(E(1, 3, 1, 0, 2, e=-1), 2) == {((1, 3, 1, 0), -1): 2}


def test_text_form_roundtrip():
    x = E(1, 2, 2, -3, Fraction(-5, 2)) + central(K0) + E(2, 2, 0, 1) + E(1, 2, e=-2)
    s = x.text()
    assert "E[1,2]*t0^2*t1^-3" in s and "k0" in s
    assert s == "k0 + q^-2*E[1,2] - 5/2*E[1,2]*t0^2*t1^-3 + E[2,2]*t1^1"
    assert GlqElement.zero().text() == "0"
