import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from torusrep import cli, verify
from torusrep.liealg import (
    K0,
    K1,
    GlqElement,
    bracket,
    degrees,
    is_in_sl,
)
from torusrep.scalars import NEG_ONE, ONE, accumulate

from liealg_oracles import bracket_oracle, h_gen

E = GlqElement.matrix_unit
Q = Fraction(5, 2)

# The kernels skip products by the constant ONE (an identity test), so the
# oracle tests also draw a coefficient equal to ONE but not the same object.
FRESH_ONE = Fraction(1)
COEFFS = [ONE, NEG_ONE, FRESH_ONE, Fraction(-2, 3), Fraction(7), Fraction(3, 4)]
Q_VALUES = [Fraction(2), Fraction(5, 2), Fraction(-3), Fraction(1, 3)]


def rand_basis(rng, N, max_exp):
    """A random element of the standard trace-zero basis."""
    kind = rng.randrange(8)
    if kind == 0:
        return GlqElement({K0: 1})
    if kind == 1:
        return GlqElement({K1: 1})
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
    # level terms appear exactly on matching opposite monomials
    x = bracket(E(1, 2, 1, 1), E(2, 1, -1, -1), Q)
    expected = (E(1, 1) - E(2, 2) + GlqElement({K0: 1}) + GlqElement({K1: 1})).scale(Q ** -1)
    assert x == expected

    assert bracket(GlqElement({K0: 1}), E(1, 2, 0, 3), Q).is_zero()
    assert bracket(E(1, 2, 0, 1), E(1, 2, 0, 3), Q).is_zero()

    y = bracket(E(1, 1, 1, 1), E(1, 1, -1, -1), Q)
    assert y == (GlqElement({K0: 1}) + GlqElement({K1: 1})).scale(Q ** -1)


def test_bracket_central_instance_general():
    # [E_{i,j} t0^m0 t1^m1, E_{j,i} t0^-m0 t1^-m1]
    for (i, j, m0, m1) in [(1, 2, 2, 3), (2, 1, -1, 2), (1, 2, 0, 2), (2, 2, 1, -2)]:
        got = bracket(E(i, j, m0, m1), E(j, i, -m0, -m1), Q)
        want = (E(i, i) - E(j, j) + GlqElement({K0: 1}).scale(m0)
                + GlqElement({K1: 1}).scale(m1)).scale(Q ** (-m1 * m0))
        assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([2, 3]))
def test_bracket_axioms(seed, N):
    rng = random.Random(seed)
    x = rand_basis(rng, N, 3)
    y = rand_basis(rng, N, 3)
    z = rand_basis(rng, N, 3)
    assert bracket(x, y, Q) == -bracket(y, x, Q)
    jac = (bracket(x, bracket(y, z, Q), Q)
           + bracket(y, bracket(z, x, Q), Q)
           + bracket(z, bracket(x, y, Q), Q))
    assert jac.is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_bracket_closure_and_grading(seed):
    rng = random.Random(seed)
    N = rng.choice([2, 3])
    x = rand_basis(rng, N, 3)
    y = rand_basis(rng, N, 3)
    b = bracket(x, y, Q)
    assert is_in_sl(b, N)
    gx, gy = degrees(x), degrees(y)
    if len(gx) == 1 and len(gy) == 1 and not b.is_zero():
        (dx,), (dy,) = gx, gy
        assert degrees(b) == {dx + dy}


def glq_elements(N: int):
    """Multi-term elements with k0/k1 terms and coefficients from COEFFS."""
    key = st.one_of(st.sampled_from([K0, K1]),
                    st.tuples(st.integers(1, N), st.integers(1, N),
                              st.integers(-2, 2), st.integers(-2, 2)))
    return st.dictionaries(key, st.sampled_from(COEFFS),
                           min_size=1, max_size=5).map(GlqElement._of)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from(Q_VALUES), st.data())
def test_bracket_matches_oracle(N, q, data):
    assert FRESH_ONE == ONE and FRESH_ONE is not ONE
    x = data.draw(glq_elements(N))
    y = data.draw(glq_elements(N))
    assert bracket(x, y, q) == bracket_oracle(x, y, q)


def bracket_wrong_twist(x, y, q):
    """[x, y] with q^{m1 n0} in place of q^{n1 m0} on the second term."""
    out = {}
    for kx, cx in x._terms.items():
        for ky, cy in y._terms.items():
            if not (isinstance(kx, tuple) and isinstance(ky, tuple)):
                continue
            (i, j, m0, m1), (k, l, n0, n1) = kx, ky
            w = cx * cy * Fraction(q) ** (m1 * n0)
            if j == k:
                accumulate(out, (i, l, m0 + n0, m1 + n1), w)
            if i == l:
                accumulate(out, (k, j, m0 + n0, m1 + n1), -w)
            if j == k and i == l and m0 + n0 == 0 and m1 + n1 == 0:
                accumulate(out, K0, w * m0)
                accumulate(out, K1, w * m1)
    return GlqElement._of(out)


def test_bracket_suite_catches_a_wrong_twist(monkeypatch, capsys):
    # the suite computes [x, y] once per trial and reuses it in every law;
    # a kernel with the wrong q-power must still fail with a witness
    monkeypatch.setattr(verify, "bracket", bracket_wrong_twist)
    report = verify.verify_bracket_axioms(2, 2, 50, 0)
    assert not report.passed
    assert report.witness["law"] in ("antisymmetry", "jacobi")
    argv = ["verify-bracket", "--N", "2", "--q", "2", "--trials", "50", "--seed", "0"]
    assert cli.main(argv) == 1
    assert '"verdict": "fail"' in capsys.readouterr().out


def test_commuting_family():
    # {E_{i,j} t0^m0 t1^m} with i != j fixed pairwise commutes
    for m0, n0 in [(0, 1), (2, -1), (1, 1)]:
        assert bracket(E(1, 2, m0, 2), E(1, 2, n0, -1), Q).is_zero()


def test_raising_part_stable_under_toral_bracket():
    # [plus, toral] stays in the raising part: every key has m0 >= 1, or
    # m0 = 0 with i < j
    N = 2
    plus_gens = [E(1, 2, 0, 2), E(1, 2, 1, -1), E(2, 1, 2, 0), E(1, 1, 1, 3)]
    torals = [h_gen(i, n, N, Q) for i in (1, 2) for n in (-2, 0, 3)]
    for x in plus_gens:
        for h in torals:
            for key, _ in bracket(x, h, Q).items():
                assert isinstance(key, tuple)
                i, j, m0, _ = key
                assert m0 >= 1 or (m0 == 0 and i < j)


def test_h_gen_cases():
    N = 3
    q = Fraction(2)
    assert h_gen(N, 0, N, q) == GlqElement({K0: 1}) - E(1, 1) + E(N, N)
    assert h_gen(1, 0, 2, q) == E(1, 1) - E(2, 2)
    assert h_gen(2, 3, 2, q) == E(1, 1, 0, 3, -q ** 3) + E(2, 2, 0, 3)


def test_degrees():
    assert degrees(E(1, 2, -3, 1)) == {3}
    assert degrees(GlqElement({K0: 1})) == {0}
    assert degrees(E(1, 2, 1, 0) + E(2, 1, -1, 0)) == {-1, 1}
    assert degrees(E(1, 2, 0, 1) + GlqElement({K1: 1})) == {0}


def test_text_form_roundtrip():
    x = E(1, 2, 2, -3, Fraction(-5, 2)) + GlqElement({K0: 1}) + E(2, 2, 0, 1)
    s = x.text()
    assert "E[1,2]*t0^2*t1^-3" in s and "k0" in s
    assert s == "k0 - 5/2*E[1,2]*t0^2*t1^-3 + E[2,2]*t1^1"
    assert GlqElement.zero().text() == "0"
