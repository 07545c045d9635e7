import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fock_oracles import coeff
from torusrep.errors import InvalidParams, InvalidQ, NotGeneric
from torusrep.covariant import CovElement, K, ekey
from torusrep.fock import FockVector, psi
from torusrep.liealg import K0, GlqElement
from torusrep.scalars import (
    ParameterSet,
    SetPartition,
    accumulate,
    as_scalar,
    gamma_q_exponent,
    qpow,
    split_index,
    validate_spectrum,
)


def brute_force_exponent(x, q, bound=64):
    """Independent oracle: try every exponent in a wide window."""
    for n in range(-bound, bound + 1):
        if qpow(q, n) == x:
            return n
    return None


def test_gamma_q_exponent_examples():
    assert gamma_q_exponent(8, 2) == 3
    assert gamma_q_exponent(1, Fraction(5, 2)) == 0
    assert gamma_q_exponent(3, 2) is None


def test_gamma_q_exponent_matches_brute_force():
    qs = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-2), Fraction(1, 3)]
    xs = [Fraction(8), Fraction(1, 8), Fraction(9, 4), Fraction(-8), Fraction(7, 3)]
    for q in qs:
        for x in xs:
            assert gamma_q_exponent(x, q) == brute_force_exponent(x, q)


def test_gamma_q_exponent_invalid_q():
    for q in (0, 1, -1):
        with pytest.raises(InvalidQ):
            gamma_q_exponent(4, q)


@given(
    st.sampled_from([Fraction(2), Fraction(3), Fraction(5, 2), Fraction(-3, 2), Fraction(2, 5)]),
    st.integers(min_value=-20, max_value=20),
)
def test_gamma_q_exponent_roundtrip(q, n):
    assert gamma_q_exponent(qpow(q, n), q) == n


def test_validate_spectrum_examples():
    assert validate_spectrum([3, 3], 2).blocks == ((1, 2),)
    assert validate_spectrum([3, 5], 2).blocks == ((1,), (2,))
    with pytest.raises(NotGeneric) as exc:
        validate_spectrum([3, 6], 2)
    assert (exc.value.i, exc.value.j, exc.value.n) == (2, 1, 1)


@given(st.permutations([0, 1, 2]))
def test_validate_spectrum_permutation_equivariant(perm):
    base = [Fraction(3), Fraction(3), Fraction(5)]
    vals = [base[p] for p in perm]
    part = validate_spectrum(vals, 2)
    # blocks, as value-classes, must agree with the permuted base classes
    classes = {tuple(sorted(i for i in range(1, 4) if vals[i - 1] == v))
               for v in set(base)}
    assert set(part.blocks) == classes


def block_representatives(a, part):
    """The parameter value of each block of the spectrum partition."""
    vals = [as_scalar(x) for x in a]
    return tuple(vals[b[0] - 1] for b in part.blocks)


def test_block_representative_separation():
    # b_r q^{-k} pairwise distinct over blocks and a window of k
    q = Fraction(5, 2)
    a = [Fraction(3), Fraction(3), Fraction(7)]
    part = validate_spectrum(a, q)
    reps = block_representatives(a, part)
    K = 8
    seen = set()
    for b in reps:
        for k in range(-K, K + 1):
            v = b * qpow(q, -k)
            assert v not in seen
            seen.add(v)


def test_scalar_text_form():
    assert str(Fraction(-3, 2)) == "-3/2"
    assert as_scalar("-3/2") == Fraction(-3, 2)
    assert as_scalar("7") == 7
    assert as_scalar("5/2") == Fraction(5, 2)


def test_parameter_set_validation():
    p = ParameterSet.of("5/2", ["3", "5"], 2)
    assert p.ell == 2
    assert validate_spectrum(p.a, p.q).blocks == ((1,), (2,))
    with pytest.raises(Exception):
        ParameterSet.of(1, [3], 2)
    with pytest.raises(Exception):
        ParameterSet.of(2, [0], 2)
    with pytest.raises(InvalidParams):
        ParameterSet.of(2, [], 2)


def test_set_partition_helpers():
    p = SetPartition.of([[2, 1], [3]])
    assert p.blocks == ((1, 2), (3,))
    assert p.block_of(2) == (1, 2) and p.block_of(3) == (3,)
    assert p.describe() == "blocks=[[1, 2], [3]]"
    assert p.power(2).blocks == ((1, 2), (3,), (4, 5), (6,))
    q = SetPartition.of([[1]])
    assert p.union(q).blocks == ((1, 2), (3,), (4,))


VECTOR_TYPES = (GlqElement, CovElement, FockVector)
VECTOR_KEYS = {
    GlqElement: (((1, 2, 0, 1), 0), (K0, 0), ((2, 1, -1, 0), 1)),
    CovElement: ((ekey(1, 2, 0, 1), 0), (K, -1), (ekey(2, 1, -1, 0), 0)),
    FockVector: ((), (psi(1, 1, 0, 2),), (psi(2, 1, -1, 2),)),
}


@pytest.mark.parametrize("cls", VECTOR_TYPES)
def test_sparse_vector_core(cls):
    a, b, c = VECTOR_KEYS[cls]
    x = cls({a: 2, b: "-1/3", c: 0})
    # zeros pruned at construction; int and str coefficients become Fractions
    assert x._terms == {a: 2, b: Fraction(-1, 3)}
    assert all(type(v) is Fraction for _, v in x.items())
    assert coeff(x, c) == 0 and not x.is_zero()
    assert (x - x).is_zero() and (x - x)._terms == {}
    assert (x + cls({a: -2}))._terms == {b: Fraction(-1, 3)}
    assert x.scale(0)._terms == {}
    assert (-x)._terms == {a: -2, b: Fraction(1, 3)}
    assert x.scale(3)._terms == {a: 6, b: -1}
    # equality ignores insertion order, and hashing agrees with it
    y = cls({b: Fraction(-1, 3), a: Fraction(2)})
    assert x == y and hash(x) == hash(y)
    assert x != cls({a: 2}) and x != x.scale(2)
    # the three vector types are never equal, even with equal terms, and
    # never add or subtract
    for other in VECTOR_TYPES:
        if other is not cls:
            assert cls.zero() != other.zero()
            assert cls({a: 1}) != other._of({a: Fraction(1)})
            z = other({VECTOR_KEYS[other][0]: 1})
            for op in (operator.add, operator.sub):
                with pytest.raises(TypeError):
                    op(x, z)
                with pytest.raises(TypeError):
                    op(cls.zero(), other.zero())


def test_accumulate():
    terms = {}
    accumulate(terms, "a", 0)
    assert terms == {}  # a zero first term is not stored
    for key, c in (("a", 1), ("b", 2), ("c", 3), ("b", Fraction(1, 2))):
        accumulate(terms, key, c)
    accumulate(terms, "a", -1)
    assert terms == {"b": Fraction(5, 2), "c": 3}  # a cancelled key is gone
    accumulate(terms, "a", 4)
    accumulate(terms, "b", 1)
    # an updated key keeps its place; a re-added one goes last
    assert list(terms) == ["b", "c", "a"]


def test_split_index():
    assert split_index(1, 2) == (0, 1)
    assert split_index(0, 2) == (-1, 2)
    assert split_index(3, 2) == (1, 1)
    assert split_index(-1, 2) == (-1, 1)
    for m in range(-6, 7):
        d, r = split_index(m, 3)
        assert m == 3 * d + r and 1 <= r <= 3
