"""The two-cocycle extended matrix algebra over the quantum 2-torus.

Elements are finite combinations of the basis E_{i,j} t0^m0 t1^m1 (a
matrix unit times a torus monomial) and the two central generators k0, k1,
with coefficients in Z[q, q^-1]: a term is keyed by (basis key, e) and
carries the integer coefficient of q^e.  The bracket

    [E_{i,j} t0^m0 t1^m1, E_{k,l} t0^n0 t1^n1]
        = d_{j,k} q^{m1*n0} E_{i,l} t0^{m0+n0} t1^{m1+n1}
        - d_{i,l} q^{n1*m0} E_{k,j} t0^{m0+n0} t1^{m1+n1}
        + d_{j,k} d_{i,l} d_{m0+n0,0} d_{m1+n1,0} q^{m1*n0} (m0 k0 + m1 k1)

only adds the twists m1*n0 and n1*m0 to the exponents, so it never reads
a value of q: an identity between its keyed terms holds for every q != 0.
A value at q is `scalars.at_q` of the terms.

The highest-weight checks build no toral generator h_{i,n}: they sum the
integer signs of its diagonal units' sign tables (`duality.toral_mismatch`).
"""
from __future__ import annotations

from typing import Dict, Set, Tuple, Union

from .scalars import Rational, SparseVector, accumulate

K0 = "k0"
K1 = "k1"
MatKey = Tuple[int, int, int, int]
Key = Union[MatKey, str]


def mat_key(i: int, j: int, m0: int = 0, m1: int = 0) -> MatKey:
    if i < 1 or j < 1:
        raise ValueError("matrix indices are 1-based")
    return (i, j, m0, m1)


class GlqElement(SparseVector):
    """Immutable finite combination, keyed by (basis key, q-exponent)."""

    __slots__ = ()

    @staticmethod
    def _order(item):
        k, e = item[0]
        if k == K0:
            return (0, e)
        if k == K1:
            return (1, e)
        return (2,) + k + (e,)

    @staticmethod
    def _name(term) -> str:
        k, e = term
        if isinstance(k, tuple):
            i, j, m0, m1 = k
            k = f"E[{i},{j}]"
            if m0:
                k += f"*t0^{m0}"
            if m1:
                k += f"*t1^{m1}"
        return f"q^{e}*{k}" if e else k

    @staticmethod
    def matrix_unit(i: int, j: int, m0: int = 0, m1: int = 0,
                    coeff: Rational = 1, e: int = 0) -> "GlqElement":
        return GlqElement({(mat_key(i, j, m0, m1), e): coeff})


def sl_defects(x: GlqElement, N: int) -> Dict[Tuple[Key, int], int]:
    """What keeps x out of sl_N, keyed like x: each term with a matrix index
    above N, and ("trace", e) for each q-exponent e at which the
    (t0, t1)-degree-(0,0) diagonal part has nonzero trace.  Empty exactly
    when x lies in sl_N at every q."""
    out: Dict = {}
    for (k, e), c in x._terms.items():
        if isinstance(k, tuple):
            i, j, m0, m1 = k
            if i > N or j > N:
                out[k, e] = c
            elif i == j and m0 == 0 and m1 == 0:
                accumulate(out, ("trace", e), c)
    return out


def bracket(x: GlqElement, y: GlqElement) -> GlqElement:
    """Bilinear extension of the defining commutator; k0, k1 are central.
    The coefficients multiply as integers and the exponents add."""
    out: Dict[Tuple[Key, int], int] = {}
    for (kx, ex), cx in x._terms.items():
        if not isinstance(kx, tuple):
            continue
        i, j, m0, m1 = kx
        for (ky, ey), cy in y._terms.items():
            if not isinstance(ky, tuple):
                continue
            k, l, n0, n1 = ky
            if j != k and i != l:
                continue
            c, e, s0, s1 = cx * cy, ex + ey, m0 + n0, m1 + n1
            if j == k:
                w = e + m1 * n0
                accumulate(out, ((i, l, s0, s1), w), c)
                if i == l and not s0 and not s1:
                    # the level term; here n1*m0 = m1*n0 too
                    if m0:
                        accumulate(out, (K0, w), c * m0)
                    if m1:
                        accumulate(out, (K1, w), c * m1)
            if i == l:
                accumulate(out, ((k, j, s0, s1), e + n1 * m0), -c)
    return GlqElement._of(out)


def degree(key: Key) -> int:
    """E t0^m0 t1^m1 sits in degree -m0, and k0, k1 in degree 0."""
    return -key[2] if isinstance(key, tuple) else 0


def degrees(x: GlqElement) -> Set[int]:
    """The degrees of x's terms."""
    return {degree(k) for k, _ in x._terms}
