"""The two-cocycle extended matrix algebra over the quantum 2-torus.

Elements are finite rational combinations of the basis
E_{i,j} t0^m0 t1^m1 (a matrix unit times a torus monomial) together with
the two central generators k0, k1.  The bracket implements

    [E_{i,j} t0^m0 t1^m1, E_{k,l} t0^n0 t1^n1]
        = d_{j,k} q^{m1*n0} E_{i,l} t0^{m0+n0} t1^{m1+n1}
        - d_{i,l} q^{n1*m0} E_{k,j} t0^{m0+n0} t1^{m1+n1}
        + d_{j,k} d_{i,l} d_{m0+n0,0} d_{m1+n1,0} q^{m1*n0} (m0 k0 + m1 k1).

The highest-weight checks build no toral generator h_{i,n}: they sum the
integer signs of its diagonal units' sign tables (`duality.toral_mismatch`).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Set, Tuple, Union

from .scalars import ONE, Rational, SparseVector, accumulate, as_scalar

K0 = "k0"
K1 = "k1"
MatKey = Tuple[int, int, int, int]
Key = Union[MatKey, str]


def mat_key(i: int, j: int, m0: int = 0, m1: int = 0) -> MatKey:
    if i < 1 or j < 1:
        raise ValueError("matrix indices are 1-based")
    return (i, j, m0, m1)


class GlqElement(SparseVector):
    """Immutable finite linear combination over the monomial basis."""

    __slots__ = ()

    @staticmethod
    def _order(item):
        k = item[0]
        if k == K0:
            return (0,)
        if k == K1:
            return (1,)
        return (2,) + k

    @staticmethod
    def _name(k) -> str:
        if not isinstance(k, tuple):
            return k    # "k0" or "k1"
        i, j, m0, m1 = k
        name = f"E[{i},{j}]"
        if m0:
            name += f"*t0^{m0}"
        if m1:
            name += f"*t1^{m1}"
        return name

    @staticmethod
    def matrix_unit(i: int, j: int, m0: int = 0, m1: int = 0,
                    coeff: Rational = 1) -> "GlqElement":
        return GlqElement({mat_key(i, j, m0, m1): coeff})


def is_in_sl(x: GlqElement, N: int) -> bool:
    """Whether every matrix index is at most N and the (t0, t1)-degree-(0,0)
    diagonal part has trace zero."""
    tr = Fraction(0)
    for k, c in x._terms.items():
        if isinstance(k, tuple):
            i, j, m0, m1 = k
            if i > N or j > N:
                return False
            if i == j and m0 == 0 and m1 == 0:
                tr += c
    return tr == 0


def bracket(x: GlqElement, y: GlqElement, q: Rational) -> GlqElement:
    """Bilinear extension of the defining commutator; k0, k1 are central.
    Products by the constant ONE and powers q^0 are skipped."""
    q = as_scalar(q)
    out: Dict[Key, Fraction] = {}
    for kx, cx in x._terms.items():
        if not isinstance(kx, tuple):
            continue
        i, j, m0, m1 = kx
        for ky, cy in y._terms.items():
            if not isinstance(ky, tuple):
                continue
            k, l, n0, n1 = ky
            if j != k and i != l:
                continue
            c = cy if cx is ONE else cx if cy is ONE else cx * cy
            s0, s1 = m0 + n0, m1 + n1
            if j == k:
                e = m1 * n0
                w = c if not e else q ** e if c is ONE else c * q ** e
                accumulate(out, (i, l, s0, s1), w)
                if i == l and not s0 and not s1:
                    # the level term; here n1*m0 = m1*n0 too
                    if m0:
                        accumulate(out, K0, w * m0)
                    if m1:
                        accumulate(out, K1, w * m1)
            if i == l:
                e = n1 * m0
                w = c if not e else q ** e if c is ONE else c * q ** e
                accumulate(out, (k, j, s0, s1), -w)
    return GlqElement._of(out)


def degrees(x: GlqElement) -> Set[int]:
    """The degrees of x's terms: E t0^m0 t1^m1 sits in degree -m0, and
    k0, k1 in degree 0."""
    return {-k[2] if isinstance(k, tuple) else 0 for k in x._terms}
