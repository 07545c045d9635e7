"""The shift-covariant quotient of the doubly-infinite trace-zero affine algebra.

Classes of E_{m,n} (x) t^k under the relation identifying a basis vector
with q^k times its N-step diagonal shift.  Canonical coordinates are

    e_{i,j}(m0, m1)  <->  class of E_{i, N*m1+j} (x) t^m0,
    e_{i,i}(m0, 0)   <->  class of E_{i,i} (x) t^m0 = q^m0 class of E_{N+i,N+i} (x) t^m0,
    hbar_r           <->  class of E_{r,r}-E_{r+1,r+1},
    kprime           <->  class of E_{r,r}-E_{N+r,N+r} (any r),
    k                <->  the affine center.

The bracket is the orbit-summed affine bracket; for two matrix-unit classes
at most two shifts contribute.  Folding the second torus exponent into the
COLUMN (canonical representatives have their ROW in 1..N) is forced: it is
the unique orientation for which the coordinate relabeling
E_{i,j} t0^m0 t1^m1 -> e_{i,j}(m0, m1) intertwines the torus-side bracket
with the orbit-summed bracket; with the opposite orientation the two cross
terms trade the exponents q^{m1*n0} and q^{n1*m0}.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple, Union

from .errors import NotInSl, NotInSlInfinity
from .liealg import GlqElement, K0, K1, mat_key
from .scalars import ONE, Rational, SparseVector, accumulate, as_scalar, split_index

K = "k"
KPRIME = "kprime"
EKey = Tuple[str, int, int, int, int]    # ("e", i, j, m0, m1)
HKey = Tuple[str, int]                   # ("h", r)
CovKey = Union[EKey, HKey, str]


def ekey(i: int, j: int, m0: int, m1: int) -> EKey:
    if (i - j, m0, m1) == (0, 0, 0):
        raise ValueError("e_{i,i}(0,0) is not a basis vector")
    return ("e", i, j, m0, m1)


def hkey(r: int) -> HKey:
    return ("h", r)


class CovElement(SparseVector):
    """Finite rational combination over the canonical basis."""

    __slots__ = ()

    @staticmethod
    def _order(item):
        k = item[0]
        if k == K:
            return (0,)
        if k == KPRIME:
            return (1,)
        if k[0] == "h":
            return (2, k[1])
        return (3,) + k[1:]

    @staticmethod
    def _name(k) -> str:
        if k == K or k == KPRIME:
            return k
        if k[0] == "h":
            return f"hbar[{k[1]}]"
        _, i, j, m0, m1 = k
        return f"e[{i},{j}]({m0},{m1})"

    @staticmethod
    def basis(key: CovKey, coeff: Rational = 1) -> "CovElement":
        return CovElement({key: coeff})


def canonicalize(m: int, n: int, k: int, N: int, q: Rational) -> Tuple[Fraction, EKey]:
    """Canonical form of the class of E_{m,n} (x) t^k, for m != n.

    Shifts the row into 1..N, picking up the character power q^{-k*m1};
    the power q^0 is the constant ONE.
    """
    if m == n:
        raise NotInSlInfinity("canonicalize takes an off-diagonal unit")
    q = as_scalar(q)
    m1, i = split_index(m, N)
    n1, j = split_index(n, N)
    e = -k * m1
    return q ** e if e else ONE, ekey(i, j, k, n1 - m1)


# -- raw (pre-canonical) arithmetic -----------------------------------------
#
# Raw keys: (r, s, t) for E_{r,s} (x) t^t, a diagonal unit when r = s, and K
# for the center.  Diagonal raw coefficients must sum to zero per t-degree
# before canonicalization.

RawKey = Union[Tuple[int, int, int], str]


def _raw_units(u: CovElement, N: int) -> List[Tuple[int, int, int, Fraction]]:
    """The raw form of u without its center, as (r, s, t, coefficient)
    for E_{r,s} (x) t^t; r = s for a diagonal unit."""
    out = []
    for key, c in u._terms.items():
        if key == K:
            continue
        if key == KPRIME or key[0] == "h":
            r, s = (1, N + 1) if key == KPRIME else (key[1], key[1] + 1)
            out += ((r, r, 0, c), (s, s, 0, -c))
        else:
            _, i, j, m0, m1 = key
            out.append((i, N * m1 + j, m0, c))
    return out


def _canonicalize_raw(raw: Dict[RawKey, Fraction], N: int, q: Fraction) -> CovElement:
    """Canonical coordinates of a raw combination, unit by unit.

    A diagonal unit E_{Nd+i,Nd+i} (x) t^t is q^{-t*d} e_{i,i}(t, 0) for
    t != 0, and E_{i,i} - d*kprime for t = 0; the E_{i,i} then telescope
    into hbar_r.
    """
    out: Dict[CovKey, Fraction] = {}
    trace: Dict[int, Fraction] = {}
    diag0: Dict[int, Fraction] = {}
    for key, c in raw.items():
        if key == K:
            accumulate(out, K, c)
            continue
        r, s, t = key
        if r != s:
            coeff, ck = canonicalize(r, s, t, N, q)
            accumulate(out, ck, c if coeff is ONE else c * coeff)
            continue
        accumulate(trace, t, c)
        d, i = split_index(r, N)
        if t:
            accumulate(out, ekey(i, i, t, 0), c * q ** (-t * d) if d else c)
        else:
            accumulate(diag0, i, c)
            accumulate(out, KPRIME, -d * c)
    if trace:
        raise NotInSl("raw diagonal part has nonzero trace")
    acc = 0
    for r in range(1, N):
        acc += diag0.get(r, 0)
        accumulate(out, hkey(r), acc)
    return CovElement._of(out)


def _raw_bracket(a: int, b: int, m: int, c: int, d: int, n: int,
                 N: int, q: Fraction, coeff: Fraction,
                 acc: Dict[RawKey, Fraction]) -> None:
    """Accumulate [class(E_{a,b} t^m), class(E_{c,d} t^n)] into acc.

    Only shifts g aligning b with c, or d with a, contribute.
    """
    if (c - b) % N == 0:
        g = (c - b) // N
        e = g * m
        w = coeff if not e else q ** e if coeff is ONE else coeff * q ** e
        r = a + N * g
        accumulate(acc, (r, d, m + n), w)
        if r == d and m + n == 0 and m:
            accumulate(acc, K, w * m)
    if (d - a) % N == 0:
        g = (d - a) // N
        e = g * m
        w = coeff if not e else q ** e if coeff is ONE else coeff * q ** e
        accumulate(acc, (c, b + N * g, m + n), -w)


def cov_bracket(u: CovElement, v: CovElement, N: int, q: Rational) -> CovElement:
    q = as_scalar(q)
    acc: Dict[RawKey, Fraction] = {}
    rv = _raw_units(v, N)
    for a, b, m, cu in _raw_units(u, N):
        for c, d, n, cv in rv:
            _raw_bracket(a, b, m, c, d, n, N, q,
                         cv if cu is ONE else cu if cv is ONE else cu * cv, acc)
    return _canonicalize_raw(acc, N, q)


# -- the coordinate isomorphism with the quantum-torus algebra --------------

def theta(x: GlqElement, N: int) -> CovElement:
    """Relabel a trace-zero element into covariant coordinates.  An index
    above N, or a (t0, t1)-degree-(0,0) diagonal part with nonzero trace,
    raises `NotInSl`."""
    out: Dict[CovKey, Fraction] = {}
    diag0: Dict[int, Fraction] = {}
    for key, c in x._terms.items():
        if key == K0:
            out[K] = c
        elif key == K1:
            out[KPRIME] = c
        else:
            i, j, m0, m1 = key
            if i > N or j > N:
                raise NotInSl(f"index out of range for N={N}: {key}")
            if i == j and m0 == 0 and m1 == 0:
                diag0[i] = c
            else:
                out[ekey(i, j, m0, m1)] = c
    if sum(diag0.values()) != 0:
        raise NotInSl("degree-(0,0) diagonal part has nonzero trace")
    # telescope the traceless diagonal into the hbar_r basis
    acc = 0
    for r in range(1, N):
        acc += diag0.get(r, 0)
        if acc:
            out[hkey(r)] = acc
    return CovElement._of(out)


def theta_inv(u: CovElement) -> GlqElement:
    out: Dict = {}
    for key, c in u._terms.items():
        if key == K:
            accumulate(out, K0, c)
        elif key == KPRIME:
            accumulate(out, K1, c)
        elif key[0] == "h":
            r = key[1]
            accumulate(out, mat_key(r, r), c)
            accumulate(out, mat_key(r + 1, r + 1), -c)
        else:
            _, i, j, m0, m1 = key
            accumulate(out, mat_key(i, j, m0, m1), c)
    return GlqElement._of(out)


def cov_basis_keys(N: int, max_exp: int) -> Iterable[CovKey]:
    """Canonical basis keys with |m0|, |m1| <= max_exp."""
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            for m0 in range(-max_exp, max_exp + 1):
                for m1 in range(-max_exp, max_exp + 1):
                    if (i - j, m0, m1) != (0, 0, 0):
                        yield ekey(i, j, m0, m1)
    for r in range(1, N):
        yield hkey(r)
    yield KPRIME
    yield K

