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

Coefficients lie in Z[q, q^-1], as in `liealg`: a term is keyed by
(canonical key, e) and carries the integer coefficient of q^e.  The shift
relation and the orbit sum only add to e, so `cov_bracket`, `theta` and
`theta_inv` never read a value of q.
"""
from __future__ import annotations

from typing import Dict, Iterable, List, Tuple, Union

from .errors import NotInSl, NotInSlInfinity
from .liealg import GlqElement, K0, K1, mat_key
from .scalars import Rational, SparseVector, accumulate, split_index

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
    """Finite combination over the canonical basis, keyed by (canonical
    key, q-exponent)."""

    __slots__ = ()

    @staticmethod
    def _order(item):
        k, e = item[0]
        if k == K:
            return (0, e)
        if k == KPRIME:
            return (1, e)
        if k[0] == "h":
            return (2, k[1], e)
        return (3,) + k[1:] + (e,)

    @staticmethod
    def _name(term) -> str:
        k, e = term
        if k[0] == "h":
            k = f"hbar[{k[1]}]"
        elif k != K and k != KPRIME:
            _, i, j, m0, m1 = k
            k = f"e[{i},{j}]({m0},{m1})"
        return f"q^{e}*{k}" if e else k

    @staticmethod
    def basis(key: CovKey, coeff: Rational = 1, e: int = 0) -> "CovElement":
        return CovElement({(key, e): coeff})


def canonicalize(m: int, n: int, k: int, N: int) -> Tuple[int, EKey]:
    """Canonical form of the class of E_{m,n} (x) t^k, for m != n, as
    (e, key): the class is q^e times the basis vector.

    Shifting the row into 1..N by m1 blocks picks up e = -k*m1.
    """
    if m == n:
        raise NotInSlInfinity("canonicalize takes an off-diagonal unit")
    m1, i = split_index(m, N)
    n1, j = split_index(n, N)
    return -k * m1, ekey(i, j, k, n1 - m1)


# -- raw (pre-canonical) arithmetic -----------------------------------------
#
# Raw keys: (r, s, t, e) for q^e E_{r,s} (x) t^t, a diagonal unit when
# r = s, and (K, e) for the center.  Diagonal raw coefficients must sum to
# zero per (t, e) before canonicalization.

RawKey = Union[Tuple[int, int, int, int], Tuple[str, int]]


def _raw_units(u: CovElement, N: int) -> List[Tuple[int, int, int, int, int]]:
    """The raw form of u without its center, as (r, s, t, e, coefficient)
    for q^e E_{r,s} (x) t^t; r = s for a diagonal unit."""
    out = []
    for (key, e), c in u._terms.items():
        if key == K:
            continue
        if key == KPRIME or key[0] == "h":
            r, s = (1, N + 1) if key == KPRIME else (key[1], key[1] + 1)
            out += ((r, r, 0, e, c), (s, s, 0, e, -c))
        else:
            _, i, j, m0, m1 = key
            out.append((i, N * m1 + j, m0, e, c))
    return out


def _telescope(diag0: Dict[Tuple[int, int], int], N: int, out: Dict) -> None:
    """Add a degree-(0,0) diagonal part {(i, e): c} to out in the hbar_r
    basis: hbar_r takes c_1 + ... + c_r at each e.  A nonzero trace at some
    e raises `NotInSl`."""
    for e in {e for _, e in diag0}:
        acc = 0
        for r in range(1, N):
            acc += diag0.get((r, e), 0)
            accumulate(out, (hkey(r), e), acc)
        if acc + diag0.get((N, e), 0):
            raise NotInSl("degree-(0,0) diagonal part has nonzero trace")


def _canonicalize_raw(raw: Dict[RawKey, int], N: int) -> CovElement:
    """Canonical coordinates of a raw combination, unit by unit.

    A diagonal unit E_{Nd+i,Nd+i} (x) t^t is q^{-t*d} e_{i,i}(t, 0) for
    t != 0, and E_{i,i} - d*kprime for t = 0; the E_{i,i} then telescope
    into hbar_r.
    """
    out: Dict = {}
    trace: Dict[Tuple[int, int], int] = {}
    diag0: Dict[Tuple[int, int], int] = {}
    for key, c in raw.items():
        if key[0] == K:
            accumulate(out, key, c)
            continue
        r, s, t, e = key
        if r != s:
            shift, ck = canonicalize(r, s, t, N)
            accumulate(out, (ck, e + shift), c)
            continue
        d, i = split_index(r, N)
        if t:
            accumulate(trace, (t, e), c)
            accumulate(out, (ekey(i, i, t, 0), e - t * d), c)
        else:
            accumulate(diag0, (i, e), c)
            accumulate(out, (KPRIME, e), -d * c)
    if trace:
        raise NotInSl("raw diagonal part has nonzero trace")
    _telescope(diag0, N, out)
    return CovElement._of(out)


def cov_bracket(u: CovElement, v: CovElement, N: int) -> CovElement:
    """The orbit-summed bracket of [class(E_{a,b} t^m), class(E_{c,d} t^n)]
    over the raw units: only the shifts g aligning b with c, or d with a,
    contribute, and each adds g*m to the exponent."""
    acc: Dict[RawKey, int] = {}
    rv = _raw_units(v, N)
    for a, b, m, eu, cu in _raw_units(u, N):
        for c, d, n, ev, cv in rv:
            w, e = cu * cv, eu + ev
            if (c - b) % N == 0:
                g = (c - b) // N
                r = a + N * g
                accumulate(acc, (r, d, m + n, e + g * m), w)
                if r == d and m + n == 0 and m:
                    accumulate(acc, (K, e + g * m), w * m)
            if (d - a) % N == 0:
                g = (d - a) // N
                accumulate(acc, (c, b + N * g, m + n, e + g * m), -w)
    return _canonicalize_raw(acc, N)


# -- the coordinate isomorphism with the quantum-torus algebra --------------

def theta(x: GlqElement, N: int) -> CovElement:
    """Relabel a trace-zero element into covariant coordinates, carrying
    each exponent.  An index above N, or a (t0, t1)-degree-(0,0) diagonal
    part with nonzero trace at some exponent, raises `NotInSl`."""
    out: Dict = {}
    diag0: Dict[Tuple[int, int], int] = {}
    for (key, e), c in x._terms.items():
        if key == K0:
            out[K, e] = c
        elif key == K1:
            out[KPRIME, e] = c
        else:
            i, j, m0, m1 = key
            if i > N or j > N:
                raise NotInSl(f"index out of range for N={N}: {key}")
            if i == j and m0 == 0 and m1 == 0:
                diag0[i, e] = c
            else:
                out[ekey(i, j, m0, m1), e] = c
    if diag0:
        _telescope(diag0, N, out)
    return CovElement._of(out)


def theta_inv(u: CovElement) -> GlqElement:
    out: Dict = {}
    for (key, e), c in u._terms.items():
        if key == K:
            accumulate(out, (K0, e), c)
        elif key == KPRIME:
            accumulate(out, (K1, e), c)
        elif key[0] == "h":
            r = key[1]
            accumulate(out, (mat_key(r, r), e), c)
            accumulate(out, (mat_key(r + 1, r + 1), e), -c)
        else:
            _, i, j, m0, m1 = key
            accumulate(out, (mat_key(i, j, m0, m1), e), c)
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
