"""Slow reference forms of the two brackets of `torusrep`, at one q.

The production brackets are keyed over Z[q, q^-1]; the oracles take keyed
elements, give each term its value c q^e at the q they are called with, and
return the value of the bracket there, keyed on q^0 (`at` writes any
keyed element that way).

`bracket_oracle` is the defining commutator of `torusrep.liealg` written
term by term: sorted items, and a fresh power of q on every term, even q^0
and products by 1.

`cov_bracket_orbit_oracle` starts from the coordinate dictionary in the
`torusrep.covariant` docstring.  It writes both arguments as doubly-infinite
matrix units, sums the affine bracket over every shift g in a window that
holds the contributing ones, and maps the result back to canonical
coordinates with its own shift rule.  It shares no code with
`cov_bracket`, whose orbit sum visits only the two shifts that can
contribute, and it represents e_{i,i}(m0, 0) otherwise: by the trace-zero
(1 - q^{-m0})^{-1} (E_{i,i} - E_{N+i,N+i}) t^m0, where `cov_bracket` takes
the single unit E_{i,i} t^m0 of the same class.

`h_gen` builds the toral generator h_{i,n} as an element, for the oracle
route of the highest-weight checks and the toral bracket tests.
"""
from fractions import Fraction
from typing import Dict, Tuple

from torusrep.covariant import K, KPRIME, CovElement, ekey, hkey
from torusrep.liealg import K0, K1, GlqElement
from torusrep.scalars import Rational, SparseVector, accumulate, as_scalar, at_q, qpow

Unit = Tuple[int, int, int]      # E_{r,s} (x) t^t as (r, s, t)


def at(x: SparseVector, q: Rational) -> SparseVector:
    """The value of a keyed element at q, keyed on q^0."""
    return x._of({(key, 0): c for key, c in at_q(x._terms, as_scalar(q)).items()})


def _values(x: SparseVector, q: Fraction):
    """The terms of x in order, as (basis key, c q^e)."""
    return [(key, c * qpow(q, e)) for (key, e), c in x.items()]


def h_gen(i: int, n: int, N: int) -> GlqElement:
    """The toral generator h_{i,n} (three defining cases, as terms; N >= 2).

    The i = N, n != 0 case carries the coefficient -q^n.
    """
    if not 1 <= i <= N:
        raise ValueError("need 1 <= i <= N")
    if i < N:
        return GlqElement._of({((i, i, 0, n), 0): 1, ((i + 1, i + 1, 0, n), 0): -1})
    if n == 0:
        return GlqElement._of({(K0, 0): 1, ((1, 1, 0, 0), 0): -1, ((N, N, 0, 0), 0): 1})
    return GlqElement._of({((1, 1, 0, n), n): -1, ((N, N, 0, n), 0): 1})


def bracket_oracle(x: GlqElement, y: GlqElement, q: Rational) -> GlqElement:
    """[x, y] at q straight from the defining formula."""
    q = as_scalar(q)
    out: Dict = {}
    for kx, cx in _values(x, q):
        if not isinstance(kx, tuple):
            continue
        i, j, m0, m1 = kx
        for ky, cy in _values(y, q):
            if not isinstance(ky, tuple):
                continue
            k, l, n0, n1 = ky
            c = cx * cy
            if j == k:
                accumulate(out, (i, l, m0 + n0, m1 + n1), c * qpow(q, m1 * n0))
            if i == l:
                accumulate(out, (k, j, m0 + n0, m1 + n1), -c * qpow(q, n1 * m0))
            if j == k and i == l and m0 + n0 == 0 and m1 + n1 == 0:
                w = c * qpow(q, m1 * n0)
                accumulate(out, K0, w * m0)
                accumulate(out, K1, w * m1)
    return GlqElement._of({(key, 0): c for key, c in out.items()})


def _affine_units(u: CovElement, N: int, q: Fraction) -> Dict[Unit, Fraction]:
    """A representative of u as matrix units; the center k is dropped."""
    units: Dict[Unit, Fraction] = {}
    for key, c in _values(u, q):
        if key == K:
            continue
        if key == KPRIME:
            accumulate(units, (1, 1, 0), c)
            accumulate(units, (N + 1, N + 1, 0), -c)
        elif key[0] == "h":
            r = key[1]
            accumulate(units, (r, r, 0), c)
            accumulate(units, (r + 1, r + 1, 0), -c)
        else:
            _, i, j, m0, m1 = key
            if i == j and m1 == 0:
                d = c / (1 - qpow(q, -m0))
                accumulate(units, (i, i, m0), d)
                accumulate(units, (N + i, N + i, m0), -d)
            else:
                accumulate(units, (i, N * m1 + j, m0), c)
    return units


def _row_shift(r: int, N: int) -> Tuple[int, int]:
    """(g, i) with r = N*g + i and 1 <= i <= N."""
    g = (r - 1) // N
    return g, r - N * g


def _canonical(units: Dict[Unit, Fraction], center: Fraction, N: int,
               q: Fraction) -> CovElement:
    """Canonical coordinates of a trace-zero combination of matrix units.

    A unit is moved by the shift that brings its row into 1..N, which
    multiplies it by q^(-t*g).  At t = 0 a diagonal unit E_{Ng+i,Ng+i} is
    E_{i,i} - g*kprime, and the remaining E_{i,i} telescope into hbar_r.
    """
    out: Dict = {}
    accumulate(out, K, center)
    diag0: Dict[int, Fraction] = {}
    for (r, s, t), c in units.items():
        g, i = _row_shift(r, N)
        if r == s and t == 0:
            accumulate(diag0, i, c)
            accumulate(out, KPRIME, -g * c)
            continue
        h, j = _row_shift(s - N * g, N)
        accumulate(out, ekey(i, j, t, h), c * qpow(q, -t * g))
    assert sum(diag0.values()) == 0, "degree-0 diagonal part is not traceless"
    acc = Fraction(0)
    for r in range(1, N):
        acc += diag0.get(r, Fraction(0))
        accumulate(out, hkey(r), acc)
    return CovElement._of({(key, 0): c for key, c in out.items()})


def cov_bracket_orbit_oracle(u: CovElement, v: CovElement, N: int,
                             q: Rational) -> CovElement:
    """The bracket of the shift-covariant quotient at q as an orbit sum.

    For every shift g in the window, q^(g*m) E_{a+Ng, b+Ng} t^m is the
    shifted representative of E_{a,b} t^m, and its affine bracket with
    E_{c,d} t^n is added in full:

        d_{b+Ng,c} E_{a+Ng,d} t^(m+n) - d_{d,a+Ng} E_{c,b+Ng} t^(m+n)
            + m d_{m+n,0} d_{b+Ng,c} d_{d,a+Ng} k.
    """
    q = as_scalar(q)
    uu, vv = _affine_units(u, N, q), _affine_units(v, N, q)
    # a contributing shift has N*|g| <= |b| + |c| or N*|g| <= |a| + |d|,
    # so |g| <= reach
    reach = max((abs(x) for r, s, _ in [*uu, *vv] for x in (r, s)), default=0)
    window = range(-reach - 1, reach + 2)
    units: Dict[Unit, Fraction] = {}
    center = Fraction(0)
    for (a, b, m), cu in uu.items():
        for (c, d, n), cv in vv.items():
            for g in window:
                w = cu * cv * qpow(q, g * m)
                ag, bg = a + N * g, b + N * g
                if bg == c:
                    accumulate(units, (ag, d, m + n), w)
                if d == ag:
                    accumulate(units, (c, bg, m + n), -w)
                if bg == c and d == ag and m + n == 0:
                    center += w * m
    return _canonical(units, center, N, q)

