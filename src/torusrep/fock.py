"""Charged free fermions, their graded Fock space, and the three actions.

Generators are stored in flat coordinates: a generator is the tuple
(p, kind, idx) with flavor p in 1..ell, kind 0 for psi / 1 for psibar, and
idx the flat index gluing the matrix label i in 1..N to the mode n by

    psi_i^p(n)    <-> idx = n*N - i
    psibar_i^p(n) <-> idx = n*N + i - 1.

In flat coordinates both families create exactly when idx < 0, a psi/psibar
pair contracts exactly when the flavors agree and the indices sum to -1,
and the product A(mu)|0> of the highest-weight construction is one sorted
monomial, `hw_monomial(mu)`.
All signs are transposition counts against the global (p, kind, idx) order.

`_gen_on_monomial` is the one Clifford kernel: it inserts a creator, or
removes an annihilator's `partner`, with its sign.  A bilinear
:psi^p[a] psibar^pb[b]: is two of its steps: an annihilating psi (a >= 0)
acts first, with sign -1; otherwise psibar acts first, with sign +1.

`line_terms` is the one line kernel, and the one survival rule, for the
bilinears :psi^(pb + dp)[a0 - t*step] psibar^pb[b0 + t*step]: of constant
index sum.  The torus unit E_{i,j} t0^m0 t1^m1 = sum over k, p of
(a_p q^{-k})^{m1} :psi^p[(m0 - k)N - i] psibar^p[kN + j - 1]:, plus a
diagonal scalar, is its step-N line over every flavor; the flavor unit
E_{r,s} = sum over b of :psi^r[-b-1] psibar^s[b]: is its step-1 line from
flavor s to r; the doubly-infinite unit E_{A,B} = :psi^p[-A] psibar^p[B-1]:,
summed over the flavors p of a block, is the point t = 0 of its step-1
line.  All three act on one monomial and return its integer terms
(monomial, sign, p, t); only the torus action sums terms into vectors, and
only it reads the rank N.  The refolding re-sorts a monomial by inserting
creators.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidParams
from .liealg import GlqElement, K0, K1
from .scalars import (
    NEG_ONE, ONE, ParameterSet, Rational, SparseVector, accumulate, qpow)

PSI = 0
PSIBAR = 1
Gen = Tuple[int, int, int]          # (p, kind, idx)
Monomial = Tuple[Gen, ...]          # strictly increasing creators


def psi(i: int, p: int, n: int, N: int) -> Gen:
    if not 1 <= i <= N:
        raise ValueError("matrix label out of range")
    return (p, PSI, n * N - i)


def psibar(i: int, p: int, n: int, N: int) -> Gen:
    if not 1 <= i <= N:
        raise ValueError("matrix label out of range")
    return (p, PSIBAR, n * N + i - 1)


def gen_mode(g: Gen, N: int) -> int:
    """The mode n of the generator."""
    _, kind, idx = g
    return idx // N + 1 if kind == PSI else idx // N


def gen_label(g: Gen, N: int) -> int:
    """The matrix label i in 1..N."""
    _, kind, idx = g
    return (-idx - 1) % N + 1 if kind == PSI else idx % N + 1


def monomial_degree(m: Monomial, N: int) -> int:
    """The degree: minus the sum of the generator modes."""
    return -sum(gen_mode(g, N) for g in m)


def monomial_weight(m: Monomial, ell: int) -> Tuple[int, ...]:
    """Diagonal torus weight: per flavor, #psi minus #psibar."""
    w = [0] * ell
    for p, kind, _ in m:
        w[p - 1] += 1 if kind == PSI else -1
    return tuple(w)


class FockVector(SparseVector):
    """Finite rational combination of canonical creation monomials."""

    __slots__ = ()

    @staticmethod
    def monomial(m: Monomial, coeff: Rational = 1) -> "FockVector":
        return FockVector({m: coeff})

    def support(self) -> List[Monomial]:
        return sorted(self._terms)

    def __repr__(self):
        return f"FockVector<{len(self._terms)} terms>"


def partner(g: Gen) -> Gen:
    """The one generator g pairs with: same flavor, other kind, idx -1 - idx."""
    return (g[0], 1 - g[1], -g[2] - 1)


def _gen_on_monomial(g: Gen, mono: Monomial) -> Optional[Tuple[int, Monomial]]:
    """Single-generator left action on one monomial: (sign, monomial) or None."""
    if g[2] < 0:
        pos = bisect_left(mono, g)
        if pos < len(mono) and mono[pos] == g:
            return None
        return (-1 if pos & 1 else 1, mono[:pos] + (g,) + mono[pos:])
    h = partner(g)
    pos = bisect_left(mono, h)
    if pos >= len(mono) or mono[pos] != h:
        return None
    return (-1 if pos & 1 else 1, mono[:pos] + mono[pos + 1:])


def bilinear_on_monomial(a: Gen, b: Gen, mono: Monomial
                         ) -> Optional[Tuple[int, Monomial]]:
    """:a b: on one monomial, for a psi generator a and a psibar generator
    b; at most one term.

    The normal order writes -b a when a annihilates (a[2] >= 0), so a acts
    first, and a b otherwise, so b acts first.  It equals ordering by modes
    (psi(m) psibar(n) when m <= n): the two orders differ only on partner
    pairs, and there both let the annihilator act first."""
    first, second, sign = (a, b, -1) if a[2] >= 0 else (b, a, 1)
    step = _gen_on_monomial(first, mono)
    if step is None:
        return None
    s1, mono1 = step
    step = _gen_on_monomial(second, mono1)
    if step is None:
        return None
    s2, mono2 = step
    return (sign * s1 * s2, mono2)


def line_terms(a0: int, b0: int, step: int, dp: int, flavors: Sequence[int],
               mono: Monomial) -> Tuple[Tuple[Monomial, int, int, int], ...]:
    """The nonzero terms of the line sum over t and flavors pb of
    :psi^(pb + dp)[a0 - t*step] psibar^pb[b0 + t*step]: on one monomial, as
    (monomial, sign, pb, t) in ascending (t, pb) order.

    The annihilating factor acts first, so a term survives only if that
    factor contracts a generator of the monomial, or if both factors
    create.  Only those candidates are visited: b0 + t*step = -1 - idx,
    pb = p for a psi generator (p, 0, idx); a0 - t*step = -1 - idx,
    pb = p - dp for a psibar generator (p, 1, idx); and the both-create
    window a0 < t*step < -b0, for every flavor.  A candidate is dropped if
    an annihilating factor's partner is missing from the monomial, or if a
    creating factor is already in it (Pauli exclusion) unless the two
    factors are partners (dp = 0, a0 + b0 = -1): then the annihilating
    factor removes that very generator first.  Every candidate left gives
    a term.
    """
    partners = not dp and a0 + b0 == -1
    candidates = set()
    for t in range(a0 // step + 1, -(b0 // step)):
        for p in flavors:
            candidates.add((t, p))
    for p, kind, idx in mono:
        if kind == PSI:
            x = -1 - b0 - idx
        else:
            x, p = a0 + 1 + idx, p - dp
        if not x % step and p in flavors:
            candidates.add((x // step, p))
    if not candidates:
        return ()
    terms = []
    for t, p in sorted(candidates):
        a, b, pa = a0 - t * step, b0 + t * step, p + dp
        if ((a >= 0 and (pa, PSIBAR, -1 - a) not in mono)
                or (b >= 0 and (p, PSI, -1 - b) not in mono)
                or (not partners and ((a < 0 and (pa, PSI, a) in mono)
                                      or (b < 0 and (p, PSIBAR, b) in mono)))):
            continue
        sign, mono2 = bilinear_on_monomial((pa, PSI, a), (p, PSIBAR, b), mono)
        terms.append((mono2, sign, p, t))
    return tuple(terms)


def sign_table(i: int, j: int, m0: int, mono: Monomial, N: int,
               ell: int) -> Tuple[Tuple[Monomial, int, int, int], ...]:
    """The nonzero terms of :psi_i^p(m0 - k) psibar_j^p(k): on one monomial,
    over all modes k and flavors p, as (monomial, sign, p, k) in ascending
    (k, p) order: the flavor-diagonal step-N line a0 = m0*N - i, b0 = j - 1,
    t = k.  Its factors are partners exactly when m0 = 0 and i = j."""
    return line_terms(m0 * N - i, j - 1, N, 0, range(1, ell + 1), mono)


def cached_sign_table(i: int, j: int, m0: int, mono: Monomial,
                      params: ParameterSet) -> Tuple[Tuple[Monomial, int, int, int], ...]:
    """The `sign_table` of (i, j, m0) on one monomial, kept in
    ``params.signs`` on (i, j, m0, mono)."""
    key = (i, j, m0, mono)
    table = params.signs.get(key)
    if table is None:
        table = params.signs[key] = sign_table(i, j, m0, mono, params.N, params.ell)
    return table


def keyed_signs(table: Sequence[tuple], rep: Sequence[int]) -> Dict[tuple, int]:
    """A sign table's nonzero sums of signs on (monomial, rep[p - 1], k), the
    keys of (a_p q^{-k})^{m1}: distinct characters of m1 when `validate_spectrum` passes."""
    sums: Dict[tuple, int] = {}
    for mono2, s, p, k in table:
        key = (mono2, rep[p - 1], k)
        sums[key] = sums.get(key, 0) + s
    return {key: s for key, s in sums.items() if s}


def rho_mat_on_monomial(i: int, j: int, m0: int, m1: int,
                        params: ParameterSet, mono: Monomial) -> Dict[Monomial, Fraction]:
    """One matrix-unit torus generator E_{i,j} t0^m0 t1^m1 on one monomial.

    The action is the sum over modes k and flavors p of
    (a_p q^{-k})^{m1} :psi_i^p(m0 - k) psibar_j^p(k):, plus the diagonal
    scalar sum_p a_p^{m1} q^{m1} / (1 - q^{m1}) when m0 = 0, i = j,
    m1 != 0.  The `cached_sign_table` serves every m1, the scalars are kept
    in ``params.powers``, and terms are accumulated in the table's (k, p)
    order; at m1 = 0 the coefficients are the constants ONE and NEG_ONE.
    """
    N = params.N
    if i > N or j > N:
        raise InvalidParams(f"matrix index out of range for N={N}")
    table = cached_sign_table(i, j, m0, mono, params)
    out: Dict[Monomial, Fraction] = {}
    if not m1:
        for mono2, sign, _, _ in table:
            accumulate(out, mono2, ONE if sign == 1 else NEG_ONE)
        return out
    q, powers = params.q, params.powers
    for mono2, sign, p, k in table:
        c = powers.get((p, k, m1))
        if c is None:
            c = powers[p, k, m1] = qpow(params.a[p - 1] * qpow(q, -k), m1)
        accumulate(out, mono2, c if sign == 1 else -c)
    if m0 == 0 and i == j:
        c = powers.get(m1)
        if c is None:
            qm = qpow(q, m1)
            c = powers[m1] = sum(qpow(x, m1) for x in params.a) * qm / (1 - qm)
        accumulate(out, mono, c)
    return out


def rho_action(x: GlqElement, params: ParameterSet, vec: FockVector) -> FockVector:
    """Action of the extended torus algebra: k0 -> ell, k1 -> 0, and
    E_{i,j} t0^m0 t1^m1 acting by the fermionic bilinear sums; a term
    q^e c of x acts with the coefficient c times the value of q^e."""
    ell = params.ell
    acc: Dict[Monomial, Fraction] = {}
    for (key, e), coeff in x._terms.items():
        if e:
            coeff *= qpow(params.q, e)
        if key == K0:
            for mono, c in vec._terms.items():
                accumulate(acc, mono, c * coeff * ell)
            continue
        if key == K1:
            continue
        i, j, m0, m1 = key
        for mono, c in vec._terms.items():
            w = c if coeff == 1 else -c if coeff == -1 else c * coeff
            for mono2, c2 in rho_mat_on_monomial(i, j, m0, m1, params, mono).items():
                accumulate(acc, mono2,
                           w if c2 is ONE else -w if c2 is NEG_ONE else w * c2)
    return FockVector._of(acc)


def gl_ell_action(r: int, s: int, mono: Monomial
                  ) -> Tuple[Tuple[Monomial, int, int, int], ...]:
    """The commuting finite general-linear unit E_{r,s} on one monomial:
    the sum over flat indices b of :psi^r[-b-1] psibar^s[b]:, the step-1
    line from flavor s to r (a0 = -1, b0 = 0, t = b), as its terms
    (monomial, sign, s, b) in ascending b.  Its two factors never both
    create, and are partners exactly when r = s."""
    return line_terms(-1, 0, 1, r - s, (s,), mono)


def glbar_action(A: int, B: int, mono: Monomial, flavors: Sequence[int]
                 ) -> Tuple[Tuple[Monomial, int, int, int], ...]:
    """The centrally extended doubly-infinite matrix unit
    E_{A,B} = :psi[-A] psibar[B-1]:, summed over the given flavors (a block,
    or 1..ell), on one monomial, as (monomial, sign, p, 0) in flavor order:
    the t = 0 terms of the flavor-diagonal step-1 line a0 = -A, b0 = B - 1."""
    return tuple(t for t in line_terms(-A, B - 1, 1, 0, flavors, mono) if not t[3])


def hw_monomial(mu: Sequence[int]) -> Monomial:
    """The product A(mu)|0> in flat coordinates, one creation monomial;
    already canonically sorted."""
    gens: List[Gen] = []
    for p, m in enumerate(mu, start=1):
        if m >= 1:
            gens.extend((p, PSI, t) for t in range(-m, 0))
        elif m <= -1:
            gens.extend((p, PSIBAR, t) for t in range(m, 0))
    return tuple(gens)


def hw_degree(mu: Sequence[int], params: ParameterSet) -> int:
    return monomial_degree(hw_monomial(mu), params.N)


def graded_dim(n: int, N: int, ell: int) -> int:
    """Dimension of the degree-n slice: coefficient of x^n in
    2^(N*ell) * prod_{m>=1} (1 + x^m)^(2*N*ell)."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    coeffs = [0] * (n + 1)
    coeffs[0] = 2 ** (N * ell)
    for m in range(1, n + 1):
        for _ in range(2 * N * ell):
            for d in range(n, m - 1, -1):
                coeffs[d] += coeffs[d - m]
    return coeffs[n]


def creators_of_degree(d: int, N: int, ell: int) -> List[Gen]:
    out: List[Gen] = []
    for p in range(1, ell + 1):
        out.extend(psi(i, p, -d, N) for i in range(1, N + 1))
        if d:
            out.extend(psibar(i, p, -d, N) for i in range(1, N + 1))
    return sorted(out)


def basis_monomials(n: int, N: int, ell: int) -> List[Monomial]:
    """All canonical monomials of degree exactly n, sorted."""
    pools = [creators_of_degree(d, N, ell) for d in range(n + 1)]
    out: List[Monomial] = []

    def pick(d: int, chosen: List[Gen], remaining: int):
        if d > n:
            if remaining == 0:
                out.append(tuple(sorted(chosen)))
            return
        for r in range(remaining // d + 1 if d else len(pools[0]) + 1):
            for combo in itertools.combinations(pools[d], r):
                pick(d + 1, chosen + list(combo), remaining - r * d)

    pick(0, [], n)
    return sorted(out)
