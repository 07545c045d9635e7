"""Charged free fermions, their graded Fock space, and the three actions.

Generators are stored in flat coordinates: a generator is the tuple
(p, kind, idx) with flavor p in 1..ell, kind 0 for psi / 1 for psibar, and
idx the flat index gluing the matrix label i in 1..N to the mode n by

    psi_i^p(n)    <-> idx = n*N - i
    psibar_i^p(n) <-> idx = n*N + i - 1.

In flat coordinates both families create exactly when idx < 0, a psi/psibar
pair contracts exactly when the flavors agree and the indices sum to -1,
and the product A(mu) of the highest-weight construction is already sorted.
All signs are transposition counts against the global (p, kind, idx) order.

`_gen_on_monomial` is the one Clifford kernel: it inserts or contracts a
generator with its sign.  A bilinear is two of its steps, and each of the
three actions accumulates bilinear images monomial by monomial.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidParams
from .liealg import GlqElement, K0, K1
from .scalars import ParameterSet, Rational, SparseVector, accumulate, qpow

PSI = 0
PSIBAR = 1
Gen = Tuple[int, int, int]          # (p, kind, idx)
Monomial = Tuple[Gen, ...]          # strictly increasing creators
VACUUM: Monomial = ()


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


def gen_degree(g: Gen, N: int) -> int:
    return -gen_mode(g, N)


def monomial_degree(m: Monomial, N: int) -> int:
    return sum(gen_degree(g, N) for g in m)


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
    def vacuum(coeff: Rational = 1) -> "FockVector":
        return FockVector({VACUUM: coeff})

    @staticmethod
    def monomial(m: Monomial, coeff: Rational = 1) -> "FockVector":
        return FockVector({m: coeff})

    def support(self) -> List[Monomial]:
        return sorted(self._terms)

    def __repr__(self):
        return f"FockVector<{len(self._terms)} terms>"


def normal_order_pair(m: int, n: int) -> Tuple[bool, int]:
    """Ordering rule for :psi(m) psibar(n):, returned as (psi_first, sign)."""
    return (True, 1) if m <= n else (False, -1)


def _gen_on_monomial(g: Gen, mono: Monomial) -> Optional[Tuple[int, Monomial]]:
    """Single-generator left action on one monomial: (sign, monomial) or None."""
    if g[2] < 0:
        pos = bisect_left(mono, g)
        if pos < len(mono) and mono[pos] == g:
            return None
        return (-1 if pos & 1 else 1, mono[:pos] + (g,) + mono[pos:])
    partner = (g[0], 1 - g[1], -g[2] - 1)
    pos = bisect_left(mono, partner)
    if pos >= len(mono) or mono[pos] != partner:
        return None
    return (-1 if pos & 1 else 1, mono[:pos] + mono[pos + 1:])


def bilinear_on_monomial(i: int, p: int, m: int, j: int, pb: int, n: int,
                         mono: Monomial, N: int,
                         rule=normal_order_pair) -> Optional[Tuple[int, Monomial]]:
    """:psi_i^p(m) psibar_j^pb(n): on one monomial; at most one term."""
    psi_first, sign = rule(m, n)
    a, b = psi(i, p, m, N), psibar(j, pb, n, N)
    first, second = (b, a) if psi_first else (a, b)
    step = _gen_on_monomial(first, mono)
    if step is None:
        return None
    s1, mono1 = step
    step = _gen_on_monomial(second, mono1)
    if step is None:
        return None
    s2, mono2 = step
    return (sign * s1 * s2, mono2)


def rho_mat_on_monomial(i: int, j: int, m0: int, m1: int,
                        params: ParameterSet, mono: Monomial,
                        rule=normal_order_pair) -> Dict[Monomial, Fraction]:
    """One matrix-unit torus generator E_{i,j} t0^m0 t1^m1 on one monomial.

    The action is the sum over modes k and flavors p of
    a_p^{m1} q^{-m1 k} :psi_i^p(m0 - k) psibar_j^p(k):, plus a diagonal
    scalar correction when m0 = 0, i = j, m1 != 0.  Only candidate pairs
    (k, p) are visited.  Under either normal-ordering rule the annihilating
    factor acts first, so a term survives only if that factor contracts
    with a generator of the monomial, or if both factors create.  The
    candidates are therefore:

    - for a psi generator (p, 0, idx): k = (-idx - j)/N where integral,
      since psibar_j^p(k) contracts it;
    - for a psibar generator (p, 1, idx): k = m0 - (i - idx - 1)/N where
      integral, since psi_i^p(m0 - k) contracts it;
    - the both-create window m0 <= k <= -1, for every flavor.

    They are visited in ascending (k, p) order, and the coefficient is
    computed only for the terms that survive.  With m1 = 0 the values are
    plain int signs.
    """
    N, q, a = params.N, params.q, params.a
    if i > N or j > N:
        raise InvalidParams(f"matrix index out of range for N={N}")
    candidates = {(k, p) for k in range(m0, 0) for p in range(1, params.ell + 1)}
    for p, kind, idx in mono:
        if kind == PSI:
            k, r = divmod(-idx - j, N)
        else:
            k, r = divmod(idx + 1 - i, N)
            k += m0
        if not r:
            candidates.add((k, p))
    out: Dict[Monomial, Fraction] = {}
    if m1:
        ap = [qpow(x, m1) for x in a]
    for k, p in sorted(candidates):
        step = bilinear_on_monomial(i, p, m0 - k, j, p, k, mono, N, rule)
        if step is None:
            continue
        sign, mono2 = step
        accumulate(out, mono2,
                   sign if m1 == 0 else sign * ap[p - 1] * qpow(q, -m1 * k))
    if m0 == 0 and i == j and m1 != 0:
        qm = qpow(q, m1)
        accumulate(out, mono, sum(ap) * qm / (1 - qm))
    return out


def rho_action(x: GlqElement, params: ParameterSet, vec: FockVector) -> FockVector:
    """Action of the extended torus algebra: k0 -> ell, k1 -> 0, and
    E_{i,j} t0^m0 t1^m1 acting by the fermionic bilinear sums."""
    ell = params.ell
    acc: Dict[Monomial, Fraction] = {}
    for key, coeff in x.items():
        if key == K0:
            for mono, c in vec._terms.items():
                accumulate(acc, mono, c * coeff * ell)
            continue
        if key == K1:
            continue
        i, j, m0, m1 = key
        for mono, c in vec._terms.items():
            for mono2, c2 in rho_mat_on_monomial(i, j, m0, m1, params, mono).items():
                accumulate(acc, mono2, c * coeff * c2)
    return FockVector._of(acc)


def gl_ell_action(r: int, s: int, vec: FockVector, N: int) -> FockVector:
    """The commuting finite general-linear action E_{r,s}: the sum over
    labels i and modes n of :psi_i^r(-n) psibar_i^s(n):.

    psi_i^r(-n) and psibar_i^s(n) never both create, and the annihilating
    factor acts first, so a term survives only if it contracts with a
    generator of the monomial.  Each psi generator of flavor s therefore
    gives exactly one candidate (i, n), the one where psibar_i^s(n) is its
    partner, and each psibar generator of flavor r gives the one where
    psi_i^r(-n) is its partner.  Candidates are visited in ascending (i, n)
    order.
    """
    acc: Dict[Monomial, Fraction] = {}
    for mono, c in vec._terms.items():
        candidates = []
        for p, kind, idx in mono:
            if kind == PSI:
                if p == s:
                    n = (-idx - 1) // N
                    candidates.append((-idx - n * N, n))
            elif p == r:
                n = idx // N
                candidates.append((idx - n * N + 1, n))
        for i, n in sorted(candidates):
            step = bilinear_on_monomial(i, r, -n, i, s, n, mono, N)
            if step is None:
                continue
            sign, mono2 = step
            accumulate(acc, mono2, c if sign == 1 else -c)
    return FockVector._of(acc)


def glbar_action(mrow: int, ncol: int, vec: FockVector, N: int,
                 flavors: Sequence[int]) -> FockVector:
    """Action of the centrally extended doubly-infinite matrix unit
    E_{mrow,ncol}, summed over the given flavors (a block, or 1..ell)."""
    m, i = (mrow - 1) // N, (mrow - 1) % N + 1
    n, j = (ncol - 1) // N, (ncol - 1) % N + 1
    acc: Dict[Monomial, Fraction] = {}
    for mono, c in vec._terms.items():
        for p in flavors:
            step = bilinear_on_monomial(i, p, -m, j, p, n, mono, N)
            if step is None:
                continue
            sign, mono2 = step
            accumulate(acc, mono2, c if sign == 1 else -c)
    return FockVector._of(acc)


def hw_vector(mu: Sequence[int], params: ParameterSet) -> FockVector:
    """The product A(mu)|0> in flat coordinates; already canonically sorted."""
    N = params.N
    if len(mu) != params.ell:
        raise InvalidParams("mu must have length ell")
    gens: List[Gen] = []
    for p, m in enumerate(mu, start=1):
        if m >= 1:
            gens.extend((p, PSI, t) for t in range(-m, 0))
        elif m <= -1:
            gens.extend((p, PSIBAR, t) for t in range(m, 0))
    return FockVector.monomial(tuple(gens))


def hw_degree(mu: Sequence[int], params: ParameterSet) -> int:
    mono = next(iter(hw_vector(mu, params)._terms))
    return monomial_degree(mono, params.N)


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
        if d == 0:
            out.extend(psi(i, p, 0, N) for i in range(1, N + 1))
        else:
            out.extend(psi(i, p, -d, N) for i in range(1, N + 1))
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
        if d == 0:
            for r in range(len(pools[0]) + 1):
                for combo in itertools.combinations(pools[0], r):
                    pick(1, chosen + list(combo), remaining)
            return
        for r in range(0, remaining // d + 1):
            for combo in itertools.combinations(pools[d], r):
                pick(d + 1, chosen + list(combo), remaining - r * d)

    pick(0, [], n)
    return sorted(out)
