"""Schur-character oracles for the Littlewood-Richardson and branching
constants of `torusrep.glrep`, and the construction and equivalence of
highest-weight functionals.

Each oracle multiplies or restricts Schur polynomials, built from
semistandard tableaux, and peels off dominant leading terms. None of them
uses the lattice-word search, so the tests compare two independent routes.
`partitions_with_bound` enumerates partitions by size, independently of the
shape walk that `torusrep.glrep` uses.

Schur polynomials are memoised on (trimmed shape, nvars) and Schur
products on (lam, mu, nvars), and handed out as read-only views, so one
Littlewood-Richardson product serves every candidate nu.
"""
import functools
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from torusrep.errors import InvalidParams
from torusrep.glrep import trim
from torusrep.scalars import ParameterSet, Rational, qpow, split_index

IntTuple = Tuple[int, ...]
Poly = Dict[IntTuple, int]


def partitions_with_bound(total: int, max_len: int, max_part: int) -> Iterable[IntTuple]:
    """All partitions of `total` with at most max_len parts, parts <= max_part."""
    def gen(rem: int, slots: int, bound: int):
        if rem == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(rem, bound), 0, -1):
            for rest in gen(rem - first, slots - 1, first):
                yield (first,) + rest
    yield from gen(total, max_len, max_part)


def ssyt_fillings(shape: IntTuple, nvars: int) -> Iterable[IntTuple]:
    """Content vectors of semistandard fillings with entries <= nvars."""
    rows = len(shape)
    if rows == 0:
        yield (0,) * nvars
        return
    grid = [[0] * shape[r] for r in range(rows)]
    cells = [(r, c) for r in range(rows) for c in range(shape[r])]

    def fill(pos: int):
        if pos == len(cells):
            content = [0] * nvars
            for row in grid:
                for v in row:
                    content[v - 1] += 1
            yield tuple(content)
            return
        r, c = cells[pos]
        lo = 1
        if c > 0:
            lo = max(lo, grid[r][c - 1])
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, nvars + 1):
            grid[r][c] = v
            yield from fill(pos + 1)
            grid[r][c] = 0

    yield from fill(0)


def schur_poly(lam: Sequence[int], nvars: int) -> Mapping[IntTuple, int]:
    """The Schur polynomial as a read-only exponent->coefficient map."""
    return _schur_poly(trim(lam), nvars)


@functools.lru_cache(maxsize=None)
def _schur_poly(lam: IntTuple, nvars: int) -> Mapping[IntTuple, int]:
    out: Poly = {}
    if len(lam) <= nvars:
        for content in ssyt_fillings(lam, nvars):
            out[content] = out.get(content, 0) + 1
    return MappingProxyType(out)


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def schur_expand(p: Poly, nvars: int) -> Dict[IntTuple, int]:
    """Decompose a symmetric polynomial into Schur coefficients.

    Repeatedly strips the lexicographically largest dominant exponent,
    against which the Schur basis is unitriangular.
    """
    work = dict(p)
    out: Dict[IntTuple, int] = {}
    while work:
        dominant = [e for e in work if all(e[i] >= e[i + 1] for i in range(len(e) - 1))]
        assert dominant, f"no dominant leading term in {work}"
        lead = max(dominant)
        c = work[lead]
        out[trim(lead)] = c
        for e, ce in schur_poly(lead, nvars).items():
            s = work.get(e, 0) - c * ce
            if s:
                work[e] = s
            elif e in work:
                del work[e]
    return out


def lr_coeff_oracle(lam, mu, nu) -> int:
    """Schur-multiplication oracle for a single LR coefficient."""
    lam, mu, nu = trim(lam), trim(mu), trim(nu)
    nvars = max(len(lam) + len(mu), len(nu), 1)
    return _schur_product(lam, mu, nvars).get(nu, 0)


@functools.lru_cache(maxsize=None)
def _schur_product(lam: IntTuple, mu: IntTuple, nvars: int) -> Mapping[IntTuple, int]:
    """The Schur expansion of s_lam * s_mu in nvars variables, read-only."""
    prod = poly_mul(schur_poly(lam, nvars), schur_poly(mu, nvars))
    return MappingProxyType(schur_expand(prod, nvars))


def tensor_mult_oracle(w1: IntTuple, w2: IntTuple, n: int) -> Dict[IntTuple, int]:
    """GL_n tensor multiplicities by multiplying Schur characters."""
    c1, c2 = -min(list(w1) + [0]), -min(list(w2) + [0])
    p1, p2 = tuple(x + c1 for x in w1), tuple(x + c2 for x in w2)
    prod = poly_mul(schur_poly(trim(p1), n), schur_poly(trim(p2), n))
    out = {}
    for nu, c in schur_expand(prod, n).items():
        full = tuple(list(nu) + [0] * (n - len(nu)))
        out[tuple(x - c1 - c2 for x in full)] = c
    return out


def tensor_mult_brauer(w1: IntTuple, w2: IntTuple, n: int) -> Dict[IntTuple, int]:
    """GL_n tensor multiplicities by Brauer's formula, in decreasing
    lexicographic order: each weight beta of the w2 irreducible, with its
    multiplicity read off the Schur polynomial, moves w1 + beta + rho into
    the dominant chamber with the sign of the sorting permutation, and a
    weight on a wall (a repeated entry) contributes nothing.  It needs only
    the weights of the second factor, so it reaches large first factors."""
    c2 = -min(list(w2) + [0])
    out: Dict[IntTuple, int] = {}
    for e, m in schur_poly(trim(tuple(x + c2 for x in w2)), n).items():
        v = [w1[i] + e[i] - c2 + n - 1 - i for i in range(n)]
        if len(set(v)) < n:
            continue
        inversions = sum(v[i] < v[j] for i in range(n) for j in range(i + 1, n))
        key = tuple(x - (n - 1 - i) for i, x in enumerate(sorted(v, reverse=True)))
        out[key] = out.get(key, 0) + (-1) ** inversions * m
    return {k: out[k] for k in sorted(out, reverse=True) if out[k]}


def lr_support(lam: Sequence[int], mu: Sequence[int], n: int) -> Mapping[IntTuple, int]:
    """{nu: c^nu_{lam,mu}} over the nu with at most n rows: the Schur
    product of `lr_coeff_oracle` taken in n variables, where s_nu vanishes
    exactly for the nu with more than n rows."""
    return _schur_product(trim(lam), trim(mu), n)


def weyl_bound(lam: Sequence[int], mu: Sequence[int], n: int) -> IntTuple:
    """Weyl's row bound nu_k <= min over i + j - 1 = k of lam_i + mu_j
    (rows from 1, missing rows 0) for k = 1..n, which every nu with
    c^nu_{lam,mu} != 0 satisfies."""
    def row(w: Sequence[int], i: int) -> int:
        return w[i - 1] if i <= len(w) else 0
    return tuple(min(row(lam, i) + row(mu, k + 1 - i) for i in range(1, k + 1))
                 for k in range(1, n + 1))


def complement(lam: Sequence[int], n: int, width: int) -> IntTuple:
    """The complement of lam in the n x width box, rotated to a partition:
    (width - lam_n, ..., width - lam_1), trimmed."""
    full = list(lam) + [0] * (n - len(lam))
    return trim(tuple(width - x for x in reversed(full)))


def levi_branch_oracle(xi: IntTuple, n1: int, n2: int) -> Dict[Tuple[IntTuple, IntTuple], int]:
    """Restriction of one GL_{n1+n2} irreducible to GL_{n1} x GL_{n2} by
    evaluating the Schur character on split variables and peeling leading
    dominant pairs."""
    n = n1 + n2
    shift = -min(list(xi) + [0])
    lam = trim(tuple(x + shift for x in xi))
    char = schur_poly(lam, n)
    out: Dict[Tuple[IntTuple, IntTuple], int] = {}
    work: Dict[IntTuple, int] = dict(char)
    while work:
        dominant = [e for e in work
                    if all(e[i] >= e[i + 1] for i in range(n1 - 1))
                    and all(e[n1 + i] >= e[n1 + i + 1] for i in range(n2 - 1))]
        lead = max(dominant)
        c = work[lead]
        a, b = lead[:n1], lead[n1:]
        out[(tuple(x - shift for x in a), tuple(x - shift for x in b))] = c
        piece = poly_mul(
            {tuple(list(e) + [0] * n2): v for e, v in schur_poly(trim(a), n1).items()},
            {tuple([0] * n1 + list(e)): v for e, v in schur_poly(trim(b), n2).items()})
        for e, ce in piece.items():
            s = work.get(e, 0) - c * ce
            if s:
                work[e] = s
            elif e in work:
                del work[e]
    return out


def eta_of(mu: Sequence[int], a: Sequence[Rational], N: int,
           q: Rational) -> Tuple[IntTuple, ParameterSet]:
    """Highest-weight data (mu, params) from ints, strings or Fractions."""
    return tuple(int(x) for x in mu), ParameterSet.of(q, a, N)


def eta_equiv(e1: Tuple[IntTuple, ParameterSet],
              e2: Tuple[IntTuple, ParameterSet]) -> bool:
    """Whether two (mu, params) have the same multiset of invariant pairs
    (mudd_k, a_k q^{-mudot_k}), and so the same values on every h_{i,n}."""
    (mu1, p1), (mu2, p2) = e1, e2
    if p1.N != p2.N or p1.q != p2.q:
        raise InvalidParams("functionals live over different (N, q)")

    def pairs(mu: Sequence[int], params: ParameterSet):
        out = []
        for m, ak in zip(mu, params.a):
            mudot, mudd = split_index(m, params.N)
            out.append((mudd, ak * qpow(params.q, -mudot)))
        return sorted(out)

    return pairs(mu1, p1) == pairs(mu2, p2)
