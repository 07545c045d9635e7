"""Rational general-linear representation combinatorics.

Dominant weights over a Levi (set-partition) torus, Littlewood-Richardson
counting, Weyl dimensions, the three branching-constant families (Levi
restriction D, diagonal tensor C, and the sublattice constants E, which
coincide with C over the power partition), plus the highest-weight
functional data and its equivalence test.

There is one LR tableau search, `_lr_contents`: it fills a skew shape nu/lam
once and counts the fillings by content.  A single coefficient reads one
content off it; a Levi restriction block runs it once per inner shape lam
and reads every mu at once.  The Schur-character oracles for these
constants live with the tests (`tests/glrep_oracles.py`).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import IncompatiblePartitions, InvalidParams
from .scalars import Rational, SetPartition, as_scalar, qpow

IntTuple = Tuple[int, ...]


def is_partition(lam: Sequence[int]) -> bool:
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1)) and \
        (not lam or lam[-1] >= 0)


def trim(lam: Sequence[int]) -> IntTuple:
    out = list(lam)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# -- Littlewood-Richardson by lattice-word tableau filling -------------------

def _lr_contents(lam: IntTuple, nu: IntTuple,
                 cap: Sequence[int]) -> Dict[IntTuple, int]:
    """Littlewood-Richardson fillings of nu/lam, counted by content.

    lam and nu are trimmed partitions with lam inside nu.  Cells are
    visited in reverse reading order (rows top to bottom, right to left); a
    filling must be weakly increasing along rows, strictly increasing down
    columns, and every prefix of its reading word must contain at least as
    many t's as (t+1)'s.  Entry v may occur at most cap[v-1] times, and an
    entry of row i (counted from 1) is at most i, which the lattice
    condition forces on skew shapes too.  Returns {content: count} with
    each content a trimmed partition.
    """
    lamp = lam + (0,) * (len(nu) - len(lam))
    # per cell: its row bound and the positions of its right and upper
    # neighbours inside the skew shape (-1 when outside), both filled first
    bounds: List[Tuple[int, int, int]] = []
    above = 0    # position of the first cell of the previous row
    for r in range(len(nu)):
        first = len(bounds)
        for c in range(nu[r] - 1, lamp[r] - 1, -1):
            up = above + nu[r - 1] - 1 - c if r and c >= lamp[r - 1] else -1
            right = len(bounds) - 1 if c + 1 < nu[r] else -1
            bounds.append((min(len(cap), r + 1), right, up))
        above = first
    vals = [0] * len(bounds)
    counts = [0] * (len(cap) + 1)
    limit = [0] + list(cap)
    out: Dict[IntTuple, int] = {}

    def fill(pos: int) -> None:
        if pos == len(bounds):
            content = trim(counts[1:])
            out[content] = out.get(content, 0) + 1
            return
        hi, right, up = bounds[pos]
        if right >= 0 and vals[right] < hi:
            hi = vals[right]
        lo = vals[up] + 1 if up >= 0 else 1
        for v in range(lo, hi + 1):
            if counts[v] >= limit[v] or (v > 1 and counts[v] >= counts[v - 1]):
                continue
            vals[pos] = v
            counts[v] += 1
            fill(pos + 1)
            counts[v] -= 1

    fill(0)
    return out


def lr_coeff(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """Number of Littlewood-Richardson fillings of nu/lam with content mu."""
    lam, mu, nu = trim(lam), trim(mu), trim(nu)
    for w in (lam, mu, nu):
        if not is_partition(w):
            raise InvalidParams(f"not a partition: {w}")
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if len(nu) < len(lam) or any(nu[r] < lam[r] for r in range(len(lam))):
        return 0
    return _lr_contents(lam, nu, mu).get(mu, 0)


def weyl_dim(mu: Sequence[int], n: int) -> int:
    """Dimension of the irreducible with highest weight mu in rank n."""
    if len(mu) > n:
        raise InvalidParams("weight longer than rank")
    w = list(mu) + [0] * (n - len(mu))
    if any(w[i] < w[i + 1] for i in range(n - 1)):
        raise InvalidParams("weight not weakly decreasing")
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= w[i] - w[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


# -- dominant weights over a Levi torus ---------------------------------------

@dataclass(frozen=True)
class DominantWeight:
    """An integer tuple weakly decreasing within each block."""

    mu: IntTuple
    partition: SetPartition

    def __post_init__(self):
        if len(self.mu) != self.partition.ell:
            raise InvalidParams("weight length differs from partition size")
        for b in self.partition.blocks:
            vals = [self.mu[i - 1] for i in b]
            if any(vals[t] < vals[t + 1] for t in range(len(vals) - 1)):
                raise InvalidParams(f"weight {self.mu} not dominant on block {b}")

    @staticmethod
    def of(mu: Sequence[int], partition: SetPartition) -> "DominantWeight":
        return DominantWeight(tuple(int(x) for x in mu), partition)

    def restrict(self, block: Sequence[int]) -> IntTuple:
        return tuple(self.mu[i - 1] for i in block)

    def dim(self) -> int:
        return levi_dim(self.mu, self.partition)


def is_dominant(mu: Sequence[int], partition: SetPartition) -> bool:
    for b in partition.blocks:
        vals = [mu[i - 1] for i in b]
        if any(vals[t] < vals[t + 1] for t in range(len(vals) - 1)):
            return False
    return True


def levi_dim(mu: Sequence[int], partition: SetPartition) -> int:
    """Product of per-block Weyl dimensions (after a det shift per block)."""
    dim = 1
    for b in partition.blocks:
        vals = [mu[i - 1] for i in b]
        shift = min(vals + [0])
        dim *= weyl_dim([v - shift for v in vals], len(b))
    return dim


def _det_shift_pair(weights: Sequence[IntTuple]) -> Tuple[List[IntTuple], List[int]]:
    """Shift each weight to a partition; remember the shifts."""
    shifted, shifts = [], []
    for w in weights:
        c = -min(list(w) + [0])
        shifted.append(tuple(x + c for x in w))
        shifts.append(c)
    return shifted, shifts


def _tensor_block(w1: IntTuple, w2: IntTuple, n: int) -> Dict[IntTuple, int]:
    """Tensor multiplicities for one GL_n block, arbitrary integer weights."""
    (p1, p2), (c1, c2) = _det_shift_pair([w1, w2])
    out: Dict[IntTuple, int] = {}
    total = sum(p1) + sum(p2)
    maxpart = (p1[0] if p1 else 0) + (p2[0] if p2 else 0)
    for nu in partitions_with_bound(total, n, maxpart):
        c = lr_coeff(trim(p1), trim(p2), nu)
        if c:
            full = tuple(list(nu) + [0] * (n - len(nu)))
            key = tuple(x - c1 - c2 for x in full)
            out[key] = c
    return out


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


def tensor_mult_C(mus: Sequence[DominantWeight]) -> Dict[IntTuple, int]:
    """Multiplicities of the diagonal tensor product of several irreducibles
    over a common Levi partition."""
    if not mus:
        raise InvalidParams("need at least one weight")
    part = mus[0].partition
    if any(m.partition != part for m in mus):
        raise IncompatiblePartitions("weights live over different partitions")
    out: Dict[IntTuple, int] = {mus[0].mu: 1}
    for nxt in mus[1:]:
        acc: Dict[IntTuple, int] = {}
        for cur, mult in out.items():
            per_block = []
            for b in part.blocks:
                w1 = tuple(cur[i - 1] for i in b)
                w2 = nxt.restrict(b)
                per_block.append(_tensor_block(w1, w2, len(b)))
            for combo in itertools.product(*(pb.items() for pb in per_block)):
                full = [0] * part.ell
                c = mult
                for (bw, bc), b in zip(combo, part.blocks):
                    c *= bc
                    for x, i in zip(bw, b):
                        full[i - 1] = x
                key = tuple(full)
                acc[key] = acc.get(key, 0) + c
        out = acc
    return out


def levi_branch_D(xi: DominantWeight, part_a: SetPartition,
                  part_b: SetPartition) -> Dict[Tuple[IntTuple, IntTuple], int]:
    """Restriction multiplicities from the merged Levi to the product Levi.

    part_a partitions {1..ell}, part_b partitions {1..ell'} (re-indexed to
    live after part_a); every block of the merged partition must split into
    whole blocks of the product partition.
    """
    ell_a = part_a.ell
    merged = xi.partition
    prod_blocks = list(part_a.blocks) + [tuple(i + ell_a for i in b)
                                         for b in part_b.blocks]
    for pb in prod_blocks:
        tops = {merged.block_of(i) for i in pb}
        if len(tops) != 1:
            raise IncompatiblePartitions(
                f"product block {pb} straddles merged blocks")
    out: Dict[Tuple[IntTuple, IntTuple], int] = {}
    per_block: List[Dict[Tuple[IntTuple, IntTuple], int]] = []
    for mb in merged.blocks:
        left = tuple(i for i in mb if i <= ell_a)
        right = tuple(i for i in mb if i > ell_a)
        w = xi.restrict(mb)
        per_block.append(_restrict_block(w, mb, left, right))
    for combo in itertools.product(*(pb.items() for pb in per_block)):
        full = [0] * merged.ell
        c = 1
        for (assign, bc) in combo:
            c *= bc
            for i, val in assign:
                full[i - 1] = val
        mu = tuple(full[:ell_a])
        nu = tuple(full[ell_a:])
        key = (mu, nu)
        out[key] = out.get(key, 0) + c
    return out


def _restrict_block(w: IntTuple, block: IntTuple, left: IntTuple,
                    right: IntTuple) -> Dict[Tuple[Tuple[int, int], ...], int]:
    """One merged block into its left/right halves: LR coefficients after a
    det shift.  Returns {((index, value), ...): multiplicity}."""
    n, n1, n2 = len(block), len(left), len(right)
    shift = -min(list(w) + [0])
    xi = trim(tuple(x + shift for x in w))
    out: Dict[Tuple[Tuple[int, int], ...], int] = {}
    if n1 == 0 or n2 == 0:
        idxs = left if n1 else right
        assign = tuple(zip(idxs, w))
        return {assign: 1}
    # c^xi_{lam,mu} != 0 forces lam, mu inside xi, so one search per lam
    # inside xi yields every mu, with entries capped by xi's first n2 rows
    for s1 in range(sum(xi) + 1):
        for lam in partitions_with_bound(s1, n1, xi[0] if xi else 0):
            if len(lam) > len(xi) or any(a > b for a, b in zip(lam, xi)):
                continue
            contents = _lr_contents(lam, xi, xi[:n2])
            lam_full = list(lam) + [0] * (n1 - len(lam))
            # mu in descending order, so the table order does not depend
            # on the order in which the search meets the contents
            for mu in sorted(contents, reverse=True):
                mu_full = list(mu) + [0] * (n2 - len(mu))
                assign = tuple(list(zip(left, (x - shift for x in lam_full)))
                               + list(zip(right, (x - shift for x in mu_full))))
                out[assign] = contents[mu]
    return out


# -- highest-weight functional data -------------------------------------------

def mu_split(mu: int, N: int) -> Tuple[int, int]:
    """Write mu = mudot*N + mudd with 1 <= mudd <= N."""
    mudd = (mu - 1) % N + 1
    return (mu - mudd) // N, mudd


@dataclass(frozen=True)
class EtaFunctional:
    """Highest-weight functional data (mu, a, N, q) on the toral subalgebra."""

    mu: IntTuple
    a: Tuple[Fraction, ...]
    N: int
    q: Fraction

    @staticmethod
    def of(mu: Sequence[int], a: Sequence[Rational], N: int, q: Rational) -> "EtaFunctional":
        return EtaFunctional(tuple(int(x) for x in mu),
                             tuple(as_scalar(x) for x in a), N, as_scalar(q))

    def __post_init__(self):
        if len(self.mu) != len(self.a):
            raise InvalidParams("mu and a must have equal length")


def eta_eval(eta: EtaFunctional, i: int, n: int) -> Fraction:
    """Value on the toral generator h_{i,n}; the k1 value is zero."""
    if not 1 <= i <= eta.N:
        raise InvalidParams("need 1 <= i <= N")
    total = Fraction(0)
    for m, ak in zip(eta.mu, eta.a):
        mudot, mudd = mu_split(m, eta.N)
        if mudd == i:
            total += qpow(ak * qpow(eta.q, -mudot), n)
    return total

