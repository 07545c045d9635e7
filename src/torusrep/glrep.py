"""Rational general-linear representation combinatorics.

Dominant weights over a Levi (set-partition) torus, Littlewood-Richardson
counting, Weyl dimensions, the three branching-constant families (Levi
restriction D, diagonal tensor C, and the sublattice constants E, which
coincide with C over the power partition).

There is one LR tableau search, `_lr_contents`: it fills a skew shape nu/lam
once and counts the fillings by content.  A single coefficient reads one
content off it; a Levi restriction block runs it only on the inner shapes
holding at most half of xi, and reads each content mu as (lam, mu) and as
(mu, lam).  There is one partition walk, `_shapes_between`, over the shapes
between an inner and an outer one: a Levi block walks those halves inside
xi, a tensor block only the nu that contain both factors and lie under
Weyl's bound.  Both block tables are keyed by (index, value) assignments,
and `_block_products` assembles them over the blocks.  The Schur-character
oracles for these constants, and an independent partition enumerator, live
with the tests (`tests/glrep_oracles.py`).
"""
from __future__ import annotations

import itertools
from operator import add, ge
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import IncompatiblePartitions, InvalidParams
from .scalars import SetPartition

IntTuple = Tuple[int, ...]
Assignment = Tuple[Tuple[int, int], ...]    # ((index, value), ...)


def is_partition(lam: Sequence[int]) -> bool:
    return all(map(ge, lam, lam[1:])) and (not lam or lam[-1] >= 0)


def trim(lam: Sequence[int]) -> IntTuple:
    out = list(lam)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _det_shift(w: Sequence[int]) -> Tuple[int, IntTuple]:
    """(c, trim(w + c)) for the least c >= 0 that makes w a partition."""
    c = -min(list(w) + [0])
    return c, trim(tuple(x + c for x in w))


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
    # neighbours inside the skew shape, both filled first; a missing
    # neighbour is a sentinel past the cells (-2: no bound, -1: value 0)
    bounds: List[Tuple[int, int, int]] = []
    above = 0    # position of the first cell of the previous row
    for r in range(len(nu)):
        first = len(bounds)
        for c in range(nu[r] - 1, lamp[r] - 1, -1):
            up = above + nu[r - 1] - 1 - c if r and c >= lamp[r - 1] else -1
            right = len(bounds) - 1 if c + 1 < nu[r] else -2
            bounds.append((min(len(cap), r + 1), right, up))
        above = first
    end = len(bounds)
    vals = [0] * end + [len(cap), 0]
    # counts[0] is a sentinel above every count, so 1s pass the lattice test
    counts = [end + 1] + [0] * len(cap)
    limit = [0] + list(cap)
    raw: Dict[IntTuple, int] = {}    # keyed by the raw counts

    def fill(pos: int) -> None:
        if pos == end:
            key = tuple(counts)
            raw[key] = raw.get(key, 0) + 1
            return
        hi, right, up = bounds[pos]
        if vals[right] < hi:
            hi = vals[right]
        for v in range(vals[up] + 1, hi + 1):
            if counts[v] >= limit[v] or counts[v] >= counts[v - 1]:
                continue
            vals[pos] = v
            counts[v] += 1
            fill(pos + 1)
            counts[v] -= 1

    fill(0)
    return {trim(key[1:]): n for key, n in raw.items()}


def lr_coeff(lam: Sequence[int], mu: Sequence[int], nu: Sequence[int]) -> int:
    """Number of Littlewood-Richardson fillings of nu/lam with content mu."""
    lam, mu, nu = trim(lam), trim(mu), trim(nu)
    for w in (lam, mu, nu):
        if not is_partition(w):
            raise InvalidParams(f"not a partition: {w}")
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if len(nu) < len(lam) or not all(map(ge, nu, lam)):
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

class DominantWeight:
    """An integer tuple weakly decreasing within each block."""

    def __init__(self, mu: IntTuple, partition: SetPartition):
        if len(mu) != partition.ell:
            raise InvalidParams("weight length differs from partition size")
        if not is_dominant(mu, partition):
            raise InvalidParams(f"weight {mu} not dominant on {partition.describe()}")
        self.mu, self.partition = mu, partition

    @staticmethod
    def of(mu: Sequence[int], partition: SetPartition) -> "DominantWeight":
        return DominantWeight(tuple(int(x) for x in mu), partition)

    def restrict(self, block: Sequence[int]) -> IntTuple:
        return tuple(self.mu[i - 1] for i in block)


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
        _, lam = _det_shift([mu[i - 1] for i in b])
        dim *= weyl_dim(lam, len(b))
    return dim


def _shapes_between(inner: Sequence[int], outer: Sequence[int],
                    size: Optional[int] = None) -> Iterator[IntTuple]:
    """The trimmed partitions nu with inner[r] <= nu[r] <= outer[r] for every
    row r (so at most len(outer) rows), of total size `size` when it is
    given, in decreasing lexicographic order."""
    # low[len(outer)] != 0 exactly when inner has more rows than outer
    low = trim(inner) + (0,) * (len(outer) + 1)

    def walk(r: int, hi: int, rem: int, shape: IntTuple) -> Iterator[IntTuple]:
        # rem: the cells still to place; without a size it never binds
        if r < len(outer):
            lo = max(low[r], 1)
            if size is not None:    # rows r, r+1, ... hold at most v each
                lo = max(lo, -(-rem // (len(outer) - r)))
            for v in range(min(hi, outer[r], rem), lo - 1, -1):
                yield from walk(r + 1, v, rem - v, shape + (v,))
        if low[r] == 0 and (size is None or rem == 0):
            yield shape

    rem = sum(outer) if size is None else size
    yield from walk(0, rem, rem, ())


def _tensor_block(w1: IntTuple, w2: IntTuple,
                  block: IntTuple) -> Dict[Assignment, int]:
    """Tensor multiplicities for one GL_n block (n = len(block)) of arbitrary
    integer weights, after a det shift of each factor to a partition.
    Returns {((index, value), ...): multiplicity}."""
    n = len(block)
    c1, p1 = _det_shift(w1)
    c2, p2 = _det_shift(w2)
    # c^nu_{p1,p2} != 0 forces p1, p2 inside nu and nu_{i+j-1} <= p1_i + p2_j
    inner = tuple(max(a, b) for a, b in itertools.zip_longest(p1, p2, fillvalue=0))
    a, b = p1 + (0,) * n, p2 + (0,) * n
    outer = [min(map(add, a[:k + 1], b[k::-1])) for k in range(n)]
    out: Dict[Assignment, int] = {}
    for nu in _shapes_between(inner, outer, sum(p1) + sum(p2)):
        c = lr_coeff(p1, p2, nu)
        if c:
            full = nu + (0,) * (n - len(nu))
            out[tuple(zip(block, (x - c1 - c2 for x in full)))] = c
    return out


def _block_products(per_block: Sequence[Dict[Assignment, int]],
                    ell: int) -> Iterator[Tuple[IntTuple, int]]:
    """Every choice of one entry per block table: the full weight of length
    ell that the chosen assignments spell, and the product of their
    multiplicities."""
    for combo in itertools.product(*(table.items() for table in per_block)):
        full = [0] * ell
        c = 1
        for assign, bc in combo:
            c *= bc
            for i, val in assign:
                full[i - 1] = val
        yield tuple(full), c


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
            per_block = [_tensor_block(tuple(cur[i - 1] for i in b),
                                       nxt.restrict(b), b)
                         for b in part.blocks]
            for key, c in _block_products(per_block, part.ell):
                acc[key] = acc.get(key, 0) + mult * c
        out = acc
    return out


def levi_branch_D(xi: DominantWeight, part_a: SetPartition,
                  part_b: SetPartition) -> Dict[Tuple[IntTuple, IntTuple], int]:
    """Restriction multiplicities from the merged Levi to the product Levi.

    part_a partitions {1..ell}, part_b partitions {1..ell'} (re-indexed to
    live after part_a); every block of the merged partition must split into
    at most one block of part_a and one of part_b.
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
    sides = [(merged.block_of(pb[0]), pb[0] <= ell_a) for pb in prod_blocks]
    if len(set(sides)) != len(sides):
        raise IncompatiblePartitions(
            "a merged block holds two product blocks on one side")
    per_block = [_restrict_block(xi.restrict(mb), mb, ell_a)
                 for mb in merged.blocks]
    out: Dict[Tuple[IntTuple, IntTuple], int] = {}
    for w, c in _block_products(per_block, merged.ell):
        key = (w[:ell_a], w[ell_a:])
        out[key] = out.get(key, 0) + c
    return out


def _restrict_block(w: IntTuple, block: IntTuple,
                    ell_a: int) -> Dict[Assignment, int]:
    """One merged block with weights w into its halves left and right of
    index ell_a: LR coefficients after a det shift.  Returns
    {((index, value), ...): multiplicity}."""
    left = tuple(i for i in block if i <= ell_a)
    right = tuple(i for i in block if i > ell_a)
    n1, n2 = len(left), len(right)
    if n1 == 0 or n2 == 0:
        return {tuple(zip(block, w)): 1}
    shift, xi = _det_shift(w)
    # c^xi_{lam,mu} = c^xi_{mu,lam} != 0 forces lam, mu inside xi with
    # |lam| + |mu| = |xi|, so searching the s of at most |xi|/2 cells finds
    # every pair, as (s, content) or (content, s), in one search for both
    total, rows = sum(xi), max(n1, n2)
    pairs: Dict[IntTuple, Dict[IntTuple, int]] = {}
    for size in range(total - sum(xi[:rows]), total // 2 + 1):
        # the rows s may have as lam and as mu; -1: the other cannot fit
        as_lam = n1 if total - size <= sum(xi[:n2]) else -1
        as_mu = n2 if total - size <= sum(xi[:n1]) else -1
        for s in _shapes_between((), xi[:max(as_lam, as_mu)], size):
            lam_ok, mu_ok = len(s) <= as_lam, len(s) <= as_mu
            for t, c in _lr_contents(s, xi, xi[:max(n2 * lam_ok, n1 * mu_ok)]).items():
                if lam_ok and len(t) <= n2:
                    pairs.setdefault(s, {})[t] = c
                if mu_ok and len(t) <= n1:
                    pairs.setdefault(t, {})[s] = c
    out: Dict[Assignment, int] = {}
    # lam, then mu, descending (the order of _shapes_between), not the search's
    for lam in sorted(pairs, reverse=True):
        half = list(zip(left, (x - shift for x in lam + (0,) * (n1 - len(lam)))))
        mus = pairs[lam]
        for mu in sorted(mus, reverse=True):
            mu_full = mu + (0,) * (n2 - len(mu))
            out[tuple(half + list(zip(right, (x - shift for x in mu_full))))] = mus[mu]
    return out
