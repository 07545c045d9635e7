"""Isotypic data extraction from graded Fock slices and the end-to-end
decomposition checks.

Everything is compared inside one ambient graded space: multiplicity =
dimension of the subspace fixed by the Levi raising operators at a fixed
weight, computed by exact sparse elimination (``linalg.nullspace``).  Each
suite enumerates the one-flavor monomials of every degree once
(``FlavorTables``), and ``weight_spaces`` assembles from them only the
weight slices a check reads.  A raising operator moves a generator to
another flavor of its block at the same site (kind, idx), so a slice is the
direct sum of its site-occupation components, and as a Levi module (Howe's
skew duality) a component's fixed dimension depends only on the weight and
its ``component_type``.  ``fixed_dim`` eliminates each (weight, type) once,
in a memo that the suite call owns.  ``_term_rows`` builds the integer rows
of the one-monomial flavor and doubly-infinite actions; ``_raising_rows``
is the one set of raising rows.  ``joint_hw_dim`` keeps the monomials on
which every h_{i,n} acts by eta (``toral_mismatch``: integer sums of the
diagonal units' m1-free sign tables, which prove the law at every n), then
imposes the torus-side raising conditions through the block-triangular
doubly-infinite operators, which for generic parameters span the raising
half of the torus algebra on a bounded-degree slice (the block values
b_r q^{-k} are distinct, so the exponential sums separate).
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .errors import InvalidParams, PartitionMismatch
from .fock import (
    PSI,
    FockVector,
    Monomial,
    _gen_on_monomial,
    basis_monomials,
    cached_sign_table,
    gen_label,
    gen_mode,
    gl_ell_action,
    glbar_action,
    graded_dim,
    hw_degree,
    keyed_signs,
    monomial_weight,
    partner,
    psi,
    psibar,
    rho_action,
)
from .glrep import (
    DominantWeight,
    is_dominant,
    levi_branch_D,
    levi_dim,
    tensor_mult_C,
)
from .liealg import GlqElement
from .linalg import nullspace
from .reports import DecompositionReport, weight_key
from .scalars import (
    ONE, ParameterSet, SetPartition, accumulate, qpow, split_index, validate_spectrum)


class FlavorTables:
    """The one-flavor monomials of rank N, by degree and charge, relabelled
    to each of ell flavors.  A degree is enumerated
    (``basis_monomials(d, N, 1)``) on first use, so a suite that keeps one
    instance per rank enumerates each degree once."""

    def __init__(self, N: int, ell: int):
        self.N, self.ell = N, ell
        self._parts: List[List[Dict[int, List[Monomial]]]] = []

    def at(self, comp: Sequence[int]) -> List[Dict[int, List[Monomial]]]:
        """For each flavor p, the sorted flavor-p monomials of degree
        comp[p - 1], by charge."""
        while len(self._parts) <= max(comp):
            by_charge: Dict[int, List[Monomial]] = {}
            for m in basis_monomials(len(self._parts), self.N, 1):
                by_charge.setdefault(monomial_weight(m, 1)[0], []).append(m)
            self._parts.append([
                {c: [tuple((p, kind, idx) for _, kind, idx in m) for m in ms]
                 for c, ms in by_charge.items()}
                for p in range(1, self.ell + 1)])
        return [self._parts[d][p] for p, d in enumerate(comp)]


def _compositions(n: int, k: int) -> List[Tuple[int, ...]]:
    """The k-tuples of nonnegative integers summing to n, in lexicographic
    order."""
    return [c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n]


def weight_spaces(n: int, tables: FlavorTables,
                  keep: Optional[Callable[[Tuple[int, ...]], bool]] = None
                  ) -> Dict[Tuple[int, ...], List[Monomial]]:
    """Degree-n monomials of rank tables.N with tables.ell flavors, grouped
    by flavor weight, each slice sorted; only the nonempty slices of the
    weights w with keep(w) when ``keep`` is set.

    Generators sort by flavor first, so a monomial is the concatenation of
    its per-flavor parts, and the weight-w slice is the union over degree
    compositions (n_1, ..., n_ell) of n of the products of the flavor-p
    parts of degree n_p and charge w_p.  ``tables`` carries the enumerated
    parts from one call to the next."""
    out: Dict[Tuple[int, ...], List[Monomial]] = {}
    for comp in _compositions(n, tables.ell):
        per_flavor = tables.at(comp)
        for w in itertools.product(*per_flavor):
            if keep is None or keep(w):
                monos = per_flavor[0][w[0]]
                for part, c in zip(per_flavor[1:], w[1:]):
                    monos = [m + x for m in monos for x in part[c]]
                out.setdefault(w, []).extend(monos)
    for monos in out.values():
        monos.sort()
    return dict(sorted(out.items()))


def raising_pairs(partition: SetPartition) -> List[Tuple[int, int]]:
    """Consecutive index pairs within each block; they generate the
    unipotent radical."""
    out = []
    for b in partition.blocks:
        out.extend((b[t], b[t + 1]) for t in range(len(b) - 1))
    return out


def _term_rows(images: Sequence[Sequence[tuple]]) -> List[Dict[int, int]]:
    """Sparse integer rows of a unit's matrix from its terms (monomial,
    sign, ...) on each column's monomial: one row per target monomial, in
    order of first appearance.  The targets of one column must be distinct,
    as they are for the raising pairs and the upper units."""
    rows: Dict[Monomial, Dict[int, int]] = {}
    for c, terms in enumerate(images):
        for term in terms:
            rows.setdefault(term[0], {})[c] = term[1]
    return list(rows.values())


def _raising_rows(partition: SetPartition, monos: Sequence[Monomial]
                  ) -> List[Dict[int, int]]:
    """The integer rows of the raising pairs' matrices on ``monos``."""
    return [row for (r, s) in raising_pairs(partition)
            for row in _term_rows([gl_ell_action(r, s, m) for m in monos])]


def fixed_space(partition: SetPartition, monos: Sequence[Monomial]) -> List[FockVector]:
    """Exact basis of the raising-fixed subspace of one weight slice, given
    by its monomials (one value of ``weight_spaces``)."""
    return [FockVector._of({monos[c]: x for c, x in vec.items()})
            for vec in nullspace(_raising_rows(partition, monos), len(monos))]


def component_type(profile: Sequence[Tuple[int, int, int]]) -> Tuple[Tuple[int, ...], ...]:
    """The type of a site-occupation profile (the sorted (kind, idx, block)
    triples of a monomial): per occupied site, the kind followed by the
    blocks of its generators, sorted over the sites."""
    sites: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for kind, idx, b in profile:
        sites[kind, idx] = sites.get((kind, idx), (kind,)) + (b,)
    return tuple(sorted(sites.values()))


def fixed_dim(partition: SetPartition, monos: Sequence[Monomial], memo: Dict) -> int:
    """Dimension of the raising-fixed subspace of one weight slice, summed
    over its site-occupation components.  ``memo`` maps (weight, component
    type) to the dimension found on the first such component; it serves one
    partition, at any rank."""
    if not monos or not raising_pairs(partition):
        return len(monos)
    w = monomial_weight(monos[0], partition.ell)
    block = {p: b for b, ps in enumerate(partition.blocks) for p in ps}
    components: Dict[Tuple[Tuple[int, int, int], ...], List[Monomial]] = {}
    for m in monos:
        profile = tuple(sorted([(kind, idx, block[p]) for p, kind, idx in m]))
        components.setdefault(profile, []).append(m)
    total = 0
    for profile, comp in components.items():
        key = (w, component_type(profile))
        if key not in memo:
            memo[key] = len(fixed_space(partition, comp))
        total += memo[key]
    return total


def _dominant_fixed_dims(partition: SetPartition,
                        spaces: Dict[Tuple[int, ...], List[Monomial]],
                        memo: Dict) -> Dict[Tuple[int, ...], int]:
    """The nonzero fixed dimensions of the dominant weight slices of one
    degree, in increasing weight order."""
    out = {}
    for w in sorted(spaces):
        if is_dominant(w, partition):
            m = fixed_dim(partition, spaces[w], memo)
            if m:
                out[w] = m
    return out


def _block_upper_ops(partition: SetPartition, degree: int, N: int
                     ) -> List[Tuple[Tuple[int, ...], int, int]]:
    """The simple upper doubly-infinite units that can act on a degree
    slice, per flavor block: (flavors, A, A + 1) in the mode window of the
    slice, the flat indices 1 - degree*N .. (degree + 1)*N.  Like the
    consecutive pairs of `raising_pairs`, they generate every upper unit
    (flavors, A, B), A < B, of the window, so they have its nullity:
    [E_{A,B}, E_{B,C}] = E_{A,C} for A < B < C with no central term, the
    flavors of a block commute, and a vector killed by generators is
    killed by their brackets."""
    lo, hi = 1 - degree * N, (degree + 1) * N
    return [(block, A, A + 1) for block in partition.blocks for A in range(lo, hi)]


class OffDiagonal(Exception):
    """A unit of a toral generator maps a slice monomial off its own line."""


# The highest-weight checks write a failing h_{i,n} with |n| <= TORAL_WINDOW.
TORAL_WINDOW = 3


def toral_scalars(mu: Sequence[int], i: int, params: ParameterSet
                  ) -> Dict[Tuple[int, int], int]:
    """The scalar part of h_{i,n} - eta(h_{i,n}) as integer sums on the keys
    (rep[p - 1], k) of (a_p q^{-k})^n: sum_p (a_p q)^n = c(n)(1 - q^n) for
    i = N (k0 = ell at n = 0), minus eta's (a_k q^{-mudot_k})^n, mudd_k = i."""
    out: Dict[Tuple[int, int], int] = {}
    for r in params.rep if i == params.N else ():
        out[r, -1] = out.get((r, -1), 0) + 1
    for m, r in zip(mu, params.rep):
        mudot, mudd = split_index(m, params.N)
        if mudd == i:
            out[r, mudot] = out.get((r, mudot), 0) - 1
    return out


def _character_sum(sums: Dict, n: int, params: ParameterSet) -> Fraction:
    """The sum of c (a_r q^{-k})^n over the keys (r, k) with sums c."""
    return sum(c * qpow(params.a[r - 1] * qpow(params.q, -k), n)
               for (r, k), c in sums.items())


def toral_mismatch(mono: Monomial, mu: Sequence[int], params: ParameterSet
                   ) -> Optional[Tuple[int, Union[int, str], bool]]:
    """The first (i, n), i outer over 1..N and n inner over |n| <=
    TORAL_WINDOW, where h_{i,n} does not map the monomial to eta(h_{i,n})
    times itself, and whether one of its units E_{j,j} t1^n took it off its
    line; None when the law holds at every n in Z.

    h_{i,n} is E_{i,i} t1^n - E_{i+1,i+1} t1^n for i < N and
    -q^n E_{1,1} t1^n + E_{N,N} t1^n for i = N (q^n lowers k by one), plus
    `toral_scalars`: integer sums on `keyed_signs` keys, which all vanish
    exactly when the law holds at every n.  Nonzero sums are evaluated in
    the window; if they cancel there, (i, "(r,k):sum", off_line) names the
    first."""
    N, rep = params.N, params.rep
    tables = {j: keyed_signs(cached_sign_table(j, j, 0, mono, params), rep)
              for j in range(1, N + 1)}
    key_witness = None
    for i in range(1, N + 1):
        law, stray = toral_scalars(mu, i, params), []
        for j, c, shift in ((i, 1, 0), (i + 1, -1, 0)) if i < N else ((1, -1, 1), (N, 1, 0)):
            off: Dict = {}      # the unit's off-line sums, by target monomial
            for (mono2, r, k), s in tables[j].items():
                if mono2 == mono:
                    law[r, k - shift] = law.get((r, k - shift), 0) + c * s
                else:
                    off.setdefault(mono2, {})[r, k] = s
            stray.extend(off.values())
        law = {key: c for key, c in law.items() if c}
        if not law and not stray:
            continue
        for n in range(-TORAL_WINDOW, TORAL_WINDOW + 1):
            if any(_character_sum(sums, n, params) for sums in stray):
                return i, n, True
            if _character_sum(law, n, params):
                return i, n, False
        if key_witness is None:
            (r, k), c = next(iter((law or stray[0]).items()))
            key_witness = i, f"({r},{k}):{c}", not law
    return key_witness


def joint_hw_dim(mu: Sequence[int], monos: Sequence[Monomial],
                 params: ParameterSet, partition: SetPartition) -> int:
    """Dimension of the joint highest-weight space of weight (eta, mu) in
    the span of ``monos`` (one value of ``weight_spaces``), with the
    raising pairs of ``partition``, the validated partition of ``params``,
    and the upper operators of the degree hw_degree(mu).  A monomial is
    kept only if its h_{i,n} eigenvalues all equal eta(h_{i,n})
    (`toral_mismatch`); the raising pairs and upper operators are
    eliminated on the kept ones.  A toral image off its monomial's line
    raises `OffDiagonal`."""
    basis = []
    for m in monos:
        miss = toral_mismatch(m, mu, params)
        if miss is None:
            basis.append(m)
        elif miss[2]:
            raise OffDiagonal(f"h_{{{miss[0]},{miss[1]}}} maps {m} off its line")
    rows = _raising_rows(partition, basis)
    for (flavors, A, B) in _block_upper_ops(partition, hw_degree(mu, params), params.N):
        rows.extend(_term_rows([glbar_action(A, B, m, flavors) for m in basis]))
    return len(nullspace(rows, len(basis)))


def verify_skew_duality(N: int, a: Sequence, q, n_max: int,
                        check_hw: bool = True) -> DecompositionReport:
    """Per degree: sum over dominant weights of (fixed dim) x (Levi dim)
    must exhaust the slice dimension, and each detected weight must carry a
    one-dimensional joint highest-weight space."""
    params = ParameterSet.of(q, a, N)
    partition = validate_spectrum(a, q)
    report = DecompositionReport(config={
        "suite": "skew-duality", "N": N, "ell": params.ell,
        "q": str(params.q), "a": [str(x) for x in params.a],
        "partition": partition.describe(), "n_max": n_max,
    })
    tables = FlavorTables(N, params.ell)
    memo = {}
    for n in range(n_max + 1):
        table = {}
        lhs = 0
        spaces = weight_spaces(n, tables, lambda w: is_dominant(w, partition))
        fdims = _dominant_fixed_dims(partition, spaces, memo)
        for w, m in fdims.items():
            d = levi_dim(w, partition)
            table[weight_key(w)] = [m, d]
            lhs += m * d
            # the weight-w slices are empty below hw_degree(w), so w is
            # first met at that degree, with its product vector
            if check_hw and n == hw_degree(w, params):
                try:
                    jd = joint_hw_dim(w, spaces[w], params, partition)
                except OffDiagonal as exc:
                    jd = str(exc)
                if jd != 1:
                    report.fail({"degree": n, "weight": weight_key(w),
                                 "joint_hw_dim": jd, "expected": 1})
        rhs = graded_dim(n, N, params.ell)
        report.add_case(n, table, lhs, rhs)
        if lhs != rhs:
            report.fail({"degree": n, "lhs": lhs, "rhs": rhs})
    return report


def verify_tensor_branching(N: int, a: Sequence, b: Sequence, q,
                            n_max: int) -> DecompositionReport:
    """Isotypic comparison of the product-side and merged-side fixed spaces
    through the Levi restriction constants."""
    if not a or not b:
        raise InvalidParams("need at least one parameter on each side")
    ell, ellp = len(a), len(b)
    ab = list(a) + list(b)
    params = ParameterSet.of(q, ab, N)
    merged = validate_spectrum(ab, q)
    part_a = validate_spectrum(a, q)
    part_b = validate_spectrum(b, q)
    prod_part = part_a.union(part_b)
    report = DecompositionReport(config={
        "suite": "tensor-branching", "N": N, "ell": ell, "ellp": ellp,
        "q": str(params.q), "a": [str(x) for x in params.a[:ell]],
        "b": [str(x) for x in params.a[ell:]],
        "merged_partition": merged.describe(), "n_max": n_max,
    })
    mult_free_required = (ellp == 1)
    tables = FlavorTables(N, ell + ellp)
    merged_memo, prod_memo = {}, {}   # one type memo per partition
    for n in range(n_max + 1):
        # each product block lies inside a merged block, so the product-
        # dominant slices hold the merged-dominant ones, and levi_branch_D
        # pairs Levi-dominant weights: no other slice is read
        spaces = weight_spaces(n, tables, lambda w: is_dominant(w, prod_part))
        # merged-side data
        fdim = _dominant_fixed_dims(merged, spaces, merged_memo)
        dmaps = {w: levi_branch_D(DominantWeight.of(w, merged), part_a, part_b)
                 for w in fdim}
        # product-side comparison per pair weight
        pair_weights = set(spaces)
        for dmap in dmaps.values():
            pair_weights.update(mu + nu for (mu, nu) in dmap)
        table = {}
        for w in sorted(pair_weights):
            lhs = fixed_dim(prod_part, spaces.get(w, []), prod_memo)
            mu, nu = w[:ell], w[ell:]
            rhs = sum(dmaps[xi].get((mu, nu), 0) * m for xi, m in fdim.items())
            if lhs or rhs:
                table[weight_key(mu) + "|" + weight_key(nu)] = [lhs, rhs]
            if lhs != rhs:
                report.fail({"degree": n, "weight": weight_key(w),
                             "lhs": lhs, "rhs": rhs})
        if mult_free_required:
            for xi, dmap in dmaps.items():
                bad = [kv for kv in dmap.items() if kv[1] > 1]
                if bad:
                    report.fail({"degree": n, "xi": weight_key(xi),
                                 "non_multiplicity_free": str(bad[0])})
        report.add_case(n, table,
                        sum(v[0] for v in table.values()),
                        sum(v[1] for v in table.values()))
    return report


def verify_levi_branching(bfN: Sequence[int], a: Sequence, q,
                          n_max: int) -> DecompositionReport:
    """Fixed-space dimensions of the big slice against the convolution of
    the factors weighted by the diagonal tensor constants."""
    bfN = tuple(bfN)
    N = sum(bfN)
    params = ParameterSet.of(q, a, N)
    partition = validate_spectrum(a, q)
    report = DecompositionReport(config={
        "suite": "levi-branching", "bfN": list(bfN), "ell": params.ell,
        "q": str(params.q), "a": [str(x) for x in params.a], "n_max": n_max,
    })
    by_rank = {r: FlavorTables(r, params.ell) for r in set(bfN) | {N}}
    memo = {}   # a type carries no rank, so every rank shares it

    def dominant_dims(n: int, Nr: int) -> Dict[Tuple[int, ...], int]:
        spaces = weight_spaces(n, by_rank[Nr], lambda w: is_dominant(w, partition))
        return _dominant_fixed_dims(partition, spaces, memo)

    # per factor rank and degree: {weight: fixed dim}; equal factors share
    fdim_r = {Nr: [dominant_dims(n, Nr) for n in range(n_max + 1)]
              for Nr in sorted(set(bfN))}
    d = len(bfN)
    for n in range(n_max + 1):
        # convolve the factors over degree compositions
        combo_dim: Dict[Tuple[Tuple[int, ...], ...], int] = {}
        for comp in _compositions(n, d):
            tables = [fdim_r[bfN[r]][comp[r]] for r in range(d)]
            if any(not t for t in tables):
                continue
            for mus in itertools.product(*(sorted(t) for t in tables)):
                prod = math.prod(t[mu] for t, mu in zip(tables, mus))
                combo_dim[mus] = combo_dim.get(mus, 0) + prod
        rhs_map: Dict[Tuple[int, ...], int] = {}
        for mus, dim in combo_dim.items():
            cmap = tensor_mult_C([DominantWeight.of(m, partition) for m in mus])
            for xi, c in cmap.items():
                rhs_map[xi] = rhs_map.get(xi, 0) + c * dim
        lhs_map = dominant_dims(n, N)
        table = {}
        for xi in sorted(set(lhs_map) | set(rhs_map)):
            l, r = lhs_map.get(xi, 0), rhs_map.get(xi, 0)
            table[weight_key(xi)] = [l, r]
            if l != r:
                report.fail({"degree": n, "weight": weight_key(xi),
                             "lhs": l, "rhs": r})
        report.add_case(n, table, sum(v[0] for v in table.values()),
                        sum(v[1] for v in table.values()))
    return report


# -- sublattice refolding -----------------------------------------------------

# The most basis monomials the intertwiner checks act on, drawn at random
# when the degree bound gives more.
SAMPLE_CAP = 40


def lattice_parameters(params: ParameterSet, M0: int, M1: int
                       ) -> Tuple[Tuple[Fraction, ...], Fraction]:
    """The refolded parameter tuple of length M0*ell and its deformation
    parameter q^{M0*M1}."""
    out = tuple(qpow(params.a[r] * qpow(params.q, -k), M1)
                for k in range(M0) for r in range(params.ell))
    return out, qpow(params.q, M0 * M1)


def phi_gen(g, ell: int, M0: int, N: int):
    """Refold one generator of the M0*ell-flavor algebra into the ell-flavor
    algebra: flavor k*ell+p at mode n becomes flavor p at mode M0*n -+ k."""
    pp, kind, _ = g
    p = (pp - 1) % ell + 1
    k = (pp - 1) // ell
    n, i = gen_mode(g, N), gen_label(g, N)
    if kind == PSI:
        return psi(i, p, M0 * n - k, N)
    return psibar(i, p, M0 * n + k, N)


def phi_vector(vec: FockVector, ell: int, M0: int, N: int) -> FockVector:
    """The induced linear map on Fock vectors: the refolded creators of a
    monomial, applied to the vacuum right to left."""
    out: Dict[Monomial, Fraction] = {}
    for mono, c in vec._terms.items():
        sign, image = 1, ()
        for g in reversed(mono):
            s, image = _gen_on_monomial(phi_gen(g, ell, M0, N), image)
            sign *= s
        accumulate(out, image, c if sign == 1 else -c)
    return FockVector._of(out)


def verify_lattice_intertwiner(N: int, M0: int, M1: int, a: Sequence, q,
                               n_max: int = 1, trials: int = 100,
                               seed: int = 0) -> DecompositionReport:
    """Checks the refolding isomorphism: anticommutation transport, the
    torus-action intertwining over the index sublattice, flavor-action
    equivariance, and the dimension identity for the diagonal restriction
    constants."""
    params = ParameterSet.of(q, a, N)
    ell = params.ell
    part = validate_spectrum(a, q)
    aa, qq = lattice_parameters(params, M0, M1)
    big_part = validate_spectrum(aa, qq)   # NotGeneric propagates
    if big_part != part.power(M0):
        raise PartitionMismatch(
            f"refolded partition {big_part.describe()} != {part.power(M0).describe()}")
    big_params = ParameterSet.of(qq, aa, N)
    rng = random.Random(seed)
    report = DecompositionReport(config={
        "suite": "lattice-intertwiner", "N": N, "ell": ell, "M0": M0,
        "M1": M1, "q": str(params.q), "a": [str(x) for x in params.a],
        "refolded_a": [str(x) for x in aa], "refolded_q": str(qq),
        "n_max": n_max, "trials": trials, "seed": seed,
    })

    # (i) anticommutation values transported exactly
    ok = 0
    L = M0 * ell
    for _ in range(trials):
        kind1, kind2 = rng.randrange(2), rng.randrange(2)
        g1 = (rng.randrange(1, L + 1), kind1, rng.randrange(-2 * N, 2 * N))
        g2 = (rng.randrange(1, L + 1), kind2, rng.randrange(-2 * N, 2 * N))
        lhs = int(g2 == partner(g1))
        rhs = int(phi_gen(g2, ell, M0, N) == partner(phi_gen(g1, ell, M0, N)))
        if lhs == rhs:
            ok += 1
        else:
            report.fail({"check": "clifford", "g1": str(g1), "g2": str(g2),
                         "lhs": lhs, "rhs": rhs})
    report.add_case("clifford", {"pairs": [ok, trials]}, ok, trials)

    # sample vectors with bounded support
    monos = []
    for n in range(n_max + 1):
        monos.extend(basis_monomials(n, N, L))
    if len(monos) > SAMPLE_CAP:
        monos = rng.sample(monos, SAMPLE_CAP)
    monos.sort()
    vecs = [FockVector.monomial(m) for m in monos]
    refolded = [phi_vector(w, ell, M0, N) for w in vecs]

    # (ii) intertwining over the sublattice
    ok = runs = 0
    for _ in range(trials // 10 + 5):
        i, j = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        m0, m1 = rng.randrange(-2, 3), rng.randrange(-2, 3)
        x_big = GlqElement.matrix_unit(i, j, M0 * m0, M1 * m1)
        x_small = GlqElement.matrix_unit(i, j, m0, m1)
        for w, w_big in zip(vecs, refolded):
            runs += 1
            lhs = rho_action(x_big, params, w_big)
            rhs = phi_vector(rho_action(x_small, big_params, w), ell, M0, N)
            if lhs == rhs:
                ok += 1
            else:
                report.fail({"check": "intertwine", "x": f"E[{i},{j}]t0^{M0*m0}t1^{M1*m1}",
                             "monomial": str(w.support()[:1])})
    report.add_case("intertwine", {"cases": [ok, runs]}, ok, runs)

    # (iii) flavor-block equivariance on monomials; a diagonal unit puts
    # several terms on one monomial, so the terms are summed
    def flavor_sum(units, mono: Monomial, c: Fraction = ONE) -> FockVector:
        out: Dict[Monomial, Fraction] = {}
        for r, s in units:
            for mono2, sign, _, _ in gl_ell_action(r, s, mono):
                accumulate(out, mono2, c if sign == 1 else -c)
        return FockVector._of(out)

    ok = runs = 0
    for block in part.blocks:
        for p in block:
            for pp in block:
                for mono, w_big in zip(monos, refolded[:SAMPLE_CAP // 2]):
                    runs += 1
                    big = flavor_sum([(k * ell + p, k * ell + pp) for k in range(M0)], mono)
                    (image, c), = w_big._terms.items()
                    if phi_vector(big, ell, M0, N) == flavor_sum([(p, pp)], image, c):
                        ok += 1
                    else:
                        report.fail({"check": "gl-equivariance", "p": p, "pp": pp})
    report.add_case("gl-equivariance", {"cases": [ok, runs]}, ok, runs)

    # (iv) restriction constants: dimension bookkeeping
    ok = runs = 0
    for _ in range(8):
        xi = []
        for b in big_part.blocks:
            vals = sorted((rng.randrange(-2, 3) for _ in b), reverse=True)
            xi.extend((i, v) for i, v in zip(b, vals))
        xi_t = tuple(v for _, v in sorted(xi))
        slices = [DominantWeight.of(
            tuple(xi_t[k * ell + r - 1] for r in range(1, ell + 1)), part)
            for k in range(M0)]
        emap = tensor_mult_C(slices)
        lhs = sum(c * levi_dim(mu, part) for mu, c in emap.items())
        rhs = levi_dim(xi_t, big_part)
        runs += 1
        if lhs == rhs:
            ok += 1
        else:
            report.fail({"check": "restriction-constants", "xi": weight_key(xi_t),
                         "lhs": lhs, "rhs": rhs})
    report.add_case("restriction-constants", {"cases": [ok, runs]}, ok, runs)
    return report
