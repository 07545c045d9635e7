"""Isotypic data extraction from graded Fock slices and the end-to-end
decomposition checks.

Everything is compared inside one ambient graded space: multiplicity =
dimension of the subspace fixed by the Levi raising operators at a fixed
weight, computed by exact sparse elimination (``linalg.nullspace``).  The
Fock space is a tensor product over the flavors, so each suite enumerates
the one-flavor monomials of every degree once (``FlavorTables``) and
``weight_spaces`` assembles from them only the weight slices a check reads:
the dominant ones (for tensor branching those of the product side, which
hold the pair weights).  Each slice's monomials go to ``fixed_space`` /
``fixed_dim``.  The operator images of a slice's basis go to the
elimination as sparse rows, one per target monomial (``_image_rows``), and
each sparse kernel vector comes back as a ``FockVector`` over the slice's
monomials.  The torus-side highest-weight conditions are imposed through
the block-triangular doubly-infinite operators, which span the same
constraints as the raising half of the torus algebra on any bounded-degree
slice once the parameters are generic (the block values b_r q^{-k} are then
distinct, so the exponential sums separate).
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InvalidParams, PartitionMismatch
from .fock import (
    PSI,
    FockVector,
    Monomial,
    basis_monomials,
    gen_label,
    gen_mode,
    gl_ell_action,
    glbar_action,
    graded_dim,
    hw_degree,
    monomial_weight,
    psi,
    psibar,
    rho_action,
)
from .glrep import (
    DominantWeight,
    EtaFunctional,
    eta_eval,
    is_dominant,
    levi_branch_D,
    levi_dim,
    tensor_mult_C,
)
from .liealg import TORAL_WINDOW, GlqElement, h_gen
from .linalg import nullspace
from .reports import DecompositionReport, weight_key
from .scalars import ONE, ParameterSet, SetPartition, accumulate, qpow, validate_spectrum


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


def _compositions(n: int, k: int):
    """The k-tuples of nonnegative integers summing to n, in lexicographic
    order."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


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


def _image_rows(images: Sequence[FockVector]) -> List[Dict[int, Fraction]]:
    """Sparse rows of the coefficient matrix of the images: one row per
    target monomial, in order of first appearance; column c holds the
    coefficients of images[c]."""
    rows: Dict[Monomial, Dict[int, Fraction]] = {}
    for c, v in enumerate(images):
        for m, coeff in v._terms.items():
            rows.setdefault(m, {})[c] = coeff
    return list(rows.values())


def fixed_space(partition: SetPartition, monos: Sequence[Monomial],
                N: int) -> List[FockVector]:
    """Exact basis of the raising-fixed subspace of one weight slice, given
    by its monomials (one value of ``weight_spaces``)."""
    if not monos:
        return []
    basis = [FockVector._of({m: ONE}) for m in monos]
    ops = raising_pairs(partition)
    if not ops:
        return basis
    rows: List[Dict[int, Fraction]] = []
    for (r, s) in ops:
        rows.extend(_image_rows([gl_ell_action(r, s, v, N) for v in basis]))
    return [FockVector._of({monos[c]: x for c, x in vec.items()})
            for vec in nullspace(rows, len(monos))]


def fixed_dim(partition: SetPartition, monos: Sequence[Monomial], N: int) -> int:
    return len(fixed_space(partition, monos, N))


def _dominant_fixed_dims(partition: SetPartition,
                        spaces: Dict[Tuple[int, ...], List[Monomial]],
                        N: int) -> Dict[Tuple[int, ...], int]:
    """The nonzero fixed dimensions of the dominant weight slices of one
    degree, in increasing weight order."""
    out = {}
    for w in sorted(spaces):
        if is_dominant(w, partition):
            m = fixed_dim(partition, spaces[w], N)
            if m:
                out[w] = m
    return out


def _block_upper_ops(partition: SetPartition, degree: int, N: int
                     ) -> List[Tuple[Tuple[int, ...], int, int]]:
    """The strictly-upper doubly-infinite units that can act on a degree
    slice, per flavor block: (flavors, row, col) with row < col bounded by
    the mode window of the slice."""
    ops = []
    n0 = degree
    for block in partition.blocks:
        for u in range(-n0, n0 + 1):
            for v in range(u, n0 + 1):
                for i in range(1, N + 1):
                    for j in range(1, N + 1):
                        A, B = u * N + i, v * N + j
                        if A < B:
                            ops.append((block, A, B))
    return ops


def joint_hw_dim(mu: Sequence[int], monos: Sequence[Monomial],
                 params: ParameterSet) -> int:
    """Dimension of the joint highest-weight space of weight (eta, mu) at
    the ambient degree n0 = hw_degree(mu) of the canonical product vector,
    given the weight-mu slice of that degree (one value of
    ``weight_spaces(n0, ...)``)."""
    partition = params.spectrum_partition()
    N = params.N
    n0 = hw_degree(mu, params)
    base = fixed_space(partition, monos, N)
    if not base:
        return 0
    rows: List[Dict[int, Fraction]] = []
    for (flavors, A, B) in _block_upper_ops(partition, n0, N):
        images = [glbar_action(A, B, v, N, flavors) for v in base]
        rows.extend(_image_rows(images))
    eta = EtaFunctional(tuple(mu), params.a, N, params.q)
    for i in range(1, N + 1):
        for n in range(-TORAL_WINDOW, TORAL_WINDOW + 1):
            h = h_gen(i, n, N, params.q)
            val = eta_eval(eta, i, n)
            images = [rho_action(h, params, v) - v.scale(val) for v in base]
            rows.extend(_image_rows(images))
    return len(nullspace(rows, len(base)))


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
    seen: set = set()
    tables = FlavorTables(N, params.ell)
    for n in range(n_max + 1):
        table = {}
        lhs = 0
        spaces = weight_spaces(n, tables, lambda w: is_dominant(w, partition))
        fdims = _dominant_fixed_dims(partition, spaces, N)
        for w, m in fdims.items():
            d = levi_dim(w, partition)
            table[weight_key(w)] = [m, d]
            lhs += m * d
            if check_hw and w not in seen:
                seen.add(w)
                n0 = hw_degree(w, params)
                hw_slice = weight_spaces(n0, tables, w.__eq__).get(w, [])
                jd = joint_hw_dim(w, hw_slice, params)
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
    for n in range(n_max + 1):
        # each product block lies inside a merged block, so the product-
        # dominant slices hold the merged-dominant ones, and levi_branch_D
        # pairs Levi-dominant weights: no other slice is read
        spaces = weight_spaces(n, tables, lambda w: is_dominant(w, prod_part))
        # merged-side data
        fdim = _dominant_fixed_dims(merged, spaces, N)
        dmaps = {w: levi_branch_D(DominantWeight.of(w, merged), part_a, part_b)
                 for w in fdim}
        # product-side comparison per pair weight
        pair_weights = set(spaces)
        for dmap in dmaps.values():
            pair_weights.update(mu + nu for (mu, nu) in dmap)
        table = {}
        for w in sorted(pair_weights):
            lhs = fixed_dim(prod_part, spaces.get(w, []), N)
            mu, nu = w[:ell], w[ell:]
            rhs = 0
            for xi, m in fdim.items():
                rhs += dmaps[xi].get((mu, nu), 0) * m
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

    def dominant_dims(n: int, Nr: int) -> Dict[Tuple[int, ...], int]:
        spaces = weight_spaces(n, by_rank[Nr], lambda w: is_dominant(w, partition))
        return _dominant_fixed_dims(partition, spaces, Nr)

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
                prod = 1
                for r, mu in enumerate(mus):
                    prod *= tables[r][mu]
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


def lattice_parameters(a: Sequence, q, M0: int, M1: int) -> Tuple[Tuple[Fraction, ...], Fraction]:
    """The refolded parameter tuple of length M0*ell and its deformation
    parameter q^{M0*M1}."""
    params = ParameterSet.of(q, a, 2)
    out = []
    for k in range(M0):
        for r in range(params.ell):
            out.append(qpow(params.a[r] * qpow(params.q, -k), M1))
    return tuple(out), qpow(params.q, M0 * M1)


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
    """The induced linear map on Fock vectors (relabel, re-sort, sign)."""
    out: Dict[Monomial, Fraction] = {}
    for mono, c in vec.items():
        gens = [phi_gen(g, ell, M0, N) for g in mono]
        sign = 1
        arr = list(gens)
        for t in range(1, len(arr)):
            u = t
            while u > 0 and arr[u - 1] > arr[u]:
                arr[u - 1], arr[u] = arr[u], arr[u - 1]
                sign = -sign
                u -= 1
        assert all(arr[t] < arr[t + 1] for t in range(len(arr) - 1))
        accumulate(out, tuple(arr), c * sign)
    return FockVector._of(out)


def _pairing(g1, g2) -> int:
    p1, k1, i1 = g1
    p2, k2, i2 = g2
    if k1 == k2:
        return 0
    return 1 if (p1 == p2 and i1 + i2 == -1) else 0


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
    aa, qq = lattice_parameters(a, q, M0, M1)
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
        lhs = _pairing(g1, g2)
        rhs = _pairing(phi_gen(g1, ell, M0, N), phi_gen(g2, ell, M0, N))
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
    vecs = [FockVector.monomial(m) for m in sorted(monos)]

    # (ii) intertwining over the sublattice
    ok = runs = 0
    for _ in range(trials // 10 + 5):
        i, j = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        m0, m1 = rng.randrange(-2, 3), rng.randrange(-2, 3)
        x_big = GlqElement.matrix_unit(i, j, M0 * m0, M1 * m1)
        x_small = GlqElement.matrix_unit(i, j, m0, m1)
        for w in vecs:
            runs += 1
            lhs = rho_action(x_big, params, phi_vector(w, ell, M0, N))
            rhs = phi_vector(rho_action(x_small, big_params, w), ell, M0, N)
            if lhs == rhs:
                ok += 1
            else:
                report.fail({"check": "intertwine", "x": f"E[{i},{j}]t0^{M0*m0}t1^{M1*m1}",
                             "monomial": str(w.support()[:1])})
    report.add_case("intertwine", {"cases": [ok, runs]}, ok, runs)

    # (iii) flavor-block equivariance
    ok = runs = 0
    for block in part.blocks:
        for p in block:
            for pp in block:
                for w in vecs[:SAMPLE_CAP // 2]:
                    runs += 1
                    big = FockVector.zero()
                    for k in range(M0):
                        big = big + gl_ell_action(k * ell + p, k * ell + pp, w, N)
                    lhs = phi_vector(big, ell, M0, N)
                    rhs = gl_ell_action(p, pp, phi_vector(w, ell, M0, N), N)
                    if lhs == rhs:
                        ok += 1
                    else:
                        report.fail({"check": "gl-equivariance", "p": p, "pp": pp})
    report.add_case("gl-equivariance", {"cases": [ok, runs]}, ok, runs)

    # (iv) restriction constants: dimension bookkeeping
    big_blocks_part = part.power(M0)
    ok = runs = 0
    for _ in range(8):
        xi = []
        for b in big_blocks_part.blocks:
            vals = sorted((rng.randrange(-2, 3) for _ in b), reverse=True)
            xi.extend((i, v) for i, v in zip(b, vals))
        xi_t = tuple(v for _, v in sorted(xi))
        slices = [DominantWeight.of(
            tuple(xi_t[k * ell + r - 1] for r in range(1, ell + 1)), part)
            for k in range(M0)]
        emap = tensor_mult_C(slices)
        lhs = sum(c * levi_dim(mu, part) for mu, c in emap.items())
        rhs = levi_dim(xi_t, big_blocks_part)
        runs += 1
        if lhs == rhs:
            ok += 1
        else:
            report.fail({"check": "restriction-constants", "xi": weight_key(xi_t),
                         "lhs": lhs, "rhs": rhs})
    report.add_case("restriction-constants", {"cases": [ok, runs]}, ok, runs)
    return report
