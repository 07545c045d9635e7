"""Randomized axiom and representation suites behind the CLI.

Each suite draws from a seeded generator, checks exact identities, and
returns a DecompositionReport whose witness pins the first failure.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .covariant import (
    CovElement,
    K,
    KPRIME,
    cov_basis_keys,
    cov_bracket,
    theta,
    theta_inv,
)
from .duality import TORAL_WINDOW, raising_pairs, toral_mismatch
from .fock import (
    FockVector,
    Monomial,
    basis_monomials,
    cached_sign_table,
    gl_ell_action,
    hw_monomial,
    keyed_signs,
    monomial_weight,
    rho_mat_on_monomial,
)
from .glrep import is_dominant
from .liealg import GlqElement, K0, K1, bracket, degree, degrees, sl_defects
from .errors import InvalidParams
from .reports import DecompositionReport, weight_key
from .scalars import (
    NEG_ONE, ONE, ParameterSet, accumulate, at_q, check_q, qpow, validate_spectrum)

# Fixed windows, printed in the report configs: the t0 exponents of the
# raising generators the highest-weight suite applies, the t1 exponents
# |m1| <= M1_WINDOW of both Fock suites, and the total modes |K| <= K_WINDOW
# of the nilpotency suite.
HW_M0 = (1, 2)
M1_WINDOW = 2
K_WINDOW = 8


def sample_basis_element(rng: random.Random, N: int, max_exp: int) -> GlqElement:
    """A uniform-ish draw from the standard trace-zero basis window, with
    integer coefficients +-1 on q^0."""
    kind = rng.randrange(8)
    if kind == 0:
        return GlqElement._of({(K0, 0): 1})
    if kind == 1:
        return GlqElement._of({(K1, 0): 1})
    if kind == 2:
        r = rng.randrange(1, N)
        return GlqElement._of({((r, r, 0, 0), 0): 1, ((r + 1, r + 1, 0, 0), 0): -1})
    while True:
        i, j = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        m0 = rng.randrange(-max_exp, max_exp + 1)
        m1 = rng.randrange(-max_exp, max_exp + 1)
        if (i - j, m0, m1) != (0, 0, 0):
            return GlqElement._of({((i, j, m0, m1), 0): 1})


class CachedAction:
    """rho with per-(generator, monomial) memoization, for the bracket side
    of the module suite: it applies rho([x, y]) to every basis vector of a
    trial, and trials share generator keys.  A term c q^e of x acts with
    c times the value of q^e, kept per (c, e)."""

    def __init__(self, params: ParameterSet):
        self.params = params
        self._cache: Dict = {}
        self._values: Dict[Tuple[int, int], Fraction] = {}

    def __call__(self, x: GlqElement, vec: FockVector) -> FockVector:
        acc: Dict[Monomial, Fraction] = {}
        for (key, e), coeff in x._terms.items():
            if e:
                w = self._values.get((coeff, e))
                if w is None:
                    w = self._values[coeff, e] = coeff * qpow(self.params.q, e)
                coeff = w
            if key == K0:
                for m, c in vec._terms.items():
                    accumulate(acc, m, c * coeff * self.params.ell)
                continue
            if key == K1:
                continue
            for m, c in vec._terms.items():
                ck = (key, m)
                r = self._cache.get(ck)
                if r is None:
                    i, j, m0, m1 = key
                    r = rho_mat_on_monomial(i, j, m0, m1, self.params, m)
                    self._cache[ck] = r
                w = c if coeff == 1 else -c if coeff == -1 else c * coeff
                for m2, c2 in r.items():
                    accumulate(acc, m2,
                               w if c2 is ONE else -w if c2 is NEG_ONE else w * c2)
        return FockVector._of(acc)


def _fail_keyed(report: DecompositionReport, deferred: List[Dict], witness: Dict,
                residue: Dict, q: Fraction) -> None:
    """Fail a law whose keyed residue, {(key, q-exponent): sum}, is nonzero.
    If the residue does not vanish at q, `witness` is the pointwise one;
    otherwise the law fails at every q but finitely many, and the witness
    names the first nonzero key and its sum.  Such witnesses are deferred,
    so that a pointwise one comes first."""
    if at_q(residue, q):
        report.fail(witness)
    else:
        (label, e), c = next(iter(residue.items()))
        deferred.append({**witness, "key": [str(label), e], "sum": c})


def verify_bracket_axioms(N: int, q, trials: int, seed: int,
                          max_exp: int = 3) -> DecompositionReport:
    """Antisymmetry, the Jacobi identity, closure, and grading additivity
    on random basis triples.

    The brackets are keyed integer sums over Z[q, q^-1], so an empty
    residue proves a law for every q != 0; `--q` is read only to pick the
    witness of a nonzero one (`_fail_keyed`)."""
    q = check_q(q)
    if N < 2:
        raise InvalidParams("N must be >= 2")
    rng = random.Random(seed)
    report = DecompositionReport(config={
        "suite": "bracket-axioms", "N": N, "q": str(q),
        "trials": trials, "seed": seed, "max_exp": max_exp,
    })
    ok = 0
    deferred: List[Dict] = []
    for t in range(trials):
        x = sample_basis_element(rng, N, max_exp)
        y = sample_basis_element(rng, N, max_exp)
        z = sample_basis_element(rng, N, max_exp)
        b = bracket(x, y)
        residues = [
            ("antisymmetry", (b + bracket(y, x))._terms),
            ("jacobi", (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                        + bracket(z, b))._terms),
            ("closure", sl_defects(b, N)),
        ]
        gx, gy = degrees(x), degrees(y)
        if len(gx) == 1 and len(gy) == 1:
            (dx,), (dy,) = gx, gy
            residues.append(("grading", {term: c for term, c in b._terms.items()
                                         if degree(term[0]) != dx + dy}))
        good = True
        for law, residue in residues:
            if residue:
                witness = {"trial": t, "law": law, "x": x.text(), "y": y.text()}
                if law == "jacobi":
                    witness["z"] = z.text()
                _fail_keyed(report, deferred, witness, residue, q)
                good = False
        ok += good
    for witness in deferred:
        report.fail(witness)
    report.add_case("axioms", {"trials": [ok, trials]}, ok, trials)
    return report


def verify_theta_iso(N: int, q, trials: int, seed: int,
                     max_exp: int = 3) -> DecompositionReport:
    """Bracket transport under the covariant relabeling, the central pairing
    instances, and bijectivity on the basis window.

    Both brackets and theta are keyed over Z[q, q^-1], so each law is
    proved for every q != 0; `--q` is read only to pick the witness of a
    nonzero residue (`_fail_keyed`)."""
    q = check_q(q)
    if N < 2:
        raise InvalidParams("N must be >= 2")
    rng = random.Random(seed)
    report = DecompositionReport(config={
        "suite": "theta-isomorphism", "N": N, "q": str(q),
        "trials": trials, "seed": seed, "max_exp": max_exp,
    })
    ok = 0
    deferred: List[Dict] = []
    for t in range(trials):
        x = sample_basis_element(rng, N, max_exp)
        y = sample_basis_element(rng, N, max_exp)
        lhs = theta(bracket(x, y), N)
        rhs = cov_bracket(theta(x, N), theta(y, N), N)
        if lhs == rhs:
            ok += 1
        else:
            _fail_keyed(report, deferred, {"trial": t, "law": "bracket-transport",
                                           "x": x.text(), "y": y.text()},
                        (lhs - rhs)._terms, q)
    report.add_case("homomorphism", {"pairs": [ok, trials]}, ok, trials)

    ok = runs = 0
    for t in range(trials // 2):
        i, j = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        m0 = rng.randrange(-max_exp, max_exp + 1)
        m1 = rng.randrange(-max_exp, max_exp + 1)
        if (i - j, m0, m1) == (0, 0, 0):
            continue
        runs += 1
        x = GlqElement._of({((i, j, m0, m1), 0): 1})
        y = GlqElement._of({((j, i, -m0, -m1), 0): 1})
        got = bracket(x, y)
        cov_got = cov_bracket(theta(x, N), theta(y, N), N)
        # q^{-m1 m0} (E_{i,i} - E_{j,j} + m0 k0 + m1 k1), and its image with
        # the central terms written as k and kprime
        e = -m1 * m0
        want = {} if i == j else {((i, i, 0, 0), e): 1, ((j, j, 0, 0), e): -1}
        cov_want = dict(theta(GlqElement._of(want), N)._terms)
        for n, key, cov_key in ((m0, K0, K), (m1, K1, KPRIME)):
            if n:
                want[key, e] = cov_want[cov_key, e] = n
        if got._terms == want and cov_got._terms == cov_want:
            ok += 1
        else:
            residue = {**(got - GlqElement._of(want))._terms,
                       **(cov_got - CovElement._of(cov_want))._terms}
            _fail_keyed(report, deferred, {"trial": t, "law": "central-instance",
                                           "x": x.text()}, residue, q)
    if not runs:
        raise InvalidParams("no central-instance pair drawn; raise --trials")
    report.add_case("central-instances", {"pairs": [ok, runs]}, ok, runs)

    ok = runs = 0
    for key in cov_basis_keys(N, max_exp):
        runs += 1
        u = CovElement.basis(key)
        if theta(theta_inv(u), N) == u:
            ok += 1
        else:
            report.fail({"law": "roundtrip", "key": str(key)})
    report.add_case("roundtrip", {"keys": [ok, runs]}, ok, runs)
    for witness in deferred:
        report.fail(witness)
    return report


def _ordered_unit_pairs(x: GlqElement, y: GlqElement, ell: int) -> List[Tuple]:
    """The unit pairs of rho(x)rho(y) - rho(y)rho(x), as (outer unit, inner
    unit, integer coefficient, A, e) with the inner unit acting first and
    q^e the product of their q-powers.

    x and y are sampled basis elements, so their coefficients are +-1; k0
    and k1 act as scalars and have no units.  A[p_out - 1][p_in - 1] is the
    exponent tuple of (a_1, ..., a_ell) in a_{p_out}^{m1_out} a_{p_in}^{m1_in}."""
    units_x = [(key, e, c) for (key, e), c in x._terms.items() if key != K0 and key != K1]
    units_y = [(key, e, c) for (key, e), c in y._terms.items() if key != K0 and key != K1]
    out = []
    for outer, inner, sign in ((units_x, units_y, 1), (units_y, units_x, -1)):
        for u, eu, cu in outer:
            for v, ev, cv in inner:
                A = [[tuple((u[3] if p == p_out else 0) + (v[3] if p == p_in else 0)
                            for p in range(ell))
                      for p_in in range(ell)] for p_out in range(ell)]
                out.append((u, v, sign * cu * cv, A, eu + ev))
    return out


def commutator_sums(pairs: Sequence, mono: Monomial, params: ParameterSet) -> Dict:
    """The keyed integer sums of rho(x)rho(y) - rho(y)rho(x) on one monomial,
    without the scalar parts, for the unit pairs of `_ordered_unit_pairs`.

    A path through the sign-table terms (mono2, s2, p2, k2) of the inner
    unit (k, l, n0, n1) and (mono3, s1, p1, k1) of the outer unit
    (i, j, m0, m1) carries c s1 s2 q^e (a_p1 q^{-k1})^{m1} (a_p2 q^{-k2})^{n1}.
    Its integer sign is summed on (mono3, A, Q), with A the exponents of
    the a_p and Q = e - k1 m1 - k2 n1 the exponent of q; zero sums are
    dropped.
    """
    sums: Dict = {}
    for (i, j, m0, m1), (k, l, n0, n1), c, A, e in pairs:
        for mono2, s2, p2, k2 in cached_sign_table(k, l, n0, mono, params):
            c2, Q2 = c * s2, e - k2 * n1
            p2 -= 1
            for mono3, s1, p1, k1 in cached_sign_table(i, j, m0, mono2, params):
                key = (mono3, A[p1 - 1][p2], Q2 - k1 * m1)
                sums[key] = sums.get(key, 0) + c2 * s1
    return {key: s for key, s in sums.items() if s}


def verify_module_property(N: int, a: Sequence, q, trials: int, seed: int,
                           deg_max: int = 2, max_exp: int = 2) -> DecompositionReport:
    """Commutator of actions against the action of the bracket on every
    basis vector of bounded degree.

    On a sampled unit, rho is its sign-table part S plus a scalar (the
    diagonal scalar of `rho_mat_on_monomial`; k0 acts as ell and k1 as 0),
    and scalars commute with every operator, so rho(x)rho(y) - rho(y)rho(x)
    = S_x S_y - S_y S_x exactly.  The left side is therefore read off the
    m1-free sign tables: the integer signs of its paths are summed on
    (monomial, exponents of a, exponent of q) by `commutator_sums`, and
    each nonzero key is evaluated once per suite.  The right side is
    `CachedAction(params)(bracket(x, y), v)`, so `liealg.bracket` and
    the diagonal scalar are tested there.  The first failing vector of a
    failing trial is its witness.
    """
    params = ParameterSet.of(q, a, N)
    rng = random.Random(seed)
    act = CachedAction(params)
    report = DecompositionReport(config={
        "suite": "module-property", "N": N, "ell": params.ell, "q": str(params.q),
        "a": [str(x) for x in params.a], "trials": trials, "seed": seed,
        "deg_max": deg_max, "max_exp": max_exp,
    })
    basis = [(m, FockVector.monomial(m))
             for n in range(deg_max + 1) for m in basis_monomials(n, N, params.ell)]
    values: Dict = {}

    def value(A: Tuple[int, ...], Q: int) -> Fraction:
        """prod_p a_p^{A_p} q^Q, once per (A, Q) in this suite."""
        v = values.get((A, Q))
        if v is None:
            v = qpow(params.q, Q)
            for ap, e in zip(params.a, A):
                if e:
                    v *= qpow(ap, e)
            values[A, Q] = v
        return v

    ok = 0
    for t in range(trials):
        x = sample_basis_element(rng, N, max_exp)
        y = sample_basis_element(rng, N, max_exp)
        b = bracket(x, y)
        pairs = _ordered_unit_pairs(x, y, params.ell)
        good = True
        for mono, v in basis:
            lhs: Dict[Monomial, Fraction] = {}
            for (mono3, A, Q), s in commutator_sums(pairs, mono, params).items():
                w = value(A, Q)
                accumulate(lhs, mono3, w if s == 1 else -w if s == -1 else s * w)
            if lhs != act(b, v)._terms:
                report.fail({"trial": t, "x": x.text(), "y": y.text(),
                             "vector": str(mono)})
                good = False
                break
        ok += good
    report.add_case("module", {"pairs": [ok, trials],
                               "basis_size": [len(basis), len(basis)]},
                    ok, trials)
    return report


def verify_highest_weight(N: int, a: Sequence, q,
                          mu_bound: int = 2) -> DecompositionReport:
    """The product monomials are killed by the raising half, carry the stated
    toral eigenvalues, and are fixed vectors of the stated flavor weight.

    A raising unit (m0 in HW_M0, or m0 = 0 with i < j) has no diagonal
    scalar, so it kills the product monomial at every m1 exactly when its
    `keyed_signs` are empty; `toral_mismatch` proves the toral law at every
    n.  Only a unit with a key left is applied at the windowed m1, so the
    first witness is that of a point-by-point check; a key that cancels at
    every windowed point is the witness only when no such check fails.
    """
    params = ParameterSet.of(q, a, N)
    ell = params.ell
    partition = validate_spectrum(a, q)
    report = DecompositionReport(config={
        "suite": "highest-weight", "N": N, "ell": ell, "q": str(params.q),
        "a": [str(x) for x in params.a], "mu_bound": mu_bound,
        "m0_list": list(HW_M0), "m1_window": M1_WINDOW, "h_window": TORAL_WINDOW,
    })
    mus = [mu for mu in itertools.product(range(-mu_bound, mu_bound + 1), repeat=ell)
           if is_dominant(mu, partition)]
    window = range(-M1_WINDOW, M1_WINDOW + 1)
    ok = 0
    deferred = []       # the witnesses of keys that cancel in the window
    for mu in mus:
        mono = hw_monomial(mu)
        good = True
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                # the degree-zero raising generators are the strictly upper ones
                for law, m0s in (("raising", HW_M0),
                                 ("raising-degree-zero", (0,) if i < j else ())):
                    keyed = {m0: sums for m0 in m0s if (sums := keyed_signs(
                        cached_sign_table(i, j, m0, mono, params), params.rep))}
                    if not keyed:
                        continue
                    good = False
                    bad = next(((m0, m1) for m1 in window for m0 in keyed
                                if rho_mat_on_monomial(i, j, m0, m1, params, mono)), None)
                    if bad is not None:
                        x = GlqElement._of({((i, j, *bad), 0): 1}).text()
                        report.fail({"mu": weight_key(mu), "law": law, "x": x})
                    else:
                        m0, sums = next(iter(keyed.items()))
                        (mono2, r, k), c = next(iter(sums.items()))
                        deferred.append({"mu": weight_key(mu), "law": law, "sum": c,
                                         "x": GlqElement._of({((i, j, m0, 0), 0): 1}).text(),
                                         "key": [str(mono2), r, k]})
        miss = toral_mismatch(mono, mu, params)
        if miss is not None:
            good = False
            witness = {"mu": weight_key(mu), "law": "toral-eigenvalue",
                       "h": f"h[{miss[0]},{miss[1]}]"}
            (report.fail if isinstance(miss[1], int) else deferred.append)(witness)
        for (r, s) in raising_pairs(partition):
            if gl_ell_action(r, s, mono):
                report.fail({"mu": weight_key(mu), "law": "flavor-fixed",
                             "op": f"E[{r},{s}]"})
                good = False
        if monomial_weight(mono, ell) != tuple(mu):
            report.fail({"mu": weight_key(mu), "law": "flavor-weight"})
            good = False
        ok += good
    for witness in deferred:
        report.fail(witness)
    report.add_case("highest-weight", {"mus": [ok, len(mus)]}, ok, len(mus))
    return report


def nilpotency_sums(i: int, j: int, mono: Monomial, d: int,
                    params: ParameterSet) -> List[Tuple[int, Dict]]:
    """The keyed integer sums of the square of the bilinear field on one
    monomial, for each total mode K of the window with a nonzero key.

    The composite E_{i,j} t0^{k1} t1^{m1} E_{i,j} t0^{k2} t1^{m1},
    summed over k1 + k2 = K with k2 in [-K_WINDOW - 2d, 2d] and
    k1 <= 2d + 2, has one term per pair of sign-table terms (mono2, s, p, k)
    and (mono3, s', p', k'), with coefficient s s' (a_p a_p' q^{-k-k'})^{m1}.
    The sums of s s' are kept on (mono3, sorted (p, p'), k + k'), so they
    do not depend on m1.
    """
    inner = [(k2, table) for k2 in range(-K_WINDOW - 2 * d, 2 * d + 1)
             if (table := cached_sign_table(i, j, k2, mono, params))]
    out = []
    for K in range(-K_WINDOW, K_WINDOW + 1):
        sums: Dict = {}
        for k2, table in inner:
            k1 = K - k2
            if k1 > 2 * d + 2:
                continue
            for mono2, s2, p2, kk2 in table:
                for mono3, s1, p1, kk1 in cached_sign_table(i, j, k1, mono2, params):
                    key = (mono3, (p1, p2) if p1 <= p2 else (p2, p1), kk1 + kk2)
                    sums[key] = sums.get(key, 0) + s1 * s2
        sums = {key: c for key, c in sums.items() if c}
        if sums:
            out.append((K, sums))
    return out


def evaluate_sums(sums: Dict, m1: int, params: ParameterSet) -> Dict[Monomial, Fraction]:
    """The keyed sums at one m1: the coefficient of each monomial."""
    a, q = params.a, params.q
    out: Dict[Monomial, Fraction] = {}
    for (mono3, (p1, p2), k), c in sums.items():
        accumulate(out, mono3, c * qpow(a[p1 - 1] * a[p2 - 1] * qpow(q, -k), m1))
    return out


def verify_nilpotency(a: Sequence, q, N: int = 2,
                      deg_max: int = 2) -> DecompositionReport:
    """Level-one square-vanishing: the quadratic mode sums of the bilinear
    family annihilate every bounded-degree state for off-diagonal labels.

    For the off-diagonal labels the contraction partners all come from the
    target state, so both factors' mode sums truncate to [K - 2d, 2d] on a
    degree-d state; outside the reported K window every composite term is
    zero for the same reason.

    Each (i, j) takes one pass over the m1-free sign tables
    (`nilpotency_sums`): every term of the square carries the Laurent
    monomial (a_p a_p' q^{-k-k'})^{m1}, so its integer signs are summed on
    (monomial, sorted flavors, k + k').  At level one, distinct keys are
    distinct exponentials in m1 for every admitted q (all keys share the
    flavors (1, 1), and q is not 0 or +-1), so every key vanishes exactly
    when the square vanishes at every m1, which implies each of the
    N(N-1)(2 M1_WINDOW + 1) families (i, j, m1) the report counts.  A
    nonzero key is evaluated at each windowed m1 in the order m1, vector,
    K, so the report is the one a family-by-family evaluation writes; a
    key that cancels at every windowed m1 still fails the suite, and is the
    witness only when no family fails.
    """
    if len(a) != 1:
        raise InvalidParams(f"the nilpotency check needs one parameter (ell 1), got {len(a)}")
    params = ParameterSet.of(q, a, N)
    report = DecompositionReport(config={
        "suite": "nilpotency", "N": N, "ell": params.ell, "q": str(params.q),
        "a": [str(x) for x in params.a], "deg_max": deg_max,
        "m1_window": M1_WINDOW, "K_window": K_WINDOW,
    })
    monos = [m for n in range(deg_max + 1) for m in basis_monomials(n, N, params.ell)]
    window = range(-M1_WINDOW, M1_WINDOW + 1)
    ok = runs = 0
    key_witness = None
    for i, j in itertools.permutations(range(1, N + 1), 2):
        # (vector, K, nonzero keyed sums, the windowed m1 where they do not cancel)
        entries = [(mono, K, sums, {m1 for m1 in window if evaluate_sums(sums, m1, params)})
                   for mono in monos
                   for K, sums in nilpotency_sums(i, j, mono, deg_max, params)]
        runs += len(window)
        for m1 in window:
            bad = next(((mono, K) for mono, K, _, fails in entries if m1 in fails), None)
            if bad is None:
                ok += 1
            else:
                report.fail({"i": i, "j": j, "m1": m1, "K": bad[1], "vector": str(bad[0])})
        for mono, K, sums, fails in entries:
            if not fails and key_witness is None:
                (mono3, flavors, k), c = next(iter(sums.items()))
                key_witness = {"i": i, "j": j, "K": K, "vector": str(mono),
                               "key": [str(mono3), list(flavors), k], "sum": c}
    if key_witness is not None:
        report.fail(key_witness)
    report.add_case("nilpotency", {"families": [ok, runs]}, ok, runs)
    return report
