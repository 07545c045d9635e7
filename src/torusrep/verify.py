"""Randomized axiom and representation suites behind the CLI.

Each suite draws from a seeded generator, checks exact identities, and
returns a DecompositionReport whose witness pins the first failure.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, Sequence

from .covariant import (
    CovElement,
    K,
    KPRIME,
    cov_basis_keys,
    cov_bracket,
    theta,
    theta_inv,
)
from .duality import raising_pairs
from .fock import (
    FockVector,
    Monomial,
    basis_monomials,
    gl_ell_action,
    hw_vector,
    monomial_weight,
    rho_mat_on_monomial,
)
from .glrep import EtaFunctional, eta_eval, is_dominant
from .liealg import (
    TORAL_WINDOW,
    GlqElement,
    K0,
    K1,
    bracket,
    format_element,
    grade,
    h_gen,
    is_in_sl,
)
from .errors import InvalidParams
from .reports import DecompositionReport, weight_key
from .scalars import ParameterSet, accumulate, check_q, validate_spectrum

# Fixed windows, printed in the report configs: the t0 exponents of the
# raising generators the highest-weight suite applies, the t1 exponents
# |m1| <= M1_WINDOW of both Fock suites, and the total modes |K| <= K_WINDOW
# of the nilpotency suite.
HW_M0 = (1, 2)
M1_WINDOW = 2
K_WINDOW = 8


def sample_basis_element(rng: random.Random, N: int, max_exp: int) -> GlqElement:
    """A uniform-ish draw from the standard trace-zero basis window."""
    kind = rng.randrange(8)
    if kind == 0:
        return GlqElement.k0()
    if kind == 1:
        return GlqElement.k1()
    if kind == 2:
        r = rng.randrange(1, N)
        return (GlqElement.matrix_unit(r, r)
                - GlqElement.matrix_unit(r + 1, r + 1))
    while True:
        i, j = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        m0 = rng.randrange(-max_exp, max_exp + 1)
        m1 = rng.randrange(-max_exp, max_exp + 1)
        if (i - j, m0, m1) != (0, 0, 0):
            return GlqElement.matrix_unit(i, j, m0, m1)


class CachedAction:
    """rho with per-(generator, monomial) memoization across a suite."""

    def __init__(self, params: ParameterSet):
        self.params = params
        self._cache: Dict = {}

    def __call__(self, x: GlqElement, vec: FockVector) -> FockVector:
        acc: Dict[Monomial, Fraction] = {}
        for key, coeff in x.items():
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
                w = c * coeff
                for m2, c2 in r.items():
                    accumulate(acc, m2, w * c2)
        return FockVector._of(acc)


def verify_bracket_axioms(N: int, q, trials: int, seed: int,
                          max_exp: int = 3) -> DecompositionReport:
    """Antisymmetry, the Jacobi identity, closure, and grading additivity
    on random basis triples."""
    q = check_q(q)
    if N < 2:
        raise InvalidParams("N must be >= 2")
    rng = random.Random(seed)
    report = DecompositionReport(config={
        "suite": "bracket-axioms", "N": N, "q": str(q),
        "trials": trials, "seed": seed, "max_exp": max_exp,
    })
    ok = 0
    for t in range(trials):
        x = sample_basis_element(rng, N, max_exp)
        y = sample_basis_element(rng, N, max_exp)
        z = sample_basis_element(rng, N, max_exp)
        good = True
        if bracket(x, y, q) != -bracket(y, x, q):
            report.fail({"trial": t, "law": "antisymmetry",
                         "x": format_element(x), "y": format_element(y)})
            good = False
        jac = (bracket(x, bracket(y, z, q), q)
               + bracket(y, bracket(z, x, q), q)
               + bracket(z, bracket(x, y, q), q))
        if not jac.is_zero():
            report.fail({"trial": t, "law": "jacobi",
                         "x": format_element(x), "y": format_element(y),
                         "z": format_element(z)})
            good = False
        b = bracket(x, y, q)
        if not is_in_sl(b, N):
            report.fail({"trial": t, "law": "closure", "x": format_element(x),
                         "y": format_element(y)})
            good = False
        gx, gy = grade(x), grade(y)
        if len(gx) == 1 and len(gy) == 1 and not b.is_zero():
            (dx,), (dy,) = gx.keys(), gy.keys()
            if set(grade(b)) != {dx + dy}:
                report.fail({"trial": t, "law": "grading",
                             "x": format_element(x), "y": format_element(y)})
                good = False
        ok += good
    report.add_case("axioms", {"trials": [ok, trials]}, ok, trials)
    return report


def verify_theta_iso(N: int, q, trials: int, seed: int,
                     max_exp: int = 3) -> DecompositionReport:
    """Bracket transport under the covariant relabeling, the central pairing
    instances, and bijectivity on the basis window."""
    q = check_q(q)
    if N < 2:
        raise InvalidParams("N must be >= 2")
    rng = random.Random(seed)
    report = DecompositionReport(config={
        "suite": "theta-isomorphism", "N": N, "q": str(q),
        "trials": trials, "seed": seed, "max_exp": max_exp,
    })
    ok = 0
    for t in range(trials):
        x = sample_basis_element(rng, N, max_exp)
        y = sample_basis_element(rng, N, max_exp)
        lhs = theta(bracket(x, y, q), N, q)
        rhs = cov_bracket(theta(x, N, q), theta(y, N, q), N, q)
        if lhs == rhs:
            ok += 1
        else:
            report.fail({"trial": t, "law": "bracket-transport",
                         "x": format_element(x), "y": format_element(y)})
    report.add_case("homomorphism", {"pairs": [ok, trials]}, ok, trials)

    ok = runs = 0
    for t in range(trials // 2):
        i, j = rng.randrange(1, N + 1), rng.randrange(1, N + 1)
        m0 = rng.randrange(-max_exp, max_exp + 1)
        m1 = rng.randrange(-max_exp, max_exp + 1)
        if (i - j, m0, m1) == (0, 0, 0):
            continue
        runs += 1
        x = GlqElement.matrix_unit(i, j, m0, m1)
        y = GlqElement.matrix_unit(j, i, -m0, -m1)
        got = bracket(x, y, q)
        want = (GlqElement.matrix_unit(i, i) - GlqElement.matrix_unit(j, j)
                + GlqElement.k0(m0) + GlqElement.k1(m1)).scale(q ** (-m1 * m0))
        diag = theta(GlqElement.matrix_unit(i, i)
                     - GlqElement.matrix_unit(j, j), N, q)
        cov_want = (diag + CovElement.basis(K, m0)
                    + CovElement.basis(KPRIME, m1)).scale(q ** (-m1 * m0))
        if got == want and cov_bracket(theta(x, N, q), theta(y, N, q), N, q) == cov_want:
            ok += 1
        else:
            report.fail({"trial": t, "law": "central-instance",
                         "x": format_element(x)})
    report.add_case("central-instances", {"pairs": [ok, runs]}, ok, runs)

    ok = runs = 0
    for key in cov_basis_keys(N, max_exp):
        runs += 1
        u = CovElement.basis(key)
        if theta(theta_inv(u, N, q), N, q) == u:
            ok += 1
        else:
            report.fail({"law": "roundtrip", "key": str(key)})
    report.add_case("roundtrip", {"keys": [ok, runs]}, ok, runs)
    return report


def verify_module_property(N: int, a: Sequence, q, trials: int, seed: int,
                           deg_max: int = 2, max_exp: int = 2) -> DecompositionReport:
    """Commutator of actions against the action of the bracket on every
    basis vector of bounded degree."""
    params = ParameterSet.of(q, a, N)
    rng = random.Random(seed)
    act = CachedAction(params)
    report = DecompositionReport(config={
        "suite": "module-property", "N": N, "ell": params.ell, "q": str(params.q),
        "a": [str(x) for x in params.a], "trials": trials, "seed": seed,
        "deg_max": deg_max, "max_exp": max_exp,
    })
    basis = [FockVector.monomial(m)
             for n in range(deg_max + 1) for m in basis_monomials(n, N, params.ell)]
    ok = 0
    for t in range(trials):
        x = sample_basis_element(rng, N, max_exp)
        y = sample_basis_element(rng, N, max_exp)
        b = bracket(x, y, params.q)
        good = True
        for v in basis:
            lhs = act(x, act(y, v)) - act(y, act(x, v))
            if lhs != act(b, v):
                report.fail({"trial": t, "x": format_element(x),
                             "y": format_element(y),
                             "vector": str(v.support()[0])})
                good = False
                break
        ok += good
    report.add_case("module", {"pairs": [ok, trials],
                               "basis_size": [len(basis), len(basis)]},
                    ok, trials)
    return report


def verify_highest_weight(N: int, a: Sequence, q,
                          mu_bound: int = 2) -> DecompositionReport:
    """The product vectors are killed by the raising half, carry the stated
    toral eigenvalues, and are fixed vectors of the stated flavor weight."""
    params = ParameterSet.of(q, a, N)
    ell = params.ell
    partition = validate_spectrum(a, q)
    act = CachedAction(params)
    report = DecompositionReport(config={
        "suite": "highest-weight", "N": N, "ell": ell, "q": str(params.q),
        "a": [str(x) for x in params.a], "mu_bound": mu_bound,
        "m0_list": list(HW_M0), "m1_window": M1_WINDOW, "h_window": TORAL_WINDOW,
    })
    mus = [mu for mu in itertools.product(range(-mu_bound, mu_bound + 1), repeat=ell)
           if is_dominant(mu, partition)]
    ok = 0
    for mu in mus:
        v = hw_vector(mu, params)
        eta = EtaFunctional(tuple(mu), params.a, N, params.q)
        good = True
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                for m1 in range(-M1_WINDOW, M1_WINDOW + 1):
                    for m0 in HW_M0:
                        x = GlqElement.matrix_unit(i, j, m0, m1)
                        if not act(x, v).is_zero():
                            report.fail({"mu": weight_key(mu), "law": "raising",
                                         "x": format_element(x)})
                            good = False
                if i < j:
                    for m1 in range(-M1_WINDOW, M1_WINDOW + 1):
                        x = GlqElement.matrix_unit(i, j, 0, m1)
                        if not act(x, v).is_zero():
                            report.fail({"mu": weight_key(mu),
                                         "law": "raising-degree-zero",
                                         "x": format_element(x)})
                            good = False
        for i in range(1, N + 1):
            for n in range(-TORAL_WINDOW, TORAL_WINDOW + 1):
                h = h_gen(i, n, N, params.q)
                if act(h, v) != v.scale(eta_eval(eta, i, n)):
                    report.fail({"mu": weight_key(mu), "law": "toral-eigenvalue",
                                 "h": f"h[{i},{n}]"})
                    good = False
        for (r, s) in raising_pairs(partition):
            if not gl_ell_action(r, s, v, N).is_zero():
                report.fail({"mu": weight_key(mu), "law": "flavor-fixed",
                             "op": f"E[{r},{s}]"})
                good = False
        mono = v.support()[0]
        if monomial_weight(mono, ell) != tuple(mu):
            report.fail({"mu": weight_key(mu), "law": "flavor-weight"})
            good = False
        ok += good
    report.add_case("highest-weight", {"mus": [ok, len(mus)]}, ok, len(mus))
    return report


def verify_nilpotency(a: Sequence, q, N: int = 2,
                      deg_max: int = 2) -> DecompositionReport:
    """Level-one square-vanishing: the quadratic mode sums of the bilinear
    family annihilate every bounded-degree state for off-diagonal labels.

    For the off-diagonal labels the contraction partners all come from the
    target state, so both factors' mode sums truncate to [K - 2d, 2d] on a
    degree-d state; outside the reported K window every composite term is
    zero for the same reason.
    """
    params = ParameterSet.of(q, a, N)
    act = CachedAction(params)
    report = DecompositionReport(config={
        "suite": "nilpotency", "N": N, "ell": params.ell, "q": str(params.q),
        "a": [str(x) for x in params.a], "deg_max": deg_max,
        "m1_window": M1_WINDOW, "K_window": K_WINDOW,
    })
    basis = [FockVector.monomial(m)
             for n in range(deg_max + 1) for m in basis_monomials(n, N, params.ell)]
    ok = runs = 0
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                continue
            for m1 in range(-M1_WINDOW, M1_WINDOW + 1):
                runs += 1
                good = True
                for v in basis:
                    d = deg_max
                    inner = {k2: act(GlqElement.matrix_unit(i, j, k2, m1), v)
                             for k2 in range(-K_WINDOW - 2 * d, 2 * d + 1)}
                    for Ktot in range(-K_WINDOW, K_WINDOW + 1):
                        acc: Dict[Monomial, Fraction] = {}
                        for k2, w in inner.items():
                            if w.is_zero():
                                continue
                            k1 = Ktot - k2
                            if k1 > 2 * d + 2:
                                continue
                            y = GlqElement.matrix_unit(i, j, k1, m1)
                            for m, c in act(y, w)._terms.items():
                                accumulate(acc, m, c)
                        if acc:
                            report.fail({"i": i, "j": j, "m1": m1, "K": Ktot,
                                         "vector": str(v.support()[0])})
                            good = False
                            break
                    if not good:
                        break
                ok += good
    report.add_case("nilpotency", {"families": [ok, runs]}, ok, runs)
    return report
