"""Test-side oracles and helpers of the Fock module: an independent
normal-ordering rule and the bilinear built on it, the evaluation-module
form of the torus action, generator words, the vacuum and coefficient
lookup of sparse vectors, the one-monomial flavor units lifted to Fock
vectors and their coefficient rows, the text form of Fock vectors, the weight
slices of a degree grouped from the full monomial list, the Pieri / LR
count of a component type's fixed dimension, the highest-weight functional
eta and the toral law on one monomial point by point, through the diagonal
units and through the toral generators as elements, the point-by-point
route of the highest-weight suite, the whole-slice route of the joint
highest-weight dimension, the insertion-sort refolding, the
family-by-family route of the nilpotency suite, the memoised-action
route of the module suite, and a stray-term mutation of the sign tables."""
import itertools
import random
from fractions import Fraction
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from torusrep.duality import TORAL_WINDOW, fixed_space, phi_gen, raising_pairs
from torusrep.errors import InvalidParams
from torusrep.fock import (
    PSI,
    FockVector,
    Gen,
    Monomial,
    _gen_on_monomial,
    basis_monomials,
    gen_label,
    gen_mode,
    gl_ell_action,
    glbar_action,
    hw_degree,
    hw_monomial,
    monomial_weight,
    psi,
    psibar,
    rho_action,
    rho_mat_on_monomial,
)
from torusrep.glrep import is_dominant, lr_coeff, trim
from torusrep.liealg import GlqElement, K0, K1, bracket
from torusrep.linalg import nullspace
from torusrep.reports import DecompositionReport, weight_key
from torusrep.scalars import (
    NEG_ONE,
    ONE,
    ParameterSet,
    SetPartition,
    SparseVector,
    accumulate,
    qpow,
    split_index,
    validate_spectrum,
)
from torusrep.verify import (
    HW_M0, K_WINDOW, M1_WINDOW, CachedAction, sample_basis_element)

from glrep_oracles import partitions_with_bound
from liealg_oracles import h_gen


def normal_order_pair_mode_criterion(m: int, n: int) -> Tuple[bool, int]:
    """Ordering rule for :psi(m) psibar(n): keyed on the psibar mode alone,
    returned as (psi_first, sign)."""
    return (True, 1) if n >= 0 else (False, -1)


def bilinear_mode_criterion(i: int, p: int, m: int, j: int, pb: int, n: int,
                            mono: Monomial, N: int) -> Optional[Tuple[int, Monomial]]:
    """:psi_i^p(m) psibar_j^pb(n): on one monomial under the mode-criterion
    rule, as two single-generator steps; at most one term."""
    psi_first, sign = normal_order_pair_mode_criterion(m, n)
    a, b = psi(i, p, m, N), psibar(j, pb, n, N)
    for g in ((b, a) if psi_first else (a, b)):
        step = _gen_on_monomial(g, mono)
        if step is None:
            return None
        sign, mono = sign * step[0], step[1]
    return (sign, mono)


def rho_action_tensor_oracle(x: GlqElement, params: ParameterSet,
                             vec: FockVector) -> FockVector:
    """Evaluation-module oracle: act factor by factor with the one-flavor
    level-one action at a = 1, weighting flavor p by a_p^{m1}.

    The bilinear operators are even, so splitting a monomial by flavor and
    reassembling introduces no sign.
    """
    N, ell, q, a = params.N, params.ell, params.q, params.a
    one = ParameterSet.of(q, [1], N)
    out = FockVector.zero()
    for (key, e), coeff in x.items():
        coeff *= qpow(q, e)
        if key == K0:
            out = out + vec.scale(coeff * ell)
            continue
        if key == K1:
            continue
        i, j, m0, m1 = key
        for mono, c in vec._terms.items():
            parts = {p: tuple((1, kind, idx) for (pp, kind, idx) in mono if pp == p)
                     for p in range(1, ell + 1)}
            for p in range(1, ell + 1):
                acted = rho_action(GlqElement.matrix_unit(i, j, m0, m1),
                                   one, FockVector.monomial(parts[p]))
                for sub, cs in acted._terms.items():
                    rebuilt = sorted(
                        [(p, kind, idx) for (_, kind, idx) in sub]
                        + [g for g in mono if g[0] != p])
                    out = out + FockVector.monomial(
                        tuple(rebuilt), c * cs * coeff * qpow(a[p - 1], m1))
    return out


def vacuum() -> FockVector:
    return FockVector.monomial(())


def coeff(vec: SparseVector, key: Hashable) -> Fraction:
    """The coefficient of one basis key, zero when absent."""
    return vec._terms.get(key, Fraction(0))


def apply_word(gens: Sequence[Gen], vec: FockVector) -> FockVector:
    """Apply a product of generators, rightmost factor first, through the
    single-generator kernel that every bilinear of `torusrep.fock` runs."""
    for g in reversed(gens):
        out: Dict[Monomial, Fraction] = {}
        for mono, c in vec._terms.items():
            step = _gen_on_monomial(g, mono)
            if step is not None:
                sign, mono2 = step
                accumulate(out, mono2, c if sign == 1 else -c)
        vec = FockVector._of(out)
        if vec.is_zero():
            break
    return vec


def lift(unit: Callable[..., Sequence[tuple]], x: int, y: int, vec: FockVector,
         *rest) -> FockVector:
    """A one-monomial unit of `torusrep.fock`, whose terms (monomial, sign,
    ...) on a monomial are unit(x, y, monomial, *rest) (``gl_ell_action`` or
    ``glbar_action``), applied to a Fock vector: monomial by monomial in the
    vector's order, each term in the unit's order, with terms that land on
    one monomial summed."""
    out: Dict[Monomial, Fraction] = {}
    for mono, c in vec._terms.items():
        for term in unit(x, y, mono, *rest):
            accumulate(out, term[0], c if term[1] == 1 else -c)
    return FockVector._of(out)


def image_rows(images: Sequence[FockVector]) -> List[Dict[int, Fraction]]:
    """Sparse rows of the coefficient matrix of the images: one row per
    target monomial, in order of first appearance; column c holds the
    coefficients of images[c]."""
    rows: Dict[Monomial, Dict[int, Fraction]] = {}
    for c, v in enumerate(images):
        for m, coeff in v._terms.items():
            rows.setdefault(m, {})[c] = coeff
    return list(rows.values())


def format_gen(g: Gen, N: int) -> str:
    name = "psi" if g[1] == PSI else "psibar"
    return f"{name}[{gen_label(g, N)},{g[0]}]({gen_mode(g, N)})"


def format_monomial(m: Monomial, N: int) -> str:
    if not m:
        return "|0>"
    return "*".join(format_gen(g, N) for g in m) + "|0>"


def vector_to_json(vec: FockVector, N: int) -> Dict[str, str]:
    return {format_monomial(m, N): str(c) for m, c in vec.items()}


def weight_spaces_oracle(n: int, N: int, ell: int
                         ) -> Dict[Tuple[int, ...], List[Monomial]]:
    """Every degree-n monomial of all ell flavors, grouped by flavor weight
    in sorted order."""
    out: Dict[Tuple[int, ...], List[Monomial]] = {}
    for m in basis_monomials(n, N, ell):
        out.setdefault(monomial_weight(m, ell), []).append(m)
    return out


def type_fixed_dim_oracle(w: Sequence[int], ctype: Sequence[Tuple[int, ...]],
                          partition: SetPartition) -> int:
    """The raising-fixed dimension at weight w of a site-occupation
    component of type ``ctype`` (the key of `torusrep.duality.component_type`:
    per occupied site, its kind followed by the blocks of its generators),
    counted with no Fock action and no elimination.

    As a module of the Levi group, the component is the outer product over
    the blocks B, of rank r, of the tensor product over the sites of
    Lambda^k(C^r) (a psi site holding k generators of B) or its dual (a
    psibar site).  With Lambda^k(C^r)^* = Lambda^(r-k)(C^r) x det^(-1), the
    fixed dimension is the product over the blocks of the multiplicity of
    the partition w|B + (J, ..., J), J the number of dual factors, in a
    product of column shapes, each factor taken by `glrep.lr_coeff` (the
    Pieri rule).

    A counting oracle must never become the production route: with
    singleton blocks a left side built only from counts turns the duality
    check into an identity between two generating functions, and proves
    nothing about the Fock module.
    """
    total = 1
    for b, block in enumerate(partition.blocks):
        r = len(block)
        columns, duals = [], 0
        for kind, *blocks in ctype:
            k = blocks.count(b)
            if k and kind != PSI:
                duals += 1
                k = r - k
            if k:
                columns.append(k)
        target = [w[p - 1] + duals for p in block]
        if target[-1] < 0:
            return 0
        products = {(): 1}
        for k in columns:
            out: Dict[Tuple[int, ...], int] = {}
            for mu, m in products.items():
                for nu in partitions_with_bound(sum(mu) + k, r, target[0]):
                    if all(x <= t for x, t in zip(nu, target)):
                        c = lr_coeff(mu, (1,) * k, nu)
                        if c:
                            out[nu] = out.get(nu, 0) + m * c
            products = out
        total *= products.get(trim(target), 0)
    return total


def eta_eval(mu: Sequence[int], i: int, n: int, params: ParameterSet) -> Fraction:
    """The highest-weight functional of (mu, a, N, q) on the toral generator
    h_{i,n}: the sum of (a_k q^{-mudot_k})^n over the k with mudd_k = i.
    Its value on k1 is zero."""
    if len(mu) != params.ell:
        raise InvalidParams("mu must have length ell")
    if not 1 <= i <= params.N:
        raise InvalidParams("need 1 <= i <= N")
    total = Fraction(0)
    for m, ak in zip(mu, params.a):
        mudot, mudd = split_index(m, params.N)
        if mudd == i:
            total += qpow(ak * qpow(params.q, -mudot), n)
    return total


def toral_mismatch_windowed(mono: Monomial, mu: Sequence[int], params: ParameterSet
                            ) -> Optional[Tuple[int, int, bool]]:
    """`torusrep.duality.toral_mismatch` point by point: for each (i, n) of
    the window, i outer, n inner, the eigenvalue is read off the images of
    the diagonal units E_{j,j} t1^n (`rho_mat_on_monomial`) in Fractions
    and compared with `eta_eval`; the first (i, n) that fails, and whether
    a unit's image left the monomial's line.  No keying by characters, so
    nothing is proven outside the window."""
    N = params.N
    for i in range(1, N + 1):
        for n in range(-TORAL_WINDOW, TORAL_WINDOW + 1):
            if i < N:       # E_{i,i} t1^n - E_{i+1,i+1} t1^n
                units, value = ((i, ONE), (i + 1, NEG_ONE)), 0
            elif n:         # -q^n E_{1,1} t1^n + E_{N,N} t1^n
                units, value = ((1, -qpow(params.q, n)), (N, ONE)), 0
            else:           # k0 - E_{1,1} + E_{N,N}, where k0 acts as ell
                units, value = ((1, NEG_ONE), (N, ONE)), params.ell
            for j, c in units:
                image = rho_mat_on_monomial(j, j, 0, n, params, mono)
                if any(m != mono for m in image):
                    return i, n, True
                value += c * image.get(mono, 0)
            if value != eta_eval(mu, i, n, params):
                return i, n, False
    return None


def highest_weight_oracle(N: int, a: Sequence, q, mu_bound: int = 2,
                          monomial: Callable[[Sequence[int]], Monomial] = hw_monomial
                          ) -> DecompositionReport:
    """`torusrep.verify.verify_highest_weight` point by point: every raising
    unit at every (m0, m1) of the windows is applied to the product
    monomial (``monomial(mu)``) in Fractions, and the toral law is
    `toral_mismatch_windowed`.  The same report when every law holds or a
    windowed point fails."""
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
    ok = 0
    for mu in mus:
        mono = monomial(mu)
        good = True
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                for law, m0s in (("raising", HW_M0),
                                 ("raising-degree-zero", (0,) if i < j else ())):
                    for m1 in range(-M1_WINDOW, M1_WINDOW + 1):
                        for m0 in m0s:
                            if rho_mat_on_monomial(i, j, m0, m1, params, mono):
                                x = GlqElement._of({((i, j, m0, m1), 0): 1}).text()
                                report.fail({"mu": weight_key(mu), "law": law, "x": x})
                                good = False
        miss = toral_mismatch_windowed(mono, mu, params)
        if miss is not None:
            report.fail({"mu": weight_key(mu), "law": "toral-eigenvalue",
                         "h": f"h[{miss[0]},{miss[1]}]"})
            good = False
        for (r, s) in raising_pairs(partition):
            if gl_ell_action(r, s, mono):
                report.fail({"mu": weight_key(mu), "law": "flavor-fixed",
                             "op": f"E[{r},{s}]"})
                good = False
        if monomial_weight(mono, ell) != tuple(mu):
            report.fail({"mu": weight_key(mu), "law": "flavor-weight"})
            good = False
        ok += good
    report.add_case("highest-weight", {"mus": [ok, len(mus)]}, ok, len(mus))
    return report


def with_stray_term(real: Callable, stray: Monomial, units) -> Callable:
    """A sign-table function like ``real`` (``cached_sign_table``) whose
    tables of the units (i, j, m0) in ``units`` gain the term (stray, +1,
    flavor 1, k = 0): a mutation that sends a monomial to ``stray``."""
    def patched(i, j, m0, mono, params):
        table = real(i, j, m0, mono, params)
        return table + ((stray, 1, 1, 0),) if (i, j, m0) in units else table
    return patched


def toral_mismatch_oracle(mono: Monomial, mu: Sequence[int], params: ParameterSet
                          ) -> Optional[Tuple[int, int, bool]]:
    """`torusrep.duality.toral_mismatch` through the toral generators as
    elements: for each (i, n), i outer, n inner, h_{i,n} (`h_gen`) acts on
    the one-term vector of the monomial through `rho_action`, and its whole
    image must be eta(h_{i,n}) times the monomial; the first (i, n) that
    fails, and whether its image left the monomial's line."""
    v = FockVector.monomial(mono)
    for i in range(1, params.N + 1):
        for n in range(-TORAL_WINDOW, TORAL_WINDOW + 1):
            image = rho_action(h_gen(i, n, params.N), params, v)
            off_line = any(m != mono for m in image.support())
            if off_line or coeff(image, mono) != eta_eval(mu, i, n, params):
                return i, n, off_line
    return None


def joint_hw_dim_oracle(mu: Sequence[int], monos: Sequence[Monomial],
                        params: ParameterSet) -> int:
    """`torusrep.duality.joint_hw_dim` by the whole-slice route: the
    raising-fixed basis of the slice (`fixed_space`), then one elimination
    of the images of every strictly-upper block unit E_{A,B}, A < B, of the
    mode window 1 - d*N .. (d + 1)*N at the degree d = hw_degree(mu), and of
    every h_{i,n} - eta(h_{i,n}), on that basis.  It makes no use of the
    toral generators acting diagonally, nor of the upper units being
    generated by the simple ones."""
    partition = validate_spectrum(params.a, params.q)
    N = params.N
    base = fixed_space(partition, monos)
    if not base:
        return 0
    rows = []
    d = hw_degree(mu, params)
    lo, hi = 1 - d * N, (d + 1) * N
    for flavors in partition.blocks:
        for A in range(lo, hi + 1):
            for B in range(A + 1, hi + 1):
                rows.extend(image_rows([lift(glbar_action, A, B, v, flavors) for v in base]))
    for i in range(1, N + 1):
        for n in range(-TORAL_WINDOW, TORAL_WINDOW + 1):
            h = h_gen(i, n, N)
            val = eta_eval(mu, i, n, params)
            images = [rho_action(h, params, v) - v.scale(val) for v in base]
            rows.extend(image_rows(images))
    return len(nullspace(rows, len(base)))


def phi_vector_oracle(vec: FockVector, ell: int, M0: int, N: int) -> FockVector:
    """`torusrep.duality.phi_vector` by insertion sort: relabel each
    generator, sort the word by adjacent transpositions and flip the sign
    at each one."""
    out: Dict[Monomial, Fraction] = {}
    for mono, c in vec.items():
        arr = [phi_gen(g, ell, M0, N) for g in mono]
        sign = 1
        for t in range(1, len(arr)):
            u = t
            while u > 0 and arr[u - 1] > arr[u]:
                arr[u - 1], arr[u] = arr[u], arr[u - 1]
                sign = -sign
                u -= 1
        assert all(arr[t] < arr[t + 1] for t in range(len(arr) - 1))
        accumulate(out, tuple(arr), c * sign)
    return FockVector._of(out)


def nilpotency_oracle(a: Sequence, q, N: int, deg_max: int) -> DecompositionReport:
    """`torusrep.verify.verify_nilpotency` family by family: for each
    (i, j, m1), vector and K, the square of the bilinear field is summed in
    exact arithmetic through the memoised action and must vanish.  The same
    mode windows and truncation; no keying by Laurent exponents."""
    if len(a) != 1:
        raise InvalidParams(f"the nilpotency check needs one parameter (ell 1), got {len(a)}")
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
    d = deg_max
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j:
                continue
            for m1 in range(-M1_WINDOW, M1_WINDOW + 1):
                runs += 1
                good = True
                for v in basis:
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


def module_property_oracle(N: int, a: Sequence, q, trials: int, seed: int,
                           deg_max: int = 2, max_exp: int = 2) -> DecompositionReport:
    """`torusrep.verify.verify_module_property` through the memoised action
    on both sides: rho(x)rho(y)v - rho(y)rho(x)v is summed in exact
    arithmetic with its scalar parts (the diagonal scalar, k0 acting as
    ell), against rho([x, y])v.  The same draws and basis; no keying."""
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
        b = bracket(x, y)
        good = True
        for v in basis:
            lhs = act(x, act(y, v)) - act(y, act(x, v))
            if lhs != act(b, v):
                report.fail({"trial": t, "x": x.text(), "y": y.text(),
                             "vector": str(v.support()[0])})
                good = False
                break
        ok += good
    report.add_case("module", {"pairs": [ok, trials],
                               "basis_size": [len(basis), len(basis)]},
                    ok, trials)
    return report
