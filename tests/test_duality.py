import json
from fractions import Fraction

import pytest

import torusrep.duality as duality
from fock_oracles import (
    coeff,
    image_rows,
    joint_hw_dim_oracle,
    lift,
    phi_vector_oracle,
    toral_mismatch_oracle,
    type_fixed_dim_oracle,
    weight_spaces_oracle,
    with_stray_term,
)
from torusrep.cli import main
from torusrep.duality import (
    TORAL_WINDOW,
    FlavorTables,
    _block_upper_ops,
    component_type,
    fixed_dim,
    fixed_space,
    joint_hw_dim,
    lattice_parameters,
    phi_gen,
    phi_vector,
    raising_pairs,
    toral_mismatch,
    verify_skew_duality,
    verify_tensor_branching,
    verify_levi_branching,
    verify_lattice_intertwiner,
    weight_spaces,
)
from torusrep.errors import InvalidParams, NotGeneric, PartitionMismatch
from torusrep.fock import (
    FockVector,
    basis_monomials,
    gl_ell_action,
    glbar_action,
    graded_dim,
    hw_degree,
    hw_monomial,
    psi,
    psibar,
)
from torusrep.glrep import is_dominant
from torusrep.linalg import nullspace
from torusrep.scalars import ParameterSet, SetPartition, validate_spectrum
from torusrep.verify import verify_highest_weight


def test_fixed_space_examples():
    part = SetPartition.of([[1]])
    got = fixed_space(part, weight_spaces(0, FlavorTables(2, 1))[(1,)])
    assert len(got) == 2
    assert {v.support()[0] for v in got} == {
        (psi(1, 1, 0, 2),), (psi(2, 1, 0, 2),)}

    assert len(fixed_space(part, weight_spaces(0, FlavorTables(2, 1))[(0,)])) == 1

    part2 = SetPartition.full(2)
    got = fixed_space(part2, weight_spaces(0, FlavorTables(2, 2))[(1, 1)])
    assert len(got) == 3
    # the kernel relation: the two mixed-label coefficients must agree
    for v in got:
        c12 = coeff(v, (psi(1, 1, 0, 2), psi(2, 2, 0, 2)))
        c21 = coeff(v, (psi(2, 1, 0, 2), psi(1, 2, 0, 2)))
        assert c12 == c21


def _count_enumerations(monkeypatch):
    import torusrep.duality as duality
    calls = []

    def counting(n, N, ell):
        calls.append((n, N, ell))
        return basis_monomials(n, N, ell)

    monkeypatch.setattr(duality, "basis_monomials", counting)
    return calls


def test_skew_duality_enumerates_each_degree_once(monkeypatch):
    # only one-flavor monomials are enumerated, never the full ell, and
    # each degree once per suite call; the highest-weight checks reuse them
    calls = _count_enumerations(monkeypatch)
    n_max = 3
    for check_hw in (False, True):
        calls.clear()
        rep = verify_skew_duality(N=2, a=(3, 3), q=2, n_max=n_max,
                                  check_hw=check_hw)
        assert rep.passed, rep.witness
        assert calls == [(n, 2, 1) for n in range(n_max + 1)]


def test_branching_suites_enumerate_each_degree_once(monkeypatch):
    # one set of one-flavor tables per rank: the Levi suite enumerates
    # each (degree, rank) of the factors and of the big slice once
    calls = _count_enumerations(monkeypatch)
    rep = verify_tensor_branching(2, [3], [3], 2, 2)
    assert rep.passed, rep.witness
    assert calls == [(n, 2, 1) for n in range(3)]
    calls.clear()
    rep = verify_levi_branching([2, 1], [3, 3], 2, 2)
    assert rep.passed, rep.witness
    assert sorted(calls) == [(n, N, 1) for n in range(3) for N in (1, 2, 3)]


@pytest.mark.parametrize("N,ell", [(2, 1), (2, 2), (3, 1), (3, 2), (2, 3)])
def test_weight_spaces_match_grouping_oracle(N, ell):
    # slices assembled from the per-flavor tables against the full
    # monomial list grouped by weight: same weights, same order per slice
    tables = FlavorTables(N, ell)
    for n in range(5):
        oracle = weight_spaces_oracle(n, N, ell)
        got = weight_spaces(n, tables)
        assert got == oracle
        assert weight_spaces(n, FlavorTables(N, ell)) == got
        # a filtered call returns exactly the requested nonempty slices
        weights = sorted(oracle)
        absent = tuple([n + 1] + [0] * (ell - 1))
        for wanted in (weights[::2], weights[-1:], [absent], []):
            filtered = weight_spaces(n, tables, set(wanted).__contains__)
            assert filtered == {w: oracle[w] for w in wanted if w in oracle}


def test_fixed_space_killed_and_weighted():
    # re-verify the defining properties by direct application
    part = SetPartition.full(2)
    for deg in (0, 1):
        spaces = weight_spaces(deg, FlavorTables(2, 2))
        for w in sorted(spaces):
            vecs = fixed_space(part, spaces[w])
            for v in vecs:
                for (r, s) in [(1, 2)]:
                    assert lift(gl_ell_action, r, s, v).is_zero()
                for p in (1, 2):
                    ev = lift(gl_ell_action, p, p, v)
                    assert ev == v.scale(w[p - 1])


def test_fixed_space_dimension_identity_small():
    # complete reducibility bookkeeping at one degree
    part = SetPartition.full(2)
    from torusrep.glrep import is_dominant, levi_dim
    memo = {}
    for n in (0, 1):
        total = 0
        spaces = weight_spaces(n, FlavorTables(2, 2))
        for w in sorted(spaces):
            if not is_dominant(w, part):
                continue
            total += fixed_dim(part, spaces[w], memo) * levi_dim(w, part)
        assert total == graded_dim(n, 2, 2)


def test_fixed_dim_matches_weight_count_oracle():
    # for a single rank-two block the highest-weight multiplicity is the
    # difference of two plain weight-space dimensions; no elimination at all
    for N, ell in [(2, 2), (3, 2)]:
        part = SetPartition.full(2)
        memo = {}
        for n in (0, 1, 2):
            spaces = weight_spaces(n, FlavorTables(N, ell))
            for w in sorted(spaces):
                if w[0] < w[1]:
                    continue
                raised = (w[0] + 1, w[1] - 1)
                oracle = len(spaces.get(w, [])) - len(spaces.get(raised, []))
                assert fixed_dim(part, spaces[w], memo) == oracle


def memo_route(N, partition, n_max, keep=None):
    """Per dominant slice of degrees 0..n_max, with the weights dominant for
    ``keep`` (default: the partition) listed, as in the suites:
    (degree, weight, slice, memoised count), and the memo they filled."""
    keep = keep or partition
    tables = FlavorTables(N, partition.ell)
    memo, out = {}, []
    for n in range(n_max + 1):
        spaces = weight_spaces(n, tables, lambda w: is_dominant(w, keep))
        for w, monos in spaces.items():
            if is_dominant(w, partition):
                out.append((n, w, monos, fixed_dim(partition, monos, memo)))
    return out, memo


ROUTE_CASES = [(2, [3, 3], 6), (3, [3, 3], 4), (2, [3, 3, 3], 4),
               (2, [3, 3, 5], 3), (2, [3, 3, 5, 5], 3)]


@pytest.mark.parametrize("N,a,n_max", ROUTE_CASES)
def test_memoised_count_matches_whole_slice_elimination(N, a, n_max):
    # each dominant slice: one elimination per (weight, component type)
    # against the kernel of the whole slice
    partition = validate_spectrum(a, 2)
    slices, memo = memo_route(N, partition, n_max)
    assert memo
    for n, w, monos, count in slices:
        assert count == len(fixed_space(partition, monos)), (n, w)


def test_memoised_count_matches_on_tensor_branching_slices():
    # the slices verify_tensor_branching(2, [3], [3], 2, 3) reads: the
    # product-dominant ones, counted for the merged and the product partition
    merged = validate_spectrum([3, 3], 2)
    prod = validate_spectrum([3], 2).union(validate_spectrum([3], 2))
    assert verify_tensor_branching(2, [3], [3], 2, 3).passed
    for partition in (merged, prod):
        slices, _ = memo_route(2, partition, 3, keep=prod)
        for n, w, monos, count in slices:
            assert count == len(fixed_space(partition, monos)), (n, w)


@pytest.mark.parametrize("N,a,n_max", [(2, [3, 3], 6), (3, [3, 3], 4),
                                       (2, [3, 3, 3], 4), (2, [3, 3, 5], 4),
                                       (2, [3, 3, 5, 5], 3)])
def test_memo_entries_match_pieri_oracle(N, a, n_max):
    # every (weight, type) the count eliminated, against the Pieri / LR
    # multiplicity of its Levi module
    partition = validate_spectrum(a, 2)
    _, memo = memo_route(N, partition, n_max)
    assert any(memo.values())
    for (w, ctype), dim in memo.items():
        assert dim == type_fixed_dim_oracle(w, ctype, partition), (w, ctype)


def test_component_type_records_kind_and_blocks():
    # psi site -3 holds a block-0 and a block-1 generator, psi site -5 and
    # psibar site -1 one of block 0 each; where the sites are is forgotten
    profile = ((0, -5, 0), (0, -3, 0), (0, -3, 1), (1, -1, 0))
    assert component_type(profile) == ((0, 0), (0, 0, 1), (1, 0))
    assert component_type(((0, -9, 0), (0, -2, 0), (0, -2, 1), (1, -4, 0))) \
        == component_type(profile)


@pytest.mark.parametrize("coarser,a", [
    (lambda t: tuple(sorted(site[1:] for site in t)), [3, 3, 3]),
    (lambda t: tuple(sorted((site[0],) + (0,) * (len(site) - 1) for site in t)),
     [3, 3, 5]),
])
def test_a_coarser_type_key_is_caught(monkeypatch, coarser, a):
    # dropping the kind of a site (harmless for rank-two blocks, where
    # Lambda^k* = Lambda^(2-k) x det^-1, but not for rank three), or merging
    # the blocks, lets one elimination stand for a different module
    monkeypatch.setattr(duality, "component_type",
                        lambda profile: coarser(component_type(profile)))
    partition = validate_spectrum(a, 2)
    slices, _ = memo_route(2, partition, 4)
    assert any(count != len(fixed_space(partition, monos))
               for _, _, monos, count in slices)
    assert not verify_skew_duality(2, a, 2, 4, check_hw=False).passed


def hw_slice_dim(mu, params):
    """`joint_hw_dim` on the weight-mu slice at the degree of the product
    vector."""
    spaces = weight_spaces(hw_degree(mu, params), FlavorTables(params.N, params.ell))
    return joint_hw_dim(mu, spaces.get(tuple(mu), []), params,
                        validate_spectrum(params.a, params.q))


def test_joint_hw_dim_examples():
    params = ParameterSet.of(2, [3], 2)
    assert hw_slice_dim((1,), params) == 1
    assert hw_slice_dim((0,), params) == 1
    params2 = ParameterSet.of(2, [3, 3], 2)
    assert hw_slice_dim((1, 1), params2) == 1


@pytest.mark.parametrize("mu", [(-2,), (-1,), (0,), (1,), (2,), (3,)])
def test_joint_hw_dim_single_flavor_window(mu):
    params = ParameterSet.of(2, [3], 2)
    assert hw_slice_dim(mu, params) == 1


@pytest.mark.parametrize("q", [2, Fraction(5, 2)])
@pytest.mark.parametrize("N,a,n_max", [(2, [3, 3], 5), (3, [3, 3], 4),
                                       (2, [3, 3, 3], 4), (2, [3, 5], 4),
                                       (2, [3], 5)])
def test_joint_hw_dim_matches_whole_slice_route(N, a, n_max, q):
    # the eigenvalue filter against the whole-slice route (raising-fixed
    # basis, then the upper and toral images on it), on every dominant
    # slice at the degree hw_degree(w) of its product vector and one above
    params = ParameterSet.of(q, a, N)
    partition = validate_spectrum(a, q)
    tables = FlavorTables(N, len(a))
    answers = set()
    for n in range(n_max + 1):
        spaces = weight_spaces(n, tables, lambda w: is_dominant(w, partition))
        for w, monos in spaces.items():
            above = n - hw_degree(w, params)
            if above <= 1:
                got = joint_hw_dim(w, monos, params, partition)
                assert got == joint_hw_dim_oracle(w, monos, params), (n, w)
                answers.add((above, got))
    assert answers == {(0, 1), (1, 0)}


@pytest.mark.parametrize("N,a", [(2, [3, 3]), (3, [3, 3]), (2, [3, 5]), (3, [3, 5])])
def test_toral_mismatch_matches_the_element_route(N, a):
    # the eigenvalues read off the diagonal units against h_{i,n} built as
    # an element acting on a one-term vector: the full return value on
    # every monomial of the dominant slices to degree 3, against the eta of
    # the slice weight; the product vectors match every eigenvalue
    params = ParameterSet.of(2, a, N)
    partition = validate_spectrum(a, 2)
    tables = FlavorTables(N, len(a))
    answers = set()
    for n in range(4):
        for w, monos in weight_spaces(n, tables, lambda w: is_dominant(w, partition)).items():
            for m in monos:
                got = toral_mismatch(m, w, params)
                assert got == toral_mismatch_oracle(m, w, params), (m, w)
                answers.add(got)
    assert None in answers and len(answers) > 2, answers


def _upper_kernel(vectors, ops):
    """Basis of the vectors of span(vectors) killed by every (flavors, A, B)
    unit of ops."""
    rows = []
    for flavors, A, B in ops:
        rows.extend(image_rows([lift(glbar_action, A, B, v, flavors) for v in vectors]))
    return [sum((vectors[c].scale(x) for c, x in k.items()), FockVector.zero())
            for k in nullspace(rows, len(vectors))]


@pytest.mark.parametrize("N,a", [(2, [3, 3]), (3, [3, 3]), (2, [3, 5])])
def test_simple_upper_roots_have_the_nullity_of_all_upper_pairs(N, a):
    # the generation claim of _block_upper_ops apart from the toral filter
    # of joint_hw_dim, on every dominant slice to degree 3: on the
    # raising-fixed basis, every upper pair A < B of the window kills the
    # kernel of the simple roots, so raising pairs with all upper pairs
    # leave the nullity of raising pairs with the simple roots; the upper
    # side binds on some slices
    partition = validate_spectrum(a, 2)
    tables = FlavorTables(N, len(a))
    binds = 0
    for n in range(4):
        lo, hi = 1 - n * N, (n + 1) * N
        upper = [(block, A, B) for block in partition.blocks
                 for A in range(lo, hi + 1) for B in range(A + 1, hi + 1)]
        for w, monos in weight_spaces(n, tables, lambda w: is_dominant(w, partition)).items():
            base = fixed_space(partition, monos)
            simple = _upper_kernel(base, _block_upper_ops(partition, n, N))
            assert len(_upper_kernel(simple, upper)) == len(simple), (n, w)
            binds += len(simple) < len(base)
    assert binds


@pytest.mark.parametrize("N,a", [(2, [3, 3]), (3, [3, 3]), (2, [3, 5])])
def test_raising_and_upper_units_give_distinct_targets(N, a):
    # _term_rows writes each term of a column into the row of its target,
    # so on every dominant slice to degree 3 each raising pair and each
    # simple upper unit must send a monomial to pairwise distinct
    # monomials; a diagonal unit E_{p,p} puts all its terms on the monomial
    # itself, so the check can fail
    partition = validate_spectrum(a, 2)
    tables = FlavorTables(N, len(a))
    repeats = 0
    for n in range(4):
        ops = _block_upper_ops(partition, n, N)
        for monos in weight_spaces(n, tables, lambda w: is_dominant(w, partition)).values():
            for m in monos:
                images = ([gl_ell_action(r, s, m) for r, s in raising_pairs(partition)]
                          + [glbar_action(A, B, m, flavors) for flavors, A, B in ops])
                for terms in images:
                    targets = [t[0] for t in terms]
                    assert len(set(targets)) == len(targets), (n, m, terms)
                for p in range(1, len(a) + 1):
                    targets = [t[0] for t in gl_ell_action(p, p, m)]
                    repeats += len(set(targets)) < len(targets)
    assert repeats


def test_a_shifted_eigenvalue_fails_the_hw_check(monkeypatch):
    # eta(h_{1,n}) with one more term, (a_1 q^{-2})^n, leaves no monomial
    # of the product-vector slice with matching eigenvalues
    real = duality.toral_scalars

    def shifted(mu, i, params):
        out = real(mu, i, params)
        if i == 1:
            out[1, 2] = out.get((1, 2), 0) - 1
        return out

    monkeypatch.setattr(duality, "toral_scalars", shifted)
    rep = verify_skew_duality(2, [3, 3], 2, 3)
    assert not rep.passed
    assert rep.witness["joint_hw_dim"] == 0


def test_an_off_diagonal_toral_image_fails_the_hw_check(monkeypatch, capsys):
    # a toral image with a term off its monomial is an identity failure:
    # exit 1 with a witness, never a pass or a traceback
    monkeypatch.setattr(duality, "cached_sign_table", with_stray_term(
        duality.cached_sign_table, (psi(1, 1, -9, 2),), {(1, 1, 0), (2, 2, 0)}))
    code = main(["verify-duality", "--N", "2", "--ell", "2", "--a", "3,3",
                 "--n-max", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["verdict"] == "fail"
    assert "off its line" in report["witness"]["joint_hw_dim"]


def _dropped_scalar_term(real):
    """`toral_scalars` without the term sum_p (a_p q)^n of h_{N,n}."""
    def patched(mu, i, params):
        out = real(mu, i, params)
        if i == params.N:
            for r in params.rep:
                out[r, -1] -= 1
        return out
    return patched


def _shifted_k(real):
    """A sign-table function whose E_{1,1} t0^0 tables have the q-exponent
    k of their first term raised by one."""
    def patched(i, j, m0, mono, params):
        table = real(i, j, m0, mono, params)
        if (i, j, m0) != (1, 1, 0) or not table:
            return table
        (mono2, s, p, k), *rest = table
        return ((mono2, s, p, k + 1), *rest)
    return patched


@pytest.mark.parametrize("mutation,window,mu,h,weight", [
    ("dropped-scalar-term", TORAL_WINDOW, "(-1,-1)", "h[2,-3]", "(0,0)"),
    ("dropped-scalar-term", 0, "(-1,-1)", "h[2,0]", "(0,0)"),
    ("shifted-k", TORAL_WINDOW, "(1,-1)", "h[1,-3]", "(1,0)"),
    ("shifted-k", 0, "(1,-1)", "h[1,(1,0):-1]", "(1,0)"),
])
def test_each_toral_mutation_fails_beyond_the_window(monkeypatch, mutation, window,
                                                     mu, h, weight):
    # the toral law is proven at every n: dropping the (a_p q)^n term of
    # h_{N,n}, or shifting one k by one, fails the highest-weight suite and
    # the joint highest-weight check of a product vector's slice, also with
    # the window shrunk to n = 0, where the shifted k cancels and only a
    # nonzero key, (block 1, k = 0) with sum -1, names the failure
    if mutation == "dropped-scalar-term":
        monkeypatch.setattr(duality, "toral_scalars", _dropped_scalar_term(duality.toral_scalars))
    else:
        monkeypatch.setattr(duality, "cached_sign_table",
                            _shifted_k(duality.cached_sign_table))
    monkeypatch.setattr(duality, "TORAL_WINDOW", window)
    hw = verify_highest_weight(2, [3, 3], 2, mu_bound=1)
    assert hw.witness == {"mu": mu, "law": "toral-eigenvalue", "h": h}
    rep = verify_skew_duality(2, [3, 3], 2, 2)
    assert rep.witness == {"degree": 0, "weight": weight, "joint_hw_dim": 0, "expected": 1}


@pytest.mark.parametrize("N,a,n_max", [(2, [3, 3], 5), (3, [3], 3),
                                       (2, [3, 3, 5], 3)])
def test_dominant_weight_first_met_at_hw_degree(N, a, n_max):
    # verify_skew_duality checks each weight's joint highest-weight space
    # on the slice it has listed at hw_degree(w): the weight-w slices are
    # empty below that degree, and there the slice holds the product vector
    params = ParameterSet.of(2, a, N)
    partition = validate_spectrum(a, 2)
    tables = FlavorTables(N, len(a))
    by_degree = [weight_spaces(n, tables, lambda w: is_dominant(w, partition))
                 for n in range(n_max + 1)]
    met = set().union(*by_degree)
    assert met
    for w in met:
        n0 = hw_degree(w, params)
        assert min(n for n, spaces in enumerate(by_degree) if w in spaces) == n0
        assert hw_monomial(w) in by_degree[n0][w]


def test_skew_duality_basic():
    rep = verify_skew_duality(2, [3], 2, 2)
    assert rep.passed
    d0 = rep.degrees[0]
    assert d0["table"] == {"(0)": [1, 1], "(1)": [2, 1], "(2)": [1, 1]}
    assert d0["lhs"] == d0["rhs"] == 4


def test_skew_duality_more_configs():
    assert verify_skew_duality(2, [3, 5], 2, 1).passed
    assert verify_skew_duality(3, [3], 2, 1).passed
    assert verify_skew_duality(2, [3, 3], 2, 1).passed


def test_skew_duality_not_generic():
    with pytest.raises(NotGeneric):
        verify_skew_duality(2, [3, 6], 2, 1)


@pytest.mark.parametrize("q", [2, 3, Fraction(5, 2)])
def test_specialization_robustness(q):
    # the same identities hold at independent deformation parameters
    assert verify_skew_duality(2, [3], q, 1).passed
    assert verify_skew_duality(2, [3, 3], q, 1).passed
    assert verify_tensor_branching(2, [3], [3], q, 1).passed


def test_tensor_branching_worked_identity():
    rep = verify_tensor_branching(2, [3], [3], 2, 0)
    assert rep.passed
    table = rep.degrees[0]["table"]
    assert table["(1)|(1)"] == [4, 4]


def test_tensor_branching_configs():
    assert verify_tensor_branching(2, [3], [3], 2, 1).passed
    assert verify_tensor_branching(2, [3], [5], 2, 1).passed


def test_tensor_branching_unrelated_blocks_trivial():
    # distinct blocks: the merged Levi is the product, D is a Kronecker delta
    rep = verify_tensor_branching(2, [3], [5], 2, 0)
    assert rep.passed
    for entry in rep.degrees:
        for key, (lhs, rhs) in entry["table"].items():
            assert lhs == rhs


def test_levi_branching_configs():
    assert verify_levi_branching((2, 2), [3], 2, 1).passed
    rep = verify_levi_branching((2, 3), [3], 2, 1)
    assert rep.passed
    # vacuum component matches at degree zero
    assert rep.degrees[0]["table"]["(0)"][0] == rep.degrees[0]["table"]["(0)"][1]


def test_lattice_parameters():
    aa, qq = lattice_parameters(ParameterSet.of(2, [3], 2), 2, 1)
    assert aa == (Fraction(3), Fraction(3, 2))
    assert qq == 4
    part = validate_spectrum(aa, qq)
    assert part.blocks == ((1,), (2,))


def test_lattice_parameters_borderline_generic():
    # (1, 1/2) under q^2 = 4: 1/2 is not a power of 4, so generic even
    # though 1/2 is a power of q itself
    aa, qq = lattice_parameters(ParameterSet.of(2, [1], 2), 2, 1)
    assert aa == (Fraction(1), Fraction(1, 2))
    part = validate_spectrum(aa, qq)
    assert part.blocks == ((1,), (2,))
    rep = verify_lattice_intertwiner(2, 2, 1, [1], 2, n_max=1,
                                     trials=30, seed=5)
    assert rep.passed


def test_phi_gen_and_vector():
    N, ell, M0 = 2, 1, 2
    # flavor 2 = k*ell+p with k=1, p=1
    g = psi(1, 2, 0, N)
    assert phi_gen(g, ell, M0, N) == psi(1, 1, -1, N)
    gb = psibar(1, 2, 0, N)
    assert phi_gen(gb, ell, M0, N) == psibar(1, 1, 1, N)
    v = FockVector.monomial((psi(1, 1, 0, N), psi(1, 2, 0, N)))
    w = phi_vector(v, ell, M0, N)
    assert len(w.support()) == 1
    mono = w.support()[0]
    assert set(mono) == {psi(1, 1, 0, N), psi(1, 1, -1, N)}


def test_phi_vector_involution_identity():
    # M0 = 1, M1 = 1 is the identity refolding
    N, ell = 2, 2
    for n in (0, 1):
        for m in basis_monomials(n, N, ell):
            v = FockVector.monomial(m)
            assert phi_vector(v, ell, 1, N) == v


@pytest.mark.parametrize("N,ell,M0", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_phi_vector_matches_insertion_sort_oracle(N, ell, M0):
    for n in range(3):
        for m in basis_monomials(n, N, M0 * ell):
            v = FockVector.monomial(m)
            assert phi_vector(v, ell, M0, N) == phi_vector_oracle(v, ell, M0, N), m


def test_lattice_intertwiner_passes():
    rep = verify_lattice_intertwiner(2, 2, 1, [3], 2, n_max=1,
                                     trials=60, seed=11)
    assert rep.passed


def test_lattice_intertwiner_identity_fold():
    rep = verify_lattice_intertwiner(2, 1, 1, [3], 2, n_max=1,
                                     trials=20, seed=3)
    assert rep.passed


def test_lattice_intertwiner_rejects_bad_parameters():
    # a = (3, 3/2) at q=2 is already non-generic on the small side
    with pytest.raises(NotGeneric):
        verify_lattice_intertwiner(2, 2, 1, [3, Fraction(3, 2)], 2)
    # a = (3, -3) is generic at q=2, but squaring with M1=2 merges the two
    # blocks, breaking the required partition shape
    with pytest.raises(PartitionMismatch):
        verify_lattice_intertwiner(2, 1, 2, [3, -3], 2)


def test_raising_pairs():
    part = SetPartition.of([[1, 3, 4], [2]])
    assert raising_pairs(part) == [(1, 3), (3, 4)]


@pytest.mark.parametrize("a,b", [([], [3]), ([3], []), ([], [])])
def test_tensor_branching_refuses_an_empty_side(a, b):
    # with no flavor on one side there is no product to branch to
    with pytest.raises(InvalidParams):
        verify_tensor_branching(2, a, b, 2, 1)
