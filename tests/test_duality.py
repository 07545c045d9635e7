from fractions import Fraction

import pytest

from fock_oracles import weight_spaces_oracle
from torusrep.duality import (
    FlavorTables,
    fixed_dim,
    fixed_space,
    joint_hw_dim,
    lattice_parameters,
    phi_gen,
    phi_vector,
    raising_pairs,
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
    graded_dim,
    hw_degree,
    psi,
    psibar,
)
from torusrep.scalars import ParameterSet, SetPartition, validate_spectrum


def test_fixed_space_examples():
    params = ParameterSet.of(2, [3], 2)
    part = SetPartition.discrete(1)
    got = fixed_space(part, weight_spaces(0, FlavorTables(2, 1))[(1,)], params.N)
    assert len(got) == 2
    assert {v.support()[0] for v in got} == {
        (psi(1, 1, 0, 2),), (psi(2, 1, 0, 2),)}

    assert fixed_dim(part, weight_spaces(0, FlavorTables(2, 1))[(0,)], params.N) == 1

    params2 = ParameterSet.of(2, [3, 3], 2)
    part2 = SetPartition.full(2)
    got = fixed_space(part2, weight_spaces(0, FlavorTables(2, 2))[(1, 1)], params2.N)
    assert len(got) == 3
    # the kernel relation: the two mixed-label coefficients must agree
    for v in got:
        c12 = v.coeff((psi(1, 1, 0, 2), psi(2, 2, 0, 2)))
        c21 = v.coeff((psi(2, 1, 0, 2), psi(1, 2, 0, 2)))
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
    params = ParameterSet.of(2, [3, 3], 2)
    part = SetPartition.full(2)
    for deg in (0, 1):
        spaces = weight_spaces(deg, FlavorTables(2, 2))
        for w in sorted(spaces):
            vecs = fixed_space(part, spaces[w], params.N)
            for v in vecs:
                for (r, s) in [(1, 2)]:
                    assert gl_ell_action(r, s, v, 2).is_zero()
                for p in (1, 2):
                    ev = gl_ell_action(p, p, v, 2)
                    assert ev == v.scale(w[p - 1])


def test_fixed_space_dimension_identity_small():
    # complete reducibility bookkeeping at one degree
    params = ParameterSet.of(2, [3, 3], 2)
    part = SetPartition.full(2)
    from torusrep.glrep import is_dominant, levi_dim
    for n in (0, 1):
        total = 0
        spaces = weight_spaces(n, FlavorTables(2, 2))
        for w in sorted(spaces):
            if not is_dominant(w, part):
                continue
            total += fixed_dim(part, spaces[w], params.N) * levi_dim(w, part)
        assert total == graded_dim(n, 2, 2)


def test_fixed_dim_matches_weight_count_oracle():
    # for a single rank-two block the highest-weight multiplicity is the
    # difference of two plain weight-space dimensions; no elimination at all
    for N, ell in [(2, 2), (3, 2)]:
        params = ParameterSet.of(2, [3, 3], N)
        part = SetPartition.full(2)
        for n in (0, 1, 2):
            spaces = weight_spaces(n, FlavorTables(N, ell))
            for w in sorted(spaces):
                if w[0] < w[1]:
                    continue
                raised = (w[0] + 1, w[1] - 1)
                oracle = len(spaces.get(w, [])) - len(spaces.get(raised, []))
                assert fixed_dim(part, spaces[w], params.N) == oracle


def hw_slice(mu, params):
    """The weight-mu slice at the degree of the product vector."""
    spaces = weight_spaces(hw_degree(mu, params), FlavorTables(params.N, params.ell))
    return spaces.get(tuple(mu), [])


def test_joint_hw_dim_examples():
    params = ParameterSet.of(2, [3], 2)
    assert joint_hw_dim((1,), hw_slice((1,), params), params) == 1
    assert joint_hw_dim((0,), hw_slice((0,), params), params) == 1
    params2 = ParameterSet.of(2, [3, 3], 2)
    assert joint_hw_dim((1, 1), hw_slice((1, 1), params2), params2) == 1


@pytest.mark.parametrize("mu", [(-2,), (-1,), (0,), (1,), (2,), (3,)])
def test_joint_hw_dim_single_flavor_window(mu):
    params = ParameterSet.of(2, [3], 2)
    assert joint_hw_dim(mu, hw_slice(mu, params), params) == 1


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
    aa, qq = lattice_parameters([3], 2, 2, 1)
    assert aa == (Fraction(3), Fraction(3, 2))
    assert qq == 4
    part = validate_spectrum(aa, qq)
    assert part.blocks == ((1,), (2,))


def test_lattice_parameters_borderline_generic():
    # (1, 1/2) under q^2 = 4: 1/2 is not a power of 4, so generic even
    # though 1/2 is a power of q itself
    aa, qq = lattice_parameters([1], 2, 2, 1)
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
