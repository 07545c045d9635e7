"""Regression sweep over configurations beyond the acceptance points:
higher degrees, a third flavor, mixed partitions, deeper refolds, and a
cross-configuration consistency check through the functional equivalence."""
import pytest

from glrep_oracles import eta_equiv
from torusrep.duality import (
    FlavorTables,
    fixed_dim,
    verify_lattice_intertwiner,
    verify_levi_branching,
    verify_skew_duality,
    verify_tensor_branching,
    weight_spaces,
)
from torusrep.fock import hw_degree
from torusrep.glrep import EtaFunctional
from torusrep.scalars import ParameterSet, validate_spectrum


@pytest.mark.parametrize("N,ell,a,n_max", [
    (2, 1, [3], 4),
    (2, 3, [3, 3, 3], 1),
    (2, 3, [3, 3, 5], 1),
    (3, 2, [3, 3], 1),
])
def test_skew_duality_extended(N, ell, a, n_max):
    rep = verify_skew_duality(N, a, 2, n_max)
    assert rep.passed, rep.witness
    assert rep.config["ell"] == ell


@pytest.mark.parametrize("ell,ellp,a,b,n_max", [
    (1, 1, [3], [3], 2),
    (2, 1, [3, 3], [3], 1),
    (2, 1, [3, 5], [5], 1),
])
def test_tensor_branching_extended(ell, ellp, a, b, n_max):
    rep = verify_tensor_branching(2, a, b, 2, n_max)
    assert rep.passed, rep.witness
    assert (rep.config["ell"], rep.config["ellp"]) == (ell, ellp)


@pytest.mark.parametrize("bfN,ell,a,n_max", [
    ((2, 2), 1, [3], 2),
    ((2, 2, 2), 1, [3], 1),
    ((2, 2), 2, [3, 3], 1),
])
def test_levi_branching_extended(bfN, ell, a, n_max):
    rep = verify_levi_branching(bfN, a, 2, n_max)
    assert rep.passed, rep.witness
    assert rep.config["ell"] == ell


@pytest.mark.parametrize("N,ell,M0,M1,a", [
    (2, 1, 3, 1, [3]),
    (2, 1, 2, 2, [3]),
    (3, 1, 2, 1, [3]),
    (2, 2, 2, 1, [3, 5]),
])
def test_lattice_intertwiner_extended(N, ell, M0, M1, a):
    rep = verify_lattice_intertwiner(N, M0, M1, a, 2, n_max=1,
                                     trials=40, seed=2)
    assert rep.passed, rep.witness
    assert rep.config["ell"] == ell


@pytest.mark.parametrize("mu,a,nu,b", [
    ((1,), [3], (3,), [6]),
    ((0,), [3], (2,), [6]),
    ((-1,), [3], (1,), [6]),
    ((2,), [5], (4,), [10]),
])
def test_equivalent_data_share_graded_dimensions(mu, a, nu, b):
    # equal highest-weight functionals realize isomorphic graded modules,
    # so the multiplicity-space dimensions agree after aligning the ambient
    # offsets, even though the two Fock configurations differ
    q, N = 2, 2
    assert eta_equiv(EtaFunctional.of(mu, a, N, q),
                     EtaFunctional.of(nu, b, N, q))
    pa, pb = ParameterSet.of(q, a, N), ParameterSet.of(q, b, N)
    Ia, Ib = validate_spectrum(a, q), validate_spectrum(b, q)
    da, db = hw_degree(mu, pa), hw_degree(nu, pb)
    ta, tb = FlavorTables(N, len(a)), FlavorTables(N, len(b))
    for t in range(4):
        slice_a = weight_spaces(da + t, ta).get(mu, [])
        slice_b = weight_spaces(db + t, tb).get(nu, [])
        assert fixed_dim(Ia, slice_a, N) == fixed_dim(Ib, slice_b, N)
