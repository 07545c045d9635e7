"""Test-side oracles of the Fock actions: an independent normal-ordering
rule and the evaluation-module form of the torus action."""
from typing import Tuple

from torusrep.fock import FockVector, rho_action
from torusrep.liealg import GlqElement, K0, K1
from torusrep.scalars import ParameterSet, qpow


def normal_order_pair_mode_criterion(m: int, n: int) -> Tuple[bool, int]:
    """Equivalent rule keyed on the psibar mode alone."""
    return (True, 1) if n >= 0 else (False, -1)


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
    for key, coeff in x.items():
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
