"""The two-cocycle extended matrix algebra over the quantum 2-torus.

Elements are finite rational combinations of the basis
E_{i,j} t0^m0 t1^m1 (a matrix unit times a torus monomial) together with
the two central generators k0, k1.  The bracket implements

    [E_{i,j} t0^m0 t1^m1, E_{k,l} t0^n0 t1^n1]
        = d_{j,k} q^{m1*n0} E_{i,l} t0^{m0+n0} t1^{m1+n1}
        - d_{i,l} q^{n1*m0} E_{k,j} t0^{m0+n0} t1^{m1+n1}
        + d_{j,k} d_{i,l} d_{m0+n0,0} d_{m1+n1,0} q^{m1*n0} (m0 k0 + m1 k1).
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

from .errors import NotInSl
from .scalars import Rational, SparseVector, accumulate, as_scalar, qpow

K0 = "k0"
K1 = "k1"
MatKey = Tuple[int, int, int, int]
Key = Union[MatKey, str]


def mat_key(i: int, j: int, m0: int = 0, m1: int = 0) -> MatKey:
    if i < 1 or j < 1:
        raise ValueError("matrix indices are 1-based")
    return (i, j, m0, m1)


class GlqElement(SparseVector):
    """Immutable finite linear combination over the monomial basis."""

    __slots__ = ()

    @staticmethod
    def _order(item):
        k = item[0]
        if k == K0:
            return (0,)
        if k == K1:
            return (1,)
        return (2,) + k

    @staticmethod
    def matrix_unit(i: int, j: int, m0: int = 0, m1: int = 0,
                    coeff: Rational = 1) -> "GlqElement":
        return GlqElement({mat_key(i, j, m0, m1): coeff})

    @staticmethod
    def k0(coeff: Rational = 1) -> "GlqElement":
        return GlqElement({K0: coeff})

    @staticmethod
    def k1(coeff: Rational = 1) -> "GlqElement":
        return GlqElement({K1: coeff})

    def __repr__(self):
        return f"GlqElement({format_element(self)!r})"


def _sl_defect(x: GlqElement, N: int) -> Fraction:
    """Trace of the (t0, t1)-degree-(0,0) diagonal part."""
    tr = Fraction(0)
    for k, c in x.items():
        if isinstance(k, tuple):
            i, j, m0, m1 = k
            if i > N or j > N:
                raise NotInSl(f"index out of range for N={N}: {k}")
            if i == j and m0 == 0 and m1 == 0:
                tr += c
    return tr


def is_in_sl(x: GlqElement, N: int) -> bool:
    try:
        return _sl_defect(x, N) == 0
    except NotInSl:
        return False


def require_sl(x: GlqElement, N: int) -> None:
    if _sl_defect(x, N) != 0:
        raise NotInSl("degree-(0,0) diagonal part has nonzero trace")


def bracket(x: GlqElement, y: GlqElement, q: Rational) -> GlqElement:
    """Bilinear extension of the defining commutator; k0, k1 are central."""
    q = as_scalar(q)
    out: Dict[Key, Fraction] = {}
    for kx, cx in x.items():
        if not isinstance(kx, tuple):
            continue
        i, j, m0, m1 = kx
        for ky, cy in y.items():
            if not isinstance(ky, tuple):
                continue
            k, l, n0, n1 = ky
            c = cx * cy
            if j == k:
                accumulate(out, (i, l, m0 + n0, m1 + n1), c * qpow(q, m1 * n0))
            if i == l:
                accumulate(out, (k, j, m0 + n0, m1 + n1), -c * qpow(q, n1 * m0))
            if j == k and i == l and m0 + n0 == 0 and m1 + n1 == 0:
                w = c * qpow(q, m1 * n0)
                accumulate(out, K0, w * m0)
                accumulate(out, K1, w * m1)
    return GlqElement._of(out)


# The highest-weight checks test the toral generators h_{i,n} with
# |n| <= TORAL_WINDOW.
TORAL_WINDOW = 3


def h_gen(i: int, n: int, N: int, q: Rational = None) -> GlqElement:
    """The toral generator h_{i,n} (three defining cases).

    The i = N, n != 0 case carries the coefficient -q^n, so it needs the
    specialized q.
    """
    if not 1 <= i <= N:
        raise ValueError("need 1 <= i <= N")
    if i < N:
        return (GlqElement.matrix_unit(i, i, 0, n)
                - GlqElement.matrix_unit(i + 1, i + 1, 0, n))
    if n == 0:
        return (GlqElement.k0()
                - GlqElement.matrix_unit(1, 1)
                + GlqElement.matrix_unit(N, N))
    if q is None:
        raise ValueError("h_{N,n} with n != 0 depends on q")
    return (GlqElement.matrix_unit(1, 1, 0, n, -qpow(as_scalar(q), n))
            + GlqElement.matrix_unit(N, N, 0, n))


def grade(x: GlqElement) -> Dict[int, GlqElement]:
    """Split into homogeneous parts: E t0^m0 t1^m1 sits in degree -m0."""
    parts: Dict[int, Dict[Key, Fraction]] = {}
    for k, c in x.items():
        d = -k[2] if isinstance(k, tuple) else 0
        parts.setdefault(d, {})[k] = c
    return {d: GlqElement._of(t) for d, t in sorted(parts.items())}


def triangular_split(x: GlqElement, N: int) -> Tuple[GlqElement, GlqElement, GlqElement]:
    """Decompose x = plus + zero + minus along the triangular decomposition.

    plus:  m0 >= 1, or m0 == 0 with i < j
    minus: m0 <= -1, or m0 == 0 with i > j
    zero:  m0 == 0 diagonal terms plus k0, k1 (the toral subalgebra).
    """
    require_sl(x, N)
    plus: Dict[Key, Fraction] = {}
    zero: Dict[Key, Fraction] = {}
    minus: Dict[Key, Fraction] = {}
    for k, c in x.items():
        if not isinstance(k, tuple):
            zero[k] = c
            continue
        i, j, m0, _ = k
        if m0 >= 1:
            plus[k] = c
        elif m0 <= -1:
            minus[k] = c
        elif i < j:
            plus[k] = c
        elif i > j:
            minus[k] = c
        else:
            zero[k] = c
    return GlqElement._of(plus), GlqElement._of(zero), GlqElement._of(minus)


def cartan_coordinates(x: GlqElement, N: int, q: Rational) -> Tuple[Dict[Tuple[int, int], Fraction], Fraction]:
    """Coordinates of a toral element in the h_{i,n} basis plus k1.

    Inverts, per t1-degree n, the change of basis between the diagonal
    units E_{i,i} t1^n and the h_{i,n}; exact because q^n != 1 for n != 0.
    """
    q = as_scalar(q)
    diag: Dict[int, Dict[int, Fraction]] = {}
    k0c = Fraction(0)
    k1c = Fraction(0)
    for k, c in x.items():
        if k == K0:
            k0c = c
            continue
        if k == K1:
            k1c = c
            continue
        i, j, m0, m1 = k
        if i != j or m0 != 0:
            raise NotInSl("not a toral element")
        diag.setdefault(m1, {})[i] = c
    coords: Dict[Tuple[int, int], Fraction] = {}
    # n = 0 slice: x_N is forced by the k0 coefficient via h_{N,0}.
    c0 = diag.get(0, {})
    if k0c != 0 or c0:
        cvec = [c0.get(i, Fraction(0)) for i in range(1, N + 1)]
        cvec[0] += k0c
        cvec[N - 1] -= k0c
        if sum(cvec) != 0:
            raise NotInSl("degree-(0,0) diagonal trace is nonzero")
        if k0c != 0:
            coords[(N, 0)] = k0c
        acc = Fraction(0)
        for r in range(1, N):
            acc += cvec[r - 1]
            if acc != 0:
                coords[(r, 0)] = acc
    for n, cs in sorted(diag.items()):
        if n == 0:
            continue
        cvec = [cs.get(i, Fraction(0)) for i in range(1, N + 1)]
        qn = qpow(q, n)
        # solve x_1 - q^n x_N = c_1, x_i - x_{i-1} = c_i (2<=i<N), x_N - x_{N-1} = c_N
        tail = sum(cvec[1:], Fraction(0))
        x1 = (cvec[0] + qn * tail) / (1 - qn)
        xs = [x1]
        for i in range(2, N + 1):
            xs.append(xs[-1] + cvec[i - 1])
        for i, xi in enumerate(xs, start=1):
            if xi != 0:
                coords[(i, n)] = xi
    return coords, k1c


def from_cartan_coordinates(coords: Dict[Tuple[int, int], Fraction], k1c: Fraction,
                            N: int, q: Rational) -> GlqElement:
    out = dict(GlqElement.k1(k1c)._terms)
    for (i, n), c in coords.items():
        for k, v in h_gen(i, n, N, q)._terms.items():
            accumulate(out, k, as_scalar(c) * v)
    return GlqElement._of(out)


# -- text form -------------------------------------------------------------

_MAT_RE = re.compile(r"^E\[(-?\d+),(-?\d+)\](?:\*t0\^(-?\d+))?(?:\*t1\^(-?\d+))?$")


def format_element(x: GlqElement) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for k, c in x.items():
        if k == K0:
            mono = "k0"
        elif k == K1:
            mono = "k1"
        else:
            i, j, m0, m1 = k
            mono = f"E[{i},{j}]"
            if m0:
                mono += f"*t0^{m0}"
            if m1:
                mono += f"*t1^{m1}"
        if c == 1:
            parts.append(mono)
        elif c == -1:
            parts.append(f"-{mono}")
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


def parse_element(s: str) -> GlqElement:
    """Parse the format produced by format_element."""
    s = s.strip()
    if s == "0":
        return GlqElement.zero()
    s = s.replace("- ", "+ -")
    out: Dict[Key, Fraction] = {}
    for chunk in s.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:].strip()
        coeff = Fraction(1)
        if "*" in chunk and not chunk.startswith("E["):
            head, chunk = chunk.split("*", 1)
            coeff = as_scalar(head)
        elif chunk not in ("k0", "k1") and not chunk.startswith("E["):
            # bare scalar times nothing is not a valid monomial
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff *= sign
        if chunk in (K0, K1):
            accumulate(out, chunk, coeff)
        else:
            m = _MAT_RE.match(chunk)
            if not m:
                raise ValueError(f"cannot parse term {chunk!r}")
            i, j = int(m.group(1)), int(m.group(2))
            m0 = int(m.group(3) or 0)
            m1 = int(m.group(4) or 0)
            accumulate(out, mat_key(i, j, m0, m1), coeff)
    return GlqElement._of(out)


def basis_elements(N: int, max_exp: int) -> Iterable[GlqElement]:
    """The standard basis with |m0|, |m1| <= max_exp (finite window)."""
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            for m0 in range(-max_exp, max_exp + 1):
                for m1 in range(-max_exp, max_exp + 1):
                    if i == j and m0 == 0 and m1 == 0:
                        continue
                    yield GlqElement.matrix_unit(i, j, m0, m1)
    for r in range(1, N):
        yield GlqElement.matrix_unit(r, r) - GlqElement.matrix_unit(r + 1, r + 1)
    yield GlqElement.k0()
    yield GlqElement.k1()
