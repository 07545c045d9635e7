"""Exact rational scalars, sparse rational vectors, the (q, a) parameter
data, and genericity checks.

Every coefficient in the package is an exact rational: a
`fractions.Fraction`, or an `int` where a term is keyed by its power of q
(the two Lie algebras) or a sum counts signs.  No floating point
arithmetic occurs anywhere.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import InvalidParams, InvalidQ, NotGeneric

Rational = Union[int, str, Fraction]

ONE = Fraction(1)
NEG_ONE = Fraction(-1)


def as_scalar(x: Rational) -> Fraction:
    """Coerce ints, Fractions, or "p/r" strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise InvalidParams(f"not an exact rational: {x!r}")


def accumulate(terms: Dict, key: Hashable, c) -> None:
    """terms[key] += c, keeping terms free of zeros: the key is dropped when
    the sum vanishes, and a zero c on an absent key stores nothing."""
    prev = terms.get(key)
    if prev is None:
        if c:
            terms[key] = c
        return
    s = prev + c
    if s:
        terms[key] = s
    else:
        del terms[key]


class SparseVector:
    """Immutable finite rational combination of hashable basis keys.

    ``_terms`` maps each key to its nonzero coefficient, a `Fraction`, or
    an `int` on the keyed elements of the two Lie algebras.
    Subclasses name the basis: they add constructors, ``_order``, the sort
    key on items (None for the keys' natural order), and ``_name``, the
    text of one key (None for a subclass with its own ``__repr__``).
    Vectors of different subclasses are never equal, and adding or
    subtracting them raises `TypeError`.
    """

    __slots__ = ("_terms",)
    _order: Optional[Callable] = None
    _name: Optional[Callable] = None

    def __init__(self, terms: Optional[Dict[Hashable, Rational]] = None):
        clean = {}
        for k, c in (terms or {}).items():
            c = as_scalar(c)
            if c != 0:
                clean[k] = c
        self._terms = clean

    @classmethod
    def _of(cls, terms: Dict[Hashable, Fraction]):
        """Wrap, without copying or checking, a dict of nonzero Fractions."""
        v = cls.__new__(cls)
        v._terms = terms
        return v

    @classmethod
    def zero(cls):
        return cls._of({})

    def items(self) -> Iterator[Tuple[Hashable, Fraction]]:
        """The terms sorted by ``_order``: a sort on every call, so for
        output (text forms, witnesses); inner loops iterate ``_terms``."""
        return iter(sorted(self._terms.items(), key=self._order))

    def is_zero(self) -> bool:
        return not self._terms

    def text(self) -> str:
        """The terms in order as "key", "-key" or "c*key", joined by " + "
        with "+ -" written "- "; "0" for the zero vector."""
        if not self._terms:
            return "0"
        parts = []
        for k, c in self.items():
            name = self._name(k)
            parts.append(name if c == 1 else f"-{name}" if c == -1 else f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"{type(self).__name__}({self.text()!r})"

    def __add__(self, other: "SparseVector"):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            accumulate(out, k, c)
        return self._of(out)

    def __sub__(self, other: "SparseVector"):
        if type(other) is not type(self):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self._of({k: -c for k, c in self._terms.items()})

    def scale(self, c: Rational):
        c = as_scalar(c)
        if c == 0:
            return self._of({})
        return self._of({k: c * v for k, v in self._terms.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))


def qpow(q: Fraction, n: int) -> Fraction:
    """q**n for any integer n, exactly."""
    return Fraction(q) ** n


def at_q(terms: Dict[Tuple[Hashable, int], Rational], q: Fraction) -> Dict[Hashable, Fraction]:
    """The value at q of terms keyed by (basis key, q-exponent e): each
    basis key's nonzero sum of c q^e."""
    out: Dict[Hashable, Fraction] = {}
    for (key, e), c in terms.items():
        accumulate(out, key, c * qpow(q, e) if e else c)
    return out


def split_index(m: int, N: int) -> Tuple[int, int]:
    """(d, r) with m = N*d + r and 1 <= r <= N."""
    d, r = divmod(m - 1, N)
    return d, r + 1


def check_q(q: Fraction) -> Fraction:
    q = as_scalar(q)
    if q in (0, 1, -1):
        raise InvalidQ(f"q = {q} is excluded")
    return q


class SetPartition:
    """A set partition of {1, ..., ell}; blocks sorted, ordered by minimum.
    Equal and hashed by its blocks."""

    def __init__(self, blocks: Tuple[Tuple[int, ...], ...]):
        self.blocks = blocks

    def __eq__(self, other) -> bool:
        return type(other) is SetPartition and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    @staticmethod
    def of(blocks: Sequence[Sequence[int]]) -> "SetPartition":
        norm = tuple(sorted((tuple(sorted(b)) for b in blocks), key=min))
        seen = set()
        for b in norm:
            if not b:
                raise InvalidParams("empty block")
            seen.update(b)
        ell = sum(len(b) for b in norm)
        if seen != set(range(1, ell + 1)):
            raise InvalidParams(f"blocks {norm} do not partition 1..{ell}")
        return SetPartition(norm)

    @staticmethod
    def full(ell: int) -> "SetPartition":
        return SetPartition((tuple(range(1, ell + 1)),))

    @property
    def ell(self) -> int:
        return sum(len(b) for b in self.blocks)

    def block_of(self, i: int) -> Tuple[int, ...]:
        for b in self.blocks:
            if i in b:
                return b
        raise KeyError(i)

    def shifted(self, offset: int) -> "SetPartition":
        return SetPartition(tuple(tuple(i + offset for i in b) for b in self.blocks))

    def union(self, other: "SetPartition") -> "SetPartition":
        """Disjoint union; `other` is re-indexed to start after self."""
        return SetPartition.of(list(self.blocks) + list(other.shifted(self.ell).blocks))

    def power(self, m: int) -> "SetPartition":
        """The partition {k*ell + B} of {1..m*ell} made of m shifted copies."""
        ell = self.ell
        blocks = [tuple(k * ell + i for i in b) for k in range(m) for b in self.blocks]
        return SetPartition.of(blocks)

    def describe(self) -> str:
        return "blocks=" + str([list(b) for b in self.blocks])


class ParameterSet:
    """The specialization data (q, a_1..a_ell) for a fixed N >= 2; ``ell`` is
    the number of parameters, and ``rep[p - 1]`` the first flavor whose
    parameter is a_p.

    ``signs`` and ``powers`` are tables filled on first use: ``signs``
    maps (i, j, m0, monomial) to its sign table (`fock.cached_sign_table`,
    read by the torus action and the suites), ``powers`` maps (p, k, m1)
    to (a_p q^{-k})^{m1} and m1 to the diagonal scalar of
    `fock.rho_mat_on_monomial`.  Equality and hashing read (q, a, N) only,
    so each suite, which builds its own instance, starts with empty tables."""

    def __init__(self, q: Fraction, a: Tuple[Fraction, ...], N: int):
        self.q, self.a, self.N, self.ell = q, a, N, len(a)
        self.rep = [a.index(x) + 1 for x in a]
        self.signs: Dict = {}
        self.powers: Dict = {}
        check_q(q)
        if N < 2:
            raise InvalidParams("N must be >= 2")
        if not a:
            raise InvalidParams("need at least one parameter a_p")
        if any(x == 0 for x in a):
            raise InvalidParams("all a_p must be nonzero")

    def __eq__(self, other) -> bool:
        return (type(other) is ParameterSet
                and (self.q, self.a, self.N) == (other.q, other.a, other.N))

    def __hash__(self):
        return hash((self.q, self.a, self.N))

    @staticmethod
    def of(q: Rational, a: Sequence[Rational], N: int) -> "ParameterSet":
        return ParameterSet(as_scalar(q), tuple(as_scalar(x) for x in a), N)


def gamma_q_exponent(x: Rational, q: Rational) -> Optional[int]:
    """Return n with x == q**n, or None if x is not in the cyclic group of q.

    For rational q with |q| not in {0, 1} the exponent is unique; the search
    is bounded because |q|**n is monotone in n: it walks n from 0 in the
    direction that moves |q|**n toward |x|, and compares exactly at each
    step until |q|**n passes |x|.
    """
    x = as_scalar(x)
    q = check_q(q)
    if x == 0:
        raise InvalidParams("x must be nonzero")
    up = abs(x) >= 1
    step = 1 if up == (abs(q) > 1) else -1
    acc, n = Fraction(1), 0
    while abs(acc) <= abs(x) if up else abs(acc) >= abs(x):
        if acc == x:
            return n
        acc, n = acc * q ** step, n + step
    return None


def validate_spectrum(a: Sequence[Rational], q: Rational) -> SetPartition:
    """Check the genericity condition on (a_1..a_ell) and return its partition.

    For every pair, either a_i == a_j or a_i/a_j is not an integer power
    of q.  Violations raise NotGeneric(i, j, n) with a_i = q^n a_j, n > 0.
    """
    q = check_q(q)
    vals = [as_scalar(x) for x in a]
    if any(v == 0 for v in vals):
        raise InvalidParams("all a_p must be nonzero")
    ell = len(vals)
    for i, j in itertools.permutations(range(1, ell + 1), 2):
        if vals[i - 1] == vals[j - 1]:
            continue
        n = gamma_q_exponent(vals[i - 1] / vals[j - 1], q)
        if n is not None and n > 0:
            raise NotGeneric(i, j, n)
    blocks: Dict[int, List[int]] = {}     # by the first index of the value
    for i, x in enumerate(vals, start=1):
        blocks.setdefault(vals.index(x), []).append(i)
    return SetPartition.of(list(blocks.values()))
