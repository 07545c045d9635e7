"""Exact nullspace extraction by sparse fraction-free elimination.

Rows are cleared to integers and stored as ``{column: value}`` dicts with
their content (the gcd of the entries) removed.  Each row is reduced
against the pivot rows, keyed by leading column, by integer combinations
that cancel the leading entry; a row that is not cancelled becomes a new
pivot.  Each pivot column is then cleared from the other pivot rows, and
every kernel vector is read straight off the reduced rows.

Column c is a pivot exactly when it is not in the span of the columns
before it, so the pivot set, and with it the normalised kernel basis, does
not depend on the row order or on the elimination route.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

SparseRow = Dict[int, int]


def _primitive(row: SparseRow) -> SparseRow:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g <= 1:
        return row
    return {c: v // g for c, v in row.items()}


def _sparse_rows(rows: Sequence[Sequence[Fraction]]) -> List[SparseRow]:
    out = []
    for row in rows:
        entries = {c: x for c, x in enumerate(row) if x}
        if entries:
            denom = lcm(*(x.denominator for x in entries.values()))
            out.append(_primitive({c: x.numerator * (denom // x.denominator)
                                   for c, x in entries.items()}))
    return out


def _cancel(row: SparseRow, pivot: SparseRow, c: int) -> SparseRow:
    """The primitive integer combination of row and pivot with no entry in
    column c."""
    g = gcd(row[c], pivot[c])
    a, b = pivot[c] // g, row[c] // g
    out = {k: a * v for k, v in row.items()}
    for k, v in pivot.items():
        s = out.get(k, 0) - b * v
        if s:
            out[k] = s
        else:
            del out[k]
    return _primitive(out)


def _echelon(rows: Sequence[Sequence[Fraction]]) -> Dict[int, SparseRow]:
    """Pivot rows keyed by leading column: row c has no entry left of c."""
    pivots: Dict[int, SparseRow] = {}
    for row in _sparse_rows(rows):
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            row = _cancel(row, pivots[c], c)
    return pivots


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> List[Tuple[Fraction, ...]]:
    """Basis of the right kernel of the stacked row matrix.

    Returns one vector per free column, each normalized to have 1 in its
    free coordinate and 0 in the other free coordinates; the list is
    ordered by free column index.
    """
    pivots = _echelon(rows)
    # right to left, so the pivot rows used to clear row c are already
    # reduced and bring in no pivot column
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            row = _cancel(row, pivots[k], k)
        pivots[c] = row
    free = [f for f in range(ncols) if f not in pivots]
    index = {f: t for t, f in enumerate(free)}
    zero = Fraction(0)
    basis = [[zero] * ncols for _ in free]
    for t, f in enumerate(free):
        basis[t][f] = Fraction(1)
    for c, row in pivots.items():
        lead = row[c]
        for k, v in row.items():
            if k != c:
                basis[index[k]][c] = Fraction(-v, lead)
    return [tuple(vec) for vec in basis]


def rank(rows: Sequence[Sequence[Fraction]], ncols: int) -> int:
    return len(_echelon(rows))
