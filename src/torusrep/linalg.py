"""Exact nullspace extraction by sparse fraction-free elimination.

A matrix is a list of sparse rows ``{column: coefficient}`` with rational
coefficients; absent columns, and explicit zeros, are zero entries.  Each
row is cleared to integers with its content (the gcd of the entries)
removed.  It is reduced against the pivot rows, keyed by leading column, by
integer combinations that cancel the leading entry; a row that is not
cancelled becomes a new pivot.  Each pivot column is then cleared from the
other pivot rows, and every kernel vector is read straight off the reduced
rows as a sparse ``{column: Fraction}`` vector.

Column c is a pivot exactly when it is not in the span of the columns
before it, so the pivot set, and with it the normalised kernel basis, does
not depend on the row order or on the elimination route.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Mapping, Union

IntRow = Dict[int, int]
SparseRow = Mapping[int, Union[int, Fraction]]


def _primitive(row: IntRow) -> IntRow:
    """The row divided by the gcd of its entries."""
    g = gcd(*row.values())
    if g <= 1:
        return row
    return {c: v // g for c, v in row.items()}


def _integer_row(row: SparseRow) -> IntRow:
    """The nonzero entries of row, scaled to coprime integers."""
    entries = {c: x for c, x in row.items() if x}
    if not entries:
        return entries
    denom = lcm(*(x.denominator for x in entries.values()))
    return _primitive({c: x.numerator * (denom // x.denominator)
                       for c, x in entries.items()})


def _cancel(row: IntRow, pivot: IntRow, c: int) -> IntRow:
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


def nullspace(rows: List[SparseRow], ncols: int) -> List[Dict[int, Fraction]]:
    """Basis of the right kernel of the matrix with the given sparse rows
    and ncols columns.

    Returns one sparse vector ``{column: Fraction}`` per free column, with
    1 in its free column and 0 (omitted) in the other free columns; the
    list is ordered by free column.
    """
    # pivot rows keyed by leading column: row c has no entry left of c
    pivots: Dict[int, IntRow] = {}
    for row in rows:
        row = _integer_row(row)
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            row = _cancel(row, pivots[c], c)
    # right to left, so the pivot rows used to clear row c are already
    # reduced and bring in no pivot column
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k != c and k in pivots]:
            row = _cancel(row, pivots[k], k)
        pivots[c] = row
    basis = {f: {f: Fraction(1)} for f in range(ncols) if f not in pivots}
    for c, row in pivots.items():
        lead = row[c]
        for k, v in row.items():
            if k != c:
                basis[k][c] = Fraction(-v, lead)
    return list(basis.values())
