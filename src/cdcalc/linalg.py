"""Exact linear algebra over the rationals.

A matrix is a list of rows, each either a dense sequence of Fractions (or
ints) or a sparse ``{column: value}`` dict.  One fraction-free sparse
elimination serves ``rank`` and ``kernel_basis``: each row is cleared of
denominators once, then reduced over ``int`` against the pivot rows found
so far in ascending column order, divided by the gcd of its entries after
each step.  ``kernel_basis`` back-substitutes the same pivot rows to the
reduced row echelon form.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def _primitive(row: dict) -> dict:
    """Divide ``row`` in place by the gcd of its entries."""
    g = gcd(*row.values())
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def _int_row(row) -> dict[int, int]:
    """The nonzero entries of ``row``, cleared of denominators, primitive."""
    row = {c: v for c, v in (row.items() if isinstance(row, dict) else enumerate(row)) if v}
    scale = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (scale // v.denominator) for c, v in row.items()})


def _reduce(row: dict, pivots: dict, to_lead: bool) -> int | None:
    """Clear from ``row``, in place and in ascending column order, the
    columns led by other rows of ``pivots``, keeping it primitive.

    With ``to_lead`` it stops at the first column that no pivot row leads
    and returns it (None if the row vanishes); otherwise it clears them all.
    """
    heap = list(row)
    heapify(heap)
    while heap:
        c = heappop(heap)
        a = row.get(c)
        if a is None:
            continue
        prow = pivots.get(c)
        if prow is None and to_lead:
            return c
        if prow is None or prow is row:
            continue
        p = prow[c]
        g = gcd(a, p)
        a, p = a // g, p // g
        if p != 1:
            for k in row:
                row[k] *= p
        for k, v in prow.items():
            if k in row:
                s = row[k] - a * v
                if s:
                    row[k] = s
                else:
                    del row[k]
            else:
                row[k] = -a * v
                heappush(heap, k)
        _primitive(row)
    return None


def _echelon(matrix) -> dict[int, dict[int, int]]:
    """Primitive integer pivot rows of ``matrix``, keyed by leading column."""
    pivots: dict[int, dict[int, int]] = {}
    for row in matrix:
        row = _int_row(row)
        lead = _reduce(row, pivots, to_lead=True)
        if lead is not None:
            pivots[lead] = row
    return pivots


def rank(matrix) -> int:
    """Rank over Q: the number of pivots of the sparse elimination."""
    return len(_echelon(matrix))


def kernel_basis(matrix, n_cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column (deterministic).

    The vectors are read off the reduced row echelon form: the one at free
    column f has 1 at f and minus the form's column f at the pivot columns.
    ``n_cols`` is required for dict rows; dense rows give it by their length.
    """
    if n_cols is None:
        n_cols = len(matrix[0]) if matrix else 0
    pivots = _echelon(matrix)
    # back-substitution to the reduced form: clear each pivot row's other
    # pivot columns, the rows further right first
    for c in sorted(pivots, reverse=True):
        _reduce(pivots[c], pivots, to_lead=False)
    basis = {fc: [Fraction(0)] * n_cols for fc in range(n_cols) if fc not in pivots}
    for fc, v in basis.items():
        v[fc] = Fraction(1)
    for pc, prow in pivots.items():
        for fc, x in prow.items():
            if fc != pc:
                basis[fc][pc] = Fraction(-x, prow[pc])
    return list(basis.values())


def matmul(a, b) -> list[list[Fraction]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"matmul shape mismatch: {len(a[0])} vs {len(b)}")
    if not a or not b:
        return [[] for _ in a]
    cols = len(b[0])
    out = []
    for row in a:
        acc = [Fraction(0)] * cols
        for k, x in enumerate(row):
            if x:
                brow = b[k]
                for c in range(cols):
                    if brow[c]:
                        acc[c] += x * brow[c]
        out.append(acc)
    return out
