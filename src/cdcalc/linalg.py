"""Exact linear algebra over the rationals.

The package builds every matrix as a list of sparse ``{column: value}``
rows (``{}`` for a zero row) of Fractions or ints; ``rank`` and
``kernel_basis`` also accept dense sequences as rows.  One fraction-free
sparse elimination serves both, consuming int rows with no zero value that
``_int_row`` copies from the caller's, clearing denominators: a row whose
smallest column no pivot row leads is a pivot as it stands (scaling a row
changes no rank), and any other is reduced over ``int`` against the pivot
rows in ascending column order, divided by the gcd of its entries after
each step.  The column order is the caller's: a rank does not depend on
it, but the elimination's cost and a kernel basis do.  ``_kernel_rows``
back-substitutes the same pivot rows to the reduced row echelon form and
gives one primitive int row per free column, over the lcm of the pivots it
meets; ``kernel_basis`` and ``spencer.symbol_kernel_basis`` are its
``Fraction`` views (``_fraction_rows``), 1 at each free column.

``_prefix_ranks`` gives the ranks of a list's leading rows for several ends
from one elimination of the shorter side, consuming the caller's int rows
as they are; ``rank`` is its one end, over copies, so every rank takes the
shorter side.  A prolongation tower (``spencer._Tower``) calls it only when
its lead bounds, and the complex the tower sits in, leave a rank open.  A
wide or square list (no more rows than nonzero columns, which are counted
only until they reach the number of rows) is reduced in place, the count
of pivots read at each end.  A tall list's dependent rows
would each reduce all the way to zero, so its transpose is eliminated
instead, keyed by row index: row operations on the transpose keep the
relations among its columns, the original rows, and an echelon basis has
one pivot set, so the rank of the first ``end`` rows is the number of pivot
columns below ``end``.  No floating point anywhere.
"""

from __future__ import annotations

from bisect import bisect_left
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
    """The nonzero entries of ``row``, cleared of denominators, primitive.

    A row of ints (bools included) goes to ``_primitive`` unscanned: its gcd
    raises TypeError at the first Fraction, and only then is the row scaled.
    """
    row = {c: v for c, v in (row.items() if isinstance(row, dict) else enumerate(row)) if v}
    try:
        return _primitive(row)
    except TypeError:
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


def _pivot_rows(rows):
    """Yield (index, lead, row) for each of ``rows`` that gives a pivot: as it
    stands if no pivot row leads its smallest column, else reduced in place."""
    pivots: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        if (lead := min(row, default=None)) in pivots:
            lead = _reduce(row, pivots, to_lead=True)
        if lead is not None:
            pivots[lead] = row
            yield i, lead, row


def _echelon(matrix) -> dict[int, dict[int, int]]:
    """Integer pivot rows of ``matrix``, keyed by leading column."""
    return {lead: row for _, lead, row in _pivot_rows(map(_int_row, matrix))}


def rank(matrix) -> int:
    """Rank over Q, from ``_prefix_ranks`` over copies of the rows."""
    return _prefix_ranks([_int_row(row) for row in matrix], [len(matrix)])[0]


def _prefix_ranks(rows, ends) -> list[int]:
    """The rank of ``rows[:end]`` for each end of ``ends``, from one elimination.

    ``rows`` are int rows with no zero value, consumed; the side eliminated
    is chosen by the shape of the longest prefix (see the module docstring).
    """
    rows = rows[:max(ends, default=0)]
    columns = set()
    for row in rows:  # counted only until they are as many as the rows
        columns.update(row)
        if len(columns) >= len(rows):
            break
    if len(rows) <= len(columns):
        independent = [i for i, _, _ in _pivot_rows(rows)]
    else:
        transpose = {c: {} for c in sorted(columns)}
        for i, row in enumerate(rows):
            for c, v in row.items():
                transpose[c][i] = v
        independent = sorted(lead for _, lead, _ in _pivot_rows(transpose.values()))
    return [bisect_left(independent, end) for end in ends]


def _kernel_rows(matrix, n_cols: int) -> dict[int, dict[int, int]]:
    """Basis of the right kernel as primitive int rows, keyed by free column.

    The vector at free column f is 1 at f minus the reduced row echelon
    form's column f at the pivot columns, scaled by the lcm of the pivots
    that column f meets (so no Fraction is made): positive at f, zero at the
    other free columns.
    """
    pivots = _echelon(matrix)
    # back-substitution to the reduced form: clear each pivot row's other
    # pivot columns, the rows further right first
    for c in sorted(pivots, reverse=True):
        _reduce(pivots[c], pivots, to_lead=False)
    basis = {fc: {fc: 1} for fc in range(n_cols) if fc not in pivots}
    for pc, prow in pivots.items():
        for fc in prow:
            if fc != pc:
                basis[fc][fc] = lcm(basis[fc][fc], prow[pc])
    for pc, prow in pivots.items():
        for fc, x in prow.items():
            if fc != pc:
                basis[fc][pc] = -x * (basis[fc][fc] // prow[pc])
    return {fc: _primitive(row) for fc, row in basis.items()}


def _fraction_rows(kernel: dict[int, dict[int, int]]) -> list[dict[int, Fraction]]:
    """``_kernel_rows`` scaled to 1 at each free column, as Fractions."""
    return [{c: Fraction(v, row[fc]) for c, v in row.items()} for fc, row in kernel.items()]


def kernel_basis(matrix, n_cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel as dense vectors, one per free column
    (deterministic; the dense view of ``_kernel_rows``, 1 at its column).

    ``n_cols`` is required for dict rows; dense rows give it by their length.
    """
    if n_cols is None:
        n_cols = len(matrix[0]) if matrix else 0
    zero = Fraction(0)
    return [[row.get(c, zero) for c in range(n_cols)]
            for row in _fraction_rows(_kernel_rows(matrix, n_cols))]
