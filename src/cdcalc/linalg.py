"""Exact linear algebra over the rationals.

Matrices are plain lists of rows of Fractions (or ints).  Ranks use
fraction-free Bareiss elimination on a denominator-cleared integer copy;
kernels use Gauss-Jordan over Fraction.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _to_int_rows(matrix) -> list[list[int]]:
    rows = []
    for row in matrix:
        lcm = 1
        for x in row:
            if isinstance(x, Fraction):
                d = x.denominator
                lcm = lcm // gcd(lcm, d) * d
        rows.append([int(x * lcm) if isinstance(x, Fraction) else int(x) * lcm
                     for x in row])
    return rows


def rank(matrix) -> int:
    """Rank by Bareiss fraction-free elimination (exact, integer pivots)."""
    if not matrix or not matrix[0]:
        return 0
    m = _to_int_rows(matrix)
    n_rows, n_cols = len(m), len(m[0])
    prev = 1
    piv_r = 0
    for piv_c in range(n_cols):
        pivot_row = None
        for r in range(piv_r, n_rows):
            if m[r][piv_c]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != piv_r:
            m[piv_r], m[pivot_row] = m[pivot_row], m[piv_r]
        pivot = m[piv_r][piv_c]
        for r in range(piv_r + 1, n_rows):
            factor = m[r][piv_c]
            for c in range(piv_c, n_cols):
                m[r][c] = (pivot * m[r][c] - factor * m[piv_r][c]) // prev
        prev = pivot
        piv_r += 1
        if piv_r == n_rows:
            break
    return piv_r


def rref(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return m, []
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    piv_r = 0
    for piv_c in range(n_cols):
        pivot_row = None
        for r in range(piv_r, n_rows):
            if m[r][piv_c]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        m[piv_r], m[pivot_row] = m[pivot_row], m[piv_r]
        inv = 1 / m[piv_r][piv_c]
        m[piv_r] = [x * inv for x in m[piv_r]]
        for r in range(n_rows):
            if r != piv_r and m[r][piv_c]:
                factor = m[r][piv_c]
                m[r] = [a - factor * b for a, b in zip(m[r], m[piv_r])]
        pivots.append(piv_c)
        piv_r += 1
        if piv_r == n_rows:
            break
    return m, pivots


def kernel_basis(matrix, n_cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column (deterministic)."""
    if not matrix:
        if not n_cols:
            return []
        basis = []
        for i in range(n_cols):
            v = [Fraction(0)] * n_cols
            v[i] = Fraction(1)
            basis.append(v)
        return basis
    n_cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


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

