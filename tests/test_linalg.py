"""Differential tests of the exact linear algebra against sympy over QQ."""

import random
from fractions import Fraction

import pytest

from math import gcd, lcm

from cdcalc.linalg import (
    _echelon, _int_row, _kernel_rows, _pivot_rows, _prefix_ranks, kernel_basis, rank,
)

from conftest import matmul, sympy_rank

sympy = pytest.importorskip("sympy")

SHAPES = [(4, 4), (9, 9), (20, 20), (25, 6), (12, 3), (5, 22), (3, 30), (1, 7), (7, 1)]
DENSITIES = [0.02, 0.1, 0.3, 0.6]


def random_matrix(rng, n_rows, n_cols, density):
    m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < density
          else Fraction(0) for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows > 2:
        m[rng.randrange(n_rows)] = list(m[rng.randrange(n_rows)])   # a duplicated row
        m[rng.randrange(n_rows)] = [Fraction(0)] * n_cols              # an all-zero row
    if n_rows > 3:
        # a row that is a rational combination of two others
        a, b = rng.sample(range(n_rows), 2)
        s, t = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(1, 4), 3)
        m[rng.randrange(n_rows)] = [s * x + t * y for x, y in zip(m[a], m[b])]
    return m


def cases():
    rng = random.Random(2024)
    for n_rows, n_cols in SHAPES:
        for density in DENSITIES:
            for _ in range(3):
                yield random_matrix(rng, n_rows, n_cols, density)


def sparse(matrix):
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def sympy_nullspace(matrix):
    m = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                      for row in matrix])
    return [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in m.nullspace()]


def test_rank_matches_sympy():
    # the shapes are tall and wide: rank consumes copies, never the caller's rows
    for m in cases():
        want = sympy_rank(m)
        den = lcm(*(v.denominator for row in m for v in row))
        ints = [{c: int(den * v) for c, v in enumerate(row) if v} for row in m]
        kept = [dict(row) for row in ints], [list(row) for row in m]
        assert rank(m) == want
        assert rank(sparse(m)) == want
        assert rank(ints) == want
        assert (ints, m) == kept


def test_kernel_matches_sympy_nullspace():
    for m in cases():
        n_cols = len(m[0])
        basis = kernel_basis(m, n_cols)
        assert basis == sympy_nullspace(m)
        assert kernel_basis(sparse(m), n_cols) == basis
        assert len(basis) == n_cols - rank(m)
        if basis:
            assert all(x == 0 for row in matmul(m, [list(col) for col in zip(*basis)])
                       for x in row)


def test_kernel_rows_are_primitive_int_rows():
    # one per free column, positive there and zero at the other free columns,
    # each a multiple of the Fraction vector kernel_basis gives
    for m in cases():
        n_cols = len(m[0])
        rows = _kernel_rows(m, n_cols)
        basis = kernel_basis(m, n_cols)
        assert len(rows) == len(basis)
        for (f, row), vec in zip(rows.items(), basis):
            assert all(type(v) is int and v for v in row.values())
            assert gcd(*row.values()) == 1 and row[f] > 0
            assert not any(row.get(c) for c in rows if c != f)
            assert [Fraction(row.get(c, 0), row[f]) for c in range(n_cols)] == vec
            assert all(type(v) is Fraction for v in vec)


def test_integer_and_mixed_entries():
    m = [[2, Fraction(1, 3), 0], [4, Fraction(2, 3), 0], [0, 0, Fraction(-5, 7)]]
    assert rank(m) == 2
    assert kernel_basis(m) == [[Fraction(-1, 6), Fraction(1), Fraction(0)]]


def test_int_bool_and_fraction_rows_give_the_same_pivots():
    # int rows skip the scan for Fractions; a Fraction anywhere, even after
    # ints or as an integral Fraction, still sends the row to be scaled
    rng = random.Random(3)
    for _ in range(30):
        bits = [[rng.random() < 0.4 for _ in range(8)] for _ in range(6)]
        ints = [[int(b) for b in row] for row in bits]
        pivots = _echelon(ints)
        scales = [Fraction(rng.choice((1, 2, 3, 5)), rng.randint(1, 4)) for _ in ints]
        for rows in (bits, [[Fraction(v) for v in row] for row in ints],
                     [[v * f for v in row] for row, f in zip(ints, scales)],
                     [row[:4] + [Fraction(v) for v in row[4:]] for row in ints]):
            sparse_rows = [{c: v for c, v in enumerate(row) if v} for row in rows]
            kept = [dict(row) for row in sparse_rows]
            assert _echelon(rows) == pivots == _echelon(sparse_rows)
            assert sparse_rows == kept  # the caller's rows are left as they were


def test_edge_cases():
    assert rank([]) == 0
    assert rank([[]]) == 0
    assert kernel_basis([]) == []
    assert kernel_basis([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis([{}, {}], 2) == [[1, 0], [0, 1]]
    assert rank([[0, 0], [0, 0]]) == 0 and rank([{}, {}]) == 0
    assert kernel_basis([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]
    column = [[Fraction(3)], [Fraction(-1, 2)], [Fraction(0)]]
    assert rank(column) == 1
    assert kernel_basis(column) == []
    assert rank([[0], [0]]) == 0 and kernel_basis([[0], [0]]) == [[1]]
    assert rank([{5: Fraction(1, 9)}]) == 1
    assert kernel_basis([{1: 2}], 3) == [[1, 0, 0], [0, 0, 1]]
    assert _prefix_ranks([], []) == [] and _prefix_ranks([], [0, 0]) == [0, 0]
    assert _prefix_ranks([{}, {}], [2, 1]) == [0, 0]
    # a column: tall, ranked through its transpose
    column = [{7: 0}, {7: Fraction(-1, 2)}, {7: 3}, {}]
    assert _prefix_ranks([_int_row(row) for row in column], [4, 1, 2, 3, 0]) == [1, 0, 1, 1, 0]
    # rows past the longest end are not read
    assert _prefix_ranks([{0: 1}, {1: 1}, {2: 1}], [2]) == [2]


def random_sparse_rows(rng, n_rows, n_cols, kind):
    """Sparse rows over scattered column keys with dependent, repeated and {} rows."""
    keys = rng.sample(range(-40, 40), n_cols)

    def value():
        num = rng.randint(-9, 9)
        return num if kind is int else Fraction(num, rng.randint(1, 6))

    density = rng.choice((0.1, 0.3, 0.6))
    rows = [{c: v for c in keys if rng.random() < density and (v := value())}
            for _ in range(n_rows)]
    for _ in range(max(1, n_rows // 3)):
        i, a, b = (rng.randrange(n_rows) for _ in range(3))
        kind_of_row = rng.randrange(3)
        if kind_of_row == 0:
            rows[i] = {}
        elif kind_of_row == 1:
            rows[i] = dict(rows[a])
        else:  # a combination of two rows
            s, t = value() or 1, value() or 1
            combo = {c: s * rows[a].get(c, 0) + t * rows[b].get(c, 0)
                     for c in rows[a].keys() | rows[b].keys()}
            rows[i] = {c: v for c, v in combo.items() if v}
    return rows


def test_prefix_ranks_match_rank_and_sympy():
    rng = random.Random(20)
    sides = set()
    for n_rows, n_cols in [(30, 8), (24, 12), (12, 3), (9, 9), (8, 30), (5, 14), (1, 6), (6, 1)]:
        for kind in (int, Fraction):
            for _ in range(3):
                rows = random_sparse_rows(rng, n_rows, n_cols, kind)
                kept = [dict(row) for row in rows]
                ends = [rng.randint(0, n_rows) for _ in range(4)] + [n_rows, 0]
                ends.append(rng.choice(ends))
                rng.shuffle(ends)
                columns = sorted({c for row in rows for c in row})
                sides.add(len(rows) > len(columns))
                dense = sympy.Matrix([[row.get(c, 0) for c in columns] for row in rows])
                want = [rank(rows[:end]) for end in ends]
                assert _prefix_ranks([_int_row(row) for row in rows], ends) == want
                assert want == [dense[:end, :].rank() if end and columns else 0
                                for end in ends]
                assert rows == kept  # the caller's rows are left as they were
    assert sides == {False, True}  # both sides eliminated


def test_a_row_whose_smallest_column_is_free_is_a_pivot_as_it_stands():
    # keys out of order in each dict; row 1 is row 0 halved; row 4 starts at
    # column 3, which row 0 leads, and past row 2's column 5 it leads at 9
    rows = [{9: 6, 3: 4}, {3: 2, 9: 3}, {8: 5, 5: 10}, {9: 1, 3: 2, 1: -2},
            {5: 2, 9: 1, 8: 1, 3: 2}]
    kept = [dict(row) for row in rows]
    got = list(_pivot_rows(rows))
    assert [(i, lead) for i, lead, _ in got] == [(0, 3), (2, 5), (3, 1), (4, 9)]
    # rows 0, 2 and 3 lead at a free smallest column: pivots as they stand,
    # neither copied nor made primitive; rows 1 and 4 are reduced in place
    assert all(row is rows[i] for i, _, row in got)
    assert [rows[i] == kept[i] for i in range(5)] == [True, False, True, True, False]
    assert rows[1] == {}
    assert rank(kept) == 4 == sympy_rank([[row.get(c, 0) for c in range(10)] for row in kept])


def test_prefix_ranks_read_each_lead_from_the_smallest_key():
    # each new row is either led at a column below every key so far (free)
    # or a combination of earlier rows, shifted by a row over larger keys
    # (led, reduced to a later lead or to zero); keys go in shuffled
    rng = random.Random(23)
    sides = set()
    for trial in range(40):
        rows = []
        for _ in range(rng.randint(1, 14)):
            low = min((c for row in rows for c in row), default=0)
            if not rows or rng.random() < 0.4:
                row = {low - rng.randint(1, 3): rng.choice((-3, -1, 2, 5))}
                row.update({rng.randint(low, low + 12): rng.randint(1, 4) for _ in range(2)})
            else:
                a, b = rng.choice(rows), rng.choice(rows)
                s, t = rng.randint(1, 3), rng.randint(-2, 2)
                row = {c: s * a.get(c, 0) + t * b.get(c, 0) for c in a.keys() | b.keys()}
                if rng.random() < 0.5:
                    high = max(row, default=low)
                    row[high + rng.randint(0, 2)] = row.get(high, 0) + rng.randint(1, 3)
            items = [(c, v) for c, v in row.items() if v]
            rng.shuffle(items)
            rows.append(dict(items))
        ends = sorted({rng.randint(0, len(rows)) for _ in range(3)} | {len(rows)})
        columns = sorted({c for row in rows for c in row})
        sides.add(len(rows) > len(columns))
        want = [rank(rows[:end]) for end in ends]
        assert want == [sympy_rank([[row.get(c, 0) for c in columns] for row in rows[:end]])
                        if end and columns else 0 for end in ends]
        assert _prefix_ranks([dict(row) for row in rows], ends) == want
    assert sides == {False, True}
