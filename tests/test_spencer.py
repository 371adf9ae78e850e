import gc
import itertools
import random
import time
import weakref
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest

import cdcalc.spencer
from cdcalc import (
    CDiffOp, DiffPoly, JetContext, JetPoint, Metric, OperatorComplex, check_formal_exactness,
    cokernel_rank, dbar_operator, delta_map, fiber_map, is_involutive, linearize,
    random_point, spencer_cohomology, star_operator, symbol, two_line_polynomial,
)
from cdcalc.linalg import rank
from cdcalc.ops import ScalarCDiffOp
from cdcalc.expr import MAX_EXPONENT
from cdcalc.jet import MAX_PROLONGATION
from cdcalc.spencer import (
    MAX_TWO_LINE_TERMS, _binomials, _delta_of_subspace, _dims_table, _lowerings, _positions,
    _shifted, _taus, _Tower, graded_symbol_matrix, multiindices, multiindices_upto, sym_dim,
    symbol_kernel_basis,
)

from conftest import matmul, rand_operator, sympy_rank


@pytest.fixture
def ctx():
    return JetContext.free("x t", "u")


@pytest.fixture
def kdv_lin(ctx):
    return linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])


def test_symbol_examples(ctx, kdv_lin):
    pt = random_point(ctx, 1, seed=0)
    dxx = CDiffOp.total(ctx, "x", "x")
    sym = symbol(dxx, pt)
    assert sym.degree == 2 and sym.entry(0, 0) == {(0, 0): Fraction(1)}
    sym = symbol(kdv_lin, pt)
    assert sym.degree == 3
    assert sym.entry(0, 0) == {(0, 0, 0): Fraction(-1)}


def _poly_matrix_product(a, b, n):
    """Independent oracle: multiply symbol matrices as xi-polynomials."""
    out = {}
    for (s, k1), cell_a in a.entries.items():
        for (k2, j), cell_b in b.entries.items():
            if k1 != k2:
                continue
            acc = out.setdefault((s, j), {})
            for sig_a, va in cell_a.items():
                for sig_b, vb in cell_b.items():
                    key = tuple(sorted(sig_a + sig_b))
                    acc[key] = acc.get(key, Fraction(0)) + va * vb
    return {k: {s: v for s, v in cell.items() if v}
            for k, cell in out.items() if any(cell.values())}


def test_symbol_multiplicative(ctx):
    rng = random.Random(21)
    pt = random_point(ctx, 3, seed=1)
    found = 0
    for _ in range(40):
        a = rand_operator(rng, ctx, 2, 2, max_op_order=2)
        b = rand_operator(rng, ctx, 2, 2, max_op_order=2)
        sa, sb = symbol(a, pt), symbol(b, pt)
        product = _poly_matrix_product(sa, sb, ctx.n)
        if not product:
            continue
        comp = a @ b
        if comp.order != a.order + b.order:
            continue
        sc = symbol(comp, pt)
        assert {k: cell for k, cell in sc.entries.items()} == product
        found += 1
    assert found >= 5


def test_fiber_map_selects_component(ctx):
    pt = random_point(ctx, 1, seed=0)
    fm = fiber_map(CDiffOp.total(ctx, "x"), 0, pt)
    assert (fm.domain_dim, fm.codomain_dim) == (3, 1)
    assert fm.matrix == [[0, 1, 0]]


def test_fiber_map_rows_are_sparse(ctx, kdv_lin):
    pt = random_point(ctx, 4, seed=1)
    fm = fiber_map(kdv_lin, 1, pt)
    assert len(fm.rows) == fm.codomain_dim == 3
    assert all(0 not in row.values() for row in fm.rows)
    dense = fm.matrix
    assert len(dense) == fm.codomain_dim
    assert all(len(row) == fm.domain_dim for row in dense)
    assert dense == [[row.get(c, 0) for c in range(fm.domain_dim)] for row in fm.rows]
    assert fm.rank() == rank(dense) == 3
    zero = fiber_map(CDiffOp.zero(ctx, 1, 1), 1, random_point(ctx, 1, seed=0))
    assert zero.rows == [{}, {}, {}] and zero.rank() == 0


def test_fiber_dimension_formula():
    # rank-1 source fiber at order 2 over n=2 has dim C(4,2) = 6
    from cdcalc.spencer import jet_fiber_dim
    assert jet_fiber_dim(2, 2) == 6
    assert sym_dim(2, 0) + sym_dim(2, 1) + sym_dim(2, 2) == jet_fiber_dim(2, 2)


def test_fiber_gradient_rank(ctx):
    pt = random_point(ctx, 2, seed=0)
    fm = fiber_map(dbar_operator(ctx, 0), 1, pt)
    assert (fm.domain_dim, fm.codomain_dim) == (6, 6)
    assert fm.rank() == 5


def test_fiber_functoriality(ctx):
    rng = random.Random(22)
    for _ in range(8):
        a = rand_operator(rng, ctx, 2, 2, max_op_order=1)
        b = rand_operator(rng, ctx, 2, 2, max_op_order=1)
        l = 1
        pt = random_point(ctx, 1 + a.order + l + b.order, seed=3)
        comp = a @ b
        lhs = fiber_map(comp, l, pt, declared_order=a.order + b.order)
        fa = fiber_map(a, l, pt)
        fb = fiber_map(b, l + a.order, pt)
        assert lhs.matrix == matmul(fa.matrix, fb.matrix)


def test_delta_map_degree_one_identity():
    dm = delta_map(2, 1, 1, 0)
    assert dm.matrix == [[1, 0], [0, 1]]


def test_delta_map_full_module_ranks():
    d0 = delta_map(2, 1, 2, 0)
    d1 = delta_map(2, 1, 1, 1)
    assert (d0.domain_dim, d0.codomain_dim) == (3, 4)
    assert (d1.domain_dim, d1.codomain_dim) == (4, 1)
    assert rank(d0.matrix) == 3 and rank(d1.matrix) == 1
    # the rows hold Fractions, at the columns of the shift model
    assert d0.rows == [{0: 1}, {1: 1}, {1: 1}, {2: 1}]
    assert delta_map(2, 2, 1, 1).rows == [{1: -1, 4: 1}, {3: -1, 6: 1}]
    for n, rank_p, r, s in ((2, 1, 2, 0), (2, 2, 1, 1), (3, 2, 2, 1), (3, 1, 3, 2)):
        rows = delta_map(n, rank_p, r, s).rows
        assert rows and all(type(v) is Fraction for row in rows for v in row.values())


def test_delta_squared_zero_everywhere():
    for n in (2, 3):
        for rank_p in (1, 2):
            for r in range(2, 5):
                for s in range(0, n - 1):
                    d1 = delta_map(n, rank_p, r, s)
                    d2 = delta_map(n, rank_p, r - 1, s + 1)
                    prod = matmul(d2.matrix, d1.matrix)
                    assert all(all(x == 0 for x in row) for row in prod)


def test_full_module_delta_exact_positive_degree():
    # delta-Poincare at desk scale: ker = im at every interior slot
    for n in (2, 3):
        for rank_p in (1, 2):
            for total in range(1, 5):
                prev_rank = 0
                for s in range(0, min(total, n) + 1):
                    r = total - s
                    dim = rank_p * sym_dim(n, r) * _binom(n, s)
                    if r == 0 or s == n:
                        out_rank = 0
                    else:
                        out_rank = rank(delta_map(n, rank_p, r, s).matrix)
                    kernel = dim - out_rank
                    if s >= 1:
                        assert kernel == prev_rank, (n, rank_p, total, s)
                    prev_rank = out_rank


def _binom(n, k):
    from math import comb
    return comb(n, k)


def test_spencer_gradient_involutive():
    for names in ("x t", "x y z"):
        ctx = JetContext.free(names, "u")
        res = is_involutive(dbar_operator(ctx, 0), 3, seed=0)
        assert res.involutive
        assert all(v == 0 for row in res.report.dims for v in row)
        assert res.report.involutive_up_to == 3


def test_spencer_zero_operator(ctx):
    rep = spencer_cohomology(CDiffOp.zero(ctx, 1, 1), 3, seed=0)
    assert all(v == 0 for row in rep.dims for v in row)
    assert is_involutive(CDiffOp.zero(ctx, 1, 1), 3, seed=0).involutive


def test_spencer_kdv_two_line_compatible(ctx, kdv_lin):
    rep = spencer_cohomology(kdv_lin, 3, seed=0)
    for row in rep.dims:
        assert all(v == 0 for v in row[2:])
    assert rep.dims[0][0] == 0 and rep.dims[0][1] == 0


def test_spencer_detects_non_involutive(ctx):
    # u_xx = 0, u_tt = 0: the symbol needs one prolongation, the table sees
    # a one-dimensional class at level 2, slot 2 (hand check: g2 = <e_xt>,
    # g3 = 0, so the top slot has kernel 1 and image 0).
    one = DiffPoly.const(1)
    op = CDiffOp(ctx, [[ScalarCDiffOp({(0, 0): one})],
                       [ScalarCDiffOp({(1, 1): one})]])
    res = is_involutive(op, 3, seed=0)
    assert not res.involutive
    assert res.failure == (2, 2)
    assert res.report.dims[2][2] == 1


def test_spencer_report_note_invariant(ctx):
    rng = random.Random(23)
    for _ in range(6):
        op = rand_operator(rng, ctx, 2, 1, max_op_order=2)
        rep = spencer_cohomology(op, 2, seed=0)
        for row in rep.dims:
            assert row[0] == 0 and row[1] == 0


def test_graded_symbol_matrix_shape(ctx, kdv_lin):
    pt = random_point(ctx, 1, seed=0)
    sym = symbol(kdv_lin, pt)
    m = graded_symbol_matrix(sym, 1)
    assert m.codomain_dim == len(m.rows) == len(multiindices(2, 1))  # rank P1 * S^1
    assert m.domain_dim == sym_dim(2, 4)                             # rank P0 * S^4


def test_machine_lines(ctx, kdv_lin):
    rep = spencer_cohomology(kdv_lin, 1, seed=0)
    lines = rep.machine_lines()
    assert "dims.0.0: 0" in lines
    assert lines[-1] == "involutive_up_to: 1"


def test_two_line_polynomial_examples():
    for p in (2, 3, 4):
        assert not two_line_polynomial(1, p, "-").nonzero
    r = two_line_polynomial(2, 2, "-")
    assert r.nonzero
    assert r.ctx.format(r.poly) == "-2*th1*th2"
    r = two_line_polynomial(3, 2, "+")
    assert r.nonzero
    want = r.ctx.parse("2*th1^3 + 3*th1^2*th2 + 3*th1*th2^2 + 2*th2^3")
    assert r.poly == want


def test_two_line_full_grid():
    for k in range(2, 6):
        for p in range(2, 5):
            for sign in ("+", "-"):
                assert two_line_polynomial(k, p, sign).nonzero


def test_two_line_size_is_bounded():
    assert two_line_polynomial(MAX_EXPONENT, 2, "+").nonzero
    assert len(two_line_polynomial(1, MAX_TWO_LINE_TERMS, "+").poly.terms) == \
        MAX_TWO_LINE_TERMS
    for k, p in ((MAX_EXPONENT + 1, 1), (400, 4), (30, 4), (1, MAX_TWO_LINE_TERMS + 1)):
        with pytest.raises(ValueError):
            two_line_polynomial(k, p, "+")


def test_two_line_rejects_bad_sign():
    with pytest.raises(ValueError):
        two_line_polynomial(2, 2, "x")


def _graded_from_definition(sym, l):
    """Dense graded symbol map: at row (s, tau), column (j, mu), the symbol
    coefficient at mu - tau when tau fits inside mu, else 0."""
    rows = []
    for s in range(sym.rows):
        for tau in multiindices(sym.n, l):
            row = []
            for j in range(sym.cols):
                for mu in multiindices(sym.n, sym.degree + l):
                    rest = Counter(mu) - Counter(tau)
                    sigma = tuple(sorted(rest.elements()))
                    fits = len(sigma) == sym.degree          # tau inside mu
                    row.append(sym.entry(s, j).get(sigma, Fraction(0)) if fits
                               else Fraction(0))
            rows.append(row)
    return rows


def test_symbol_kernel_basis_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(61)
    # after twelve operators over n = 2, 3, n = 1 and n = 4 ones, order 0 among
    # them: the shift offsets meet jet_fiber_dim(n, -1) = 0 at l = 0 and k = 0
    extra = [("x", 0), ("x y z w", 0), ("x", 2), ("x y z w", 2)] * 2
    for trial, (names, max_op_order) in enumerate([(None, 2)] * 12 + extra):
        ctx = JetContext.free(names or rng.choice(("x t", "x y z")), "u")
        op = rand_operator(rng, ctx, rng.randint(1, 2), rng.randint(1, 2), max_op_order)
        sym = symbol(op, random_point(ctx, op.coefficient_jet_order(), seed=trial))
        for r in range(-1, sym.degree + 3):
            width = sym.cols * sym_dim(ctx.n, r)
            basis = symbol_kernel_basis(sym, r)
            assert all(isinstance(v, dict) and all(v.values()) for v in basis)
            if r < sym.degree:  # S^{r-k} = 0: no rows, and g^r is all of S^r (x) P
                assert graded_symbol_matrix(sym, r - sym.degree).rows == []
                assert len(basis) == width
                continue
            graded = graded_symbol_matrix(sym, r - sym.degree)
            dense = _graded_from_definition(sym, r - sym.degree)
            assert (graded.codomain_dim, graded.domain_dim) == (len(dense), width)
            assert graded.matrix == dense
            assert len(basis) == width - sympy_rank(dense)
            # sympy's nullspace: Fractions, 1 at each free column of the rref
            matrix = sympy.Matrix(dense)
            assert [[row.get(c, 0) for c in range(width)] for row in basis] == \
                [[Fraction(int(v.p), int(v.q)) for v in vec] for vec in matrix.nullspace()]
            assert all(type(v) is Fraction for row in basis for v in row.values())
            free = [c for c in range(width) if c not in matrix.rref()[1]]
            assert [{c: row.get(c, 0) for c in free} for row in basis] == \
                [{c: int(c == f) for c in free} for f in free]
            for v in basis:
                assert all(sum(row[c] * x for c, x in v.items()) == 0 for row in dense)
            if basis:
                assert sympy_rank([[v.get(c, 0) for c in range(width)]
                                   for v in basis]) == len(basis)


def test_prolongation_range_is_validated():
    ctx = JetContext.free("x t", "u")
    op = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    for l_max in (-1, -7, MAX_PROLONGATION + 1, 100000):
        with pytest.raises(ValueError, match=f"l_max must be in 0..15, got {l_max}"):
            spencer_cohomology(op, l_max)
        with pytest.raises(ValueError, match="l_max must be in 0..15"):
            is_involutive(op, l_max)
    assert is_involutive(op, MAX_PROLONGATION).involutive


def test_graded_symbol_maps_are_bounded_before_any_table(monkeypatch):
    # spencer_cohomology's bounds: l at most MAX_PROLONGATION, then each side
    # of the graded map at most MAX_FIBER_DIM, checked before a shift table
    # (kept for the life of the process) is filled
    ctx = JetContext.free("x y z w", "u")
    lap = linearize(ctx, [ctx.parse("u_{x,x} + u_{y,y} + u_{z,z} + u_{w,w}")]).entries[0][0]
    pt = random_point(ctx, 0)
    sym = symbol(CDiffOp(ctx, [[lap]]), pt)

    def filled():
        return [f.cache_info().currsize for f in (_positions, _taus, _shifted)]

    before = filled()
    for l in (MAX_PROLONGATION + 1, 30):
        with pytest.raises(ValueError, match=f"l must be in 0..15, got {l}"):
            graded_symbol_matrix(sym, l)
        with pytest.raises(ValueError, match=f"l must be in 0..15, got {l}"):
            symbol_kernel_basis(sym, l + sym.degree)
    assert filled() == before
    # the accepted edge: S^17 (x) P has C(20, 3) = 1140 coordinates, S^15 816
    graded = graded_symbol_matrix(sym, MAX_PROLONGATION)
    assert (graded.codomain_dim, graded.domain_dim) == (comb(18, 3), comb(20, 3))
    assert len(symbol_kernel_basis(sym, 17)) == comb(20, 3) - comb(18, 3)
    # the larger side decides: two columns double the source side, three rows the target
    wide, tall = (symbol(CDiffOp(ctx, rows), pt) for rows in ([[lap, lap]], [[lap]] * 3))
    for s, l, size in ((wide, 15, 2 * comb(20, 3)), (tall, 14, 3 * comb(17, 3))):
        with pytest.raises(ValueError, match=f"the degree-{l + 2} graded symbol map has "
                                             f"{size} coordinates, more than 2000"):
            graded_symbol_matrix(s, l)
        with pytest.raises(ValueError, match=f"has {size} coordinates"):
            symbol_kernel_basis(s, l + 2)
        assert graded_symbol_matrix(s, l - 1).rows  # one level lower is accepted
        assert symbol_kernel_basis(s, l + 1)
    # below the order nothing is built, however low l is
    assert graded_symbol_matrix(sym, -40).rows == [] and len(symbol_kernel_basis(sym, 1)) == 4
    # delta maps bound both sides: Lambda^1 (x) S^999 in dimension 2 has
    # 2 * 1000 coordinates, and Lambda^1 (x) S^35 in dimension 3 3 * 666
    assert delta_map(2, 1, 999, 1).domain_dim == 2000
    assert delta_map(3, 1, 36, 0).codomain_dim == 1998
    monkeypatch.setattr(cdcalc.spencer, "_delta_of_subspace", _refuse_delta)
    for args, message in (((2, 1, 1000, 1), "Lambda^1 (x) S^1000 (x) P in dimension 2 has 2002"),
                          ((3, 1, 37, 0), "Lambda^1 (x) S^36 (x) P in dimension 3 has 2109"),
                          ((8, 1, 7, 3), "Lambda^3 (x) S^7 (x) P in dimension 8 has 192192"),
                          ((1, 2001, 1, 0), "Lambda^0 (x) S^1 (x) P in dimension 1 has 2001")):
        with pytest.raises(ValueError) as info:
            delta_map(*args)
        assert str(info.value) == f"{message} coordinates, more than 2000"


def _refuse_delta(*args):
    raise AssertionError("a delta map was built past its bound")


def test_table_size_is_bounded_at_its_edge():
    # the n = 4 Laplacian: at l_max = 11 the top level's Lambda^2 (x) S^11
    # has 6 * C(14, 3) = 2184 coordinates, past MAX_FIBER_DIM = 2000, and is
    # rejected before any point is drawn; l_max = 10 runs well inside 10 s
    ctx = JetContext.free("x y z w", "u")
    op = linearize(ctx, [ctx.parse("u_{x,x} + u_{y,y} + u_{z,z} + u_{w,w}")])
    with pytest.raises(ValueError, match="has 2184 coordinates, more than 2000"):
        spencer_cohomology(op, 11)
    start = time.perf_counter()
    report = spencer_cohomology(op, 10, pt=random_point(ctx, 0, seed=1))
    assert time.perf_counter() - start < 10
    assert report.first_failure is None


# ---------------------------------------------------------------------------
# The delta ranks the table takes from theorems, eliminated
# ---------------------------------------------------------------------------


def _eliminated_table(sym, l_max):
    """The cohomology table and rank profile with every delta rank eliminated,
    asserting on the way the three ranks ``_dims_table`` takes from theorems:
    dim g^r at i = 0 (r >= 1), n dim g^r - dim g^{r+1} at i = 1, 0 at i = n."""
    n, k, cols = sym.n, sym.degree, sym.cols
    kernels, profile, dims = {}, [], []

    def g(r):
        if r not in kernels:
            kernels[r] = symbol_kernel_basis(sym, r)
            profile.append(cols * sym_dim(n, r) - len(kernels[r]))
        return kernels[r]

    for l in range(l_max + 1):
        ranks = {}
        for i in range(min(l, n) + 1):
            r = k + l - i
            basis = g(r)
            ranks[i] = rank(_delta_of_subspace(n, cols, r, i, basis))
            profile.append(ranks[i])
            if i == 0 and r >= 1:
                assert ranks[i] == len(basis), (l, i)
            if i == 1:
                assert ranks[i] == n * len(basis) - len(g(r + 1)), (l, i)
            if i == n:
                assert ranks[i] == 0, (l, i)
        dims.append([comb(n, i) * len(g(k + l - i)) - ranks[i] - ranks.get(i - 1, 0)
                     if i <= l and (i or k + l) else 0 for i in range(n + 1)])
    return dims, tuple(profile)


def _sparse_operator(rng, ctx, rows, cols, order):
    """Seeded operator, each entry 0-2 terms c D_sigma, mostly |sigma| = order, c a
    constant, x times one or u times one; entry (s, s) has a constant term of full order."""
    coefficients = (lambda c: DiffPoly.const(c), lambda c: ctx.parse(f"{c}*x"),
                    lambda c: ctx.parse(f"{c}*u"))

    def sigma(top):
        return tuple(sorted(rng.randrange(ctx.n) for _ in range(order if top else
                                                                rng.randint(1, order))))

    def entry(lead):
        terms = {sigma(rng.random() < 0.7): rng.choice(coefficients)(rng.choice((1, -1, 2, 3)))
                 for _ in range(rng.randint(0, 2))}
        if lead:
            terms[sigma(True)] = DiffPoly.const(1)
        return ScalarCDiffOp(terms)
    return CDiffOp(ctx, [[entry(s == j) for j in range(cols)] for s in range(rows)])


def _acceptance_operators():
    kdv = JetContext.free("x t", "u")
    ctx4 = JetContext.free("x y z w", "u")
    wave = dbar_operator(ctx4, 2) @ star_operator(ctx4, Metric.diag([1, 1, 1, 1]), 2) \
        @ dbar_operator(ctx4, 1)
    yield linearize(kdv, [kdv.parse("u_t - u*u_x - u_{x,x,x}")]), 4
    yield linearize(ctx4, [ctx4.parse("u_{x,x} + u_{y,y} + u_{z,z} + u_{w,w}")]), 5
    yield wave, 2
    for names in ("x t", "x y z"):
        ctx = JetContext.free(names, "u")
        for q in range(ctx.n):
            yield dbar_operator(ctx, q), 4


def test_theorem_delta_ranks_on_the_acceptance_operators():
    for op, l_max in _acceptance_operators():
        pt = random_point(op.ctx, op.coefficient_jet_order(), seed=3)
        sym = symbol(op, pt)
        table = _eliminated_table(sym, l_max)
        assert _dims_table(sym, op.cols, l_max, op.ctx.n) == table
        assert spencer_cohomology(op, l_max, pt=pt).dims == table[0]


def test_theorem_delta_ranks_on_seeded_operators():
    rng = random.Random(2024)
    nonzero = 0
    for trial in range(60):
        ctx = JetContext.free(rng.choice(("x t", "x y z")), rng.choice(("u", "u v")))
        rows = ctx.m + rng.randint(1, 2) if trial % 5 else ctx.m  # mostly overdetermined
        op = _sparse_operator(rng, ctx, rows, ctx.m, rng.randint(1, 2))
        pt = random_point(ctx, op.coefficient_jet_order(), seed=trial)
        sym = symbol(op, pt)
        table = _eliminated_table(sym, 4)
        assert _dims_table(sym, op.cols, 4, ctx.n) == table
        assert spencer_cohomology(op, 4, pt=pt).dims == table[0]
        nonzero += any(map(any, table[0]))
    assert nonzero >= 10  # tables with cohomology are among them


def test_theorem_delta_ranks_hold_at_a_degenerate_point():
    # x*u_{x,x} + u_{t,t} at x = 0: the symbol loses xi_x^2, and the ranks
    # the table takes from theorems still equal the eliminated ones there
    ctx = JetContext.free("x t", "u")
    op = linearize(ctx, [ctx.parse("x*u_{x,x} + u_{t,t}"), ctx.parse("u_{x,t}")])
    pt = JetPoint(ctx, 0, {**random_point(ctx, 0, seed=0).values, ctx.indep_coord("x"): 0})
    sym = symbol(op, pt)
    assert sym.entry(0, 0) == {(1, 1): 1}
    table = _eliminated_table(sym, 4)
    assert _dims_table(sym, op.cols, 4, ctx.n) == table
    assert table[0] != spencer_cohomology(op, 4, seed=0).dims


# ---------------------------------------------------------------------------
# The graded index tables the prolongation towers share
# ---------------------------------------------------------------------------


def test_index_tables_equal_direct_lookups():
    for n in range(1, 6):
        for r in range(4):
            basis = multiindices_upto(n, r)
            assert _taus(n, r) == tuple(basis)
            assert _positions(n, r) == {mu: basis.index(mu) for mu in basis}
        wide = multiindices_upto(n, 5)
        for top, sigma in itertools.product(range(3), multiindices_upto(n, 2)):
            assert _shifted(n, top, sigma) == tuple(
                wide.index(tuple(sorted(sigma + tau))) for tau in multiindices_upto(n, top))
            # C(nu + rho, nu) for nu = sigma, from the multiplicities of each index
            assert _binomials(n, top, sigma) == tuple(
                prod(comb(sigma.count(i) + rho.count(i), rho.count(i)) for i in range(n))
                for rho in multiindices_upto(n, top))
        # mu - e_i: remove one i from mu, then look the rest up in S^{r-1}
        for r in range(1, 6):
            lower = multiindices(n, r - 1)
            for mu, lowered in zip(multiindices(n, r), _lowerings(n, r), strict=True):
                assert lowered == {i: lower.index(mu[:mu.index(i)] + mu[mu.index(i) + 1:])
                                   for i in set(mu)}
    # the public basis stays the caller's own list
    assert multiindices_upto(2, 2) is not multiindices_upto(2, 2)


def _constant_operator(rng, ctx, rows, cols, order):
    """Seeded constant coefficients; entry (0, 0) has a term of the full order."""
    def entry(top):
        terms = {tuple(sorted(rng.randrange(ctx.n) for _ in range(rng.randint(0, order)))):
                 DiffPoly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                 for _ in range(rng.randint(0, 3))}
        if top:
            terms[(0,) * order] = DiffPoly.const(rng.choice((1, -2, Fraction(3, 2))))
        return ScalarCDiffOp({sigma: c for sigma, c in terms.items() if c})
    return CDiffOp(ctx, [[entry(s == j == 0) for j in range(cols)] for s in range(rows)])


def test_constant_tower_ranks_equal_the_dense_fiber_map_ranks():
    rng = random.Random(61)
    for n, levels in ((2, 3), (3, 2), (4, 1)):
        ctx = JetContext.free("x y z w"[:2 * n - 1], "u v")
        for order in (1, 2):
            for _ in range(2):
                op = _constant_operator(rng, ctx, rng.randint(1, 2), rng.randint(1, 2), order)
                pt = random_point(ctx, levels)
                ranks = _Tower(op, range(levels + 1)).ranks(pt)
                assert ranks == {l: sympy_rank(fiber_map(op, l, pt, declared_order=order).matrix)
                                 for l in range(levels + 1)}


def test_index_tables_are_keyed_by_sizes_and_multiindices(monkeypatch):
    keys = []

    def recording(table):
        def record(*args):
            keys.append(args)
            return table(*args)
        return record

    for name in ("_positions", "_taus", "_shifted", "_binomials"):
        monkeypatch.setattr(cdcalc.spencer, name, recording(getattr(cdcalc.spencer, name)))
    ctx = JetContext.free("x y z", "u")
    pt = random_point(ctx, 4)
    kept = weakref.ref(pt)
    check_formal_exactness(OperatorComplex([dbar_operator(ctx, q) for q in range(3)]), 1, pt=pt)
    cokernel_rank(linearize(ctx, [ctx.parse("u_x*u_{y,z} - u")]), 2, pt=pt)
    # n, r, top and multi-indices: no operator, point or tower is a key
    assert keys and {type(v) for key in keys for v in key} == {int, tuple}
    assert all(type(i) is int for key in keys for v in key if type(v) is tuple for i in v)
    del pt
    gc.collect()
    assert kept() is None  # nor is the point kept elsewhere
