import itertools
import random
import time
import warnings
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import cdcalc.compat
import cdcalc.jet
import cdcalc.ops
import cdcalc.spencer
from cdcalc import (
    CDiffOp, DiffPoly, JetContext, JetPoint, Metric, OperatorComplex, PointError,
    check_formal_exactness, cokernel_rank, dbar_operator, evaluate, generic_points,
    kline_report, linearize, parse_complex, parse_operator_matrix, parse_problem,
    random_point, spencer_cohomology, star_operator,
)
from cdcalc.jet import _DISAGREEMENT, MAX_PROLONGATION
from cdcalc.linalg import kernel_basis
from cdcalc.ops import ScalarCDiffOp
from cdcalc.spencer import fiber_map, jet_fiber_dim

from conftest import count_draws, rand_operator, split_samples, sympy_rank


@pytest.fixture
def ctx():
    return JetContext.free("x t", "u")


def derham2(ctx):
    return OperatorComplex([dbar_operator(ctx, 0), dbar_operator(ctx, 1)])


def test_complex_rejects_nonzero_composition(ctx):
    dx = CDiffOp.total(ctx, "x")
    with pytest.raises(ValueError, match="not a complex"):
        OperatorComplex([dx, dx])


def test_complex_rejects_shape_mismatch(ctx):
    with pytest.raises(ValueError, match="chain"):
        OperatorComplex([dbar_operator(ctx, 0), CDiffOp.zero(ctx, 1, 1)])


def test_complex_module_ranks(ctx):
    cplx = derham2(ctx)
    assert cplx.module_ranks == [1, 2, 1]
    assert cplx.orders == [1, 1]


def test_derham_exactness_table(ctx):
    report = check_formal_exactness(derham2(ctx), 3, seed=0)
    assert report.all_exact
    first = report.checks[0]
    assert first.dims == (6, 6, 1)
    assert first.ranks == (5, 1)
    assert first.defect == 0
    for c in report.checks:
        assert c.defect == 0


def test_derham_exactness_n3():
    ctx3 = JetContext.free("x y z", "u")
    cplx = OperatorComplex([dbar_operator(ctx3, 0), dbar_operator(ctx3, 1),
                            dbar_operator(ctx3, 2)])
    report = check_formal_exactness(cplx, 3, seed=0)
    assert report.all_exact
    assert {c.position for c in report.checks} == {1, 2}


def test_broken_complex_has_defect(ctx):
    # gradient followed by the zero map to a rank-1 module: the missing
    # curl truncation shows up as a defect once l reaches 1
    grad = dbar_operator(ctx, 0)
    zero = CDiffOp.zero(ctx, 1, 2)
    cplx = OperatorComplex([grad, zero], orders=[1, 1])
    report = check_formal_exactness(cplx, 2, seed=0)
    assert not report.all_exact
    assert report.first_defect == (1, 0)
    by_l = {c.l: c for c in report.checks}
    assert by_l[0].defect == 1


def test_maxwell_exactness():
    ctx4 = JetContext.free("x y z w", "u")
    g = Metric.diag([1, 1, 1, 1])
    wave = dbar_operator(ctx4, 2) @ star_operator(ctx4, g, 2) @ dbar_operator(ctx4, 1)
    cplx = OperatorComplex([wave, dbar_operator(ctx4, 3)])
    pt = random_point(ctx4, 3, seed=0)
    report = check_formal_exactness(cplx, 2, pt=pt)
    assert report.all_exact
    dims = [c.dims for c in report.checks]
    assert dims == [(140, 20, 1), (280, 60, 5), (504, 140, 15)]


def test_pform_compatibility_complex_p2_n5():
    # the degree-2 analogue of the Maxwell chain: length p+2 with the tail
    # given by the plain differential; exact at both interior positions
    ctx5 = JetContext.free("a b c d e", "u")
    g = Metric.diag([1, 1, 1, 1, 1])
    wave = dbar_operator(ctx5, 2) @ star_operator(ctx5, g, 3) \
        @ dbar_operator(ctx5, 2)
    cplx = OperatorComplex([wave, dbar_operator(ctx5, 3), dbar_operator(ctx5, 4)])
    report = check_formal_exactness(cplx, 1, pt=random_point(ctx5, 3, seed=0))
    assert report.all_exact
    assert {c.position for c in report.checks} == {1, 2}


def test_cokernel_examples(ctx):
    assert cokernel_rank(dbar_operator(ctx, 0), 1, seed=0) == 1
    assert cokernel_rank(CDiffOp.identity(ctx, 1), 3, seed=0) == 0
    kdv = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    assert cokernel_rank(kdv, 1, seed=0) == 0


def test_cokernel_consistency_against_kernel(ctx):
    # defining identity: codim = codomain - rank, cross-checked through an
    # independent kernel computation (rank = cols - dim ker)
    op = dbar_operator(ctx, 0)
    pt = random_point(ctx, 2, seed=1)
    fm = fiber_map(op, 1, pt)
    kdim = len(kernel_basis(fm.matrix, fm.domain_dim))
    rank_via_kernel = fm.domain_dim - kdim
    assert cokernel_rank(op, 1, pt=pt) == fm.codomain_dim - rank_via_kernel


def test_cokernel_requires_surjective_base(ctx):
    # D_x as a map into a rank-2 target is not onto at order 0
    bad = CDiffOp(ctx, [CDiffOp.total(ctx, "x").entries[0],
                        CDiffOp.zero(ctx, 1, 1).entries[0]])
    with pytest.raises(ValueError, match="surjective"):
        cokernel_rank(bad, 1, seed=0)


def test_cokernel_warns_when_samples_disagree(ctx, monkeypatch):
    op = parse_operator_matrix("D_{t} + x - 1\n(x - 1)*D_{x} + 1", ctx)
    samples = split_samples(ctx, 1)
    monkeypatch.setattr(cdcalc.jet, "generic_points", lambda *args, **kwargs: samples)
    with pytest.warns(RuntimeWarning, match="rank profiles disagree"):
        assert cokernel_rank(op, 1, seed=0) == 0
    assert cokernel_rank(op, 1, pt=samples[1]) == 1


def test_required_point_order(ctx):
    cplx = derham2(ctx)
    assert cplx.required_point_order(2) == 3
    with pytest.raises(PointError, match="need 3"):
        check_formal_exactness(cplx, 2, pt=random_point(ctx, 2, seed=0))


def test_cokernel_validates_k1(ctx):
    with pytest.raises(ValueError):
        cokernel_rank(dbar_operator(ctx, 0), 0, seed=0)


def test_kline_ranges():
    two = kline_report(2, 2)
    assert two.lines() == [
        "k: 2",
        "n: 2",
        "E1 vanishing: E1^{p,q} = 0 for p > 0 and q <= 0",
        "C-cohomology vanishing: H^i = 0 for i >= 2",
    ]
    gauge = kline_report(3, 4)
    assert "q <= 1" in gauge.lines()[2]
    pform = kline_report(1 + 2, 4)  # k = p + 2 with p = 1
    assert "q <= 1" in pform.lines()[2]
    with pytest.raises(ValueError):
        kline_report(1, 3)


def test_parse_complex_file(ctx):
    text = """
    # gradient then curl over n = 2
    independent x t
    dependent u
    operator 1 -> 2 order 1
    D_{x}
    D_{t}
    operator 2 -> 1 order 1
    -D_{t} ; D_{x}
    """
    cplx = parse_complex(text)
    assert cplx.module_ranks == [1, 2, 1]
    assert cplx.orders == [1, 1]
    report = check_formal_exactness(cplx, 1, seed=0)
    assert report.all_exact


def test_parse_complex_bad_header():
    with pytest.raises(ValueError, match="header"):
        parse_complex("independent x t\ndependent u\noperator 1 2\nD_{x}")
    # a shape or order that is not an ASCII integer, or a shape below 1, is a bad header too
    for header in ("operator 1 -> y", "operator x -> 1", "operator 1 -> 1 order k",
                   "operator 1 -> 1 order", "operator 1 -> 1 degree 1", "operator -1 -> 1",
                   "operator 1 -> 0", "operator 0 -> 1", "operator 1 -> -2",
                   "operator \u0661 -> 1", "operator 1_0 -> 1", "operator 1 -> 1 order \u0661"):
        with pytest.raises(ValueError) as info:
            parse_complex(f"independent x t\ndependent u\n{header}\nD_{{x}}")
        assert str(info.value) == f"bad operator header: {header!r}"


def test_parse_complex_rejects_a_declaration_after_the_operators():
    head = "independent x t\ndependent u\noperator 1 -> 2 order 1\nD_{x}\nD_{t}\n"
    for line in ("independent z", "dependent\tv", "parameter a b"):
        with pytest.raises(ValueError) as info:
            parse_complex(head + line + "\noperator 2 -> 1 order 1\n-D_{t} ; D_{x}\n")
        assert str(info.value) == f"declaration after the operators: {line!r}"
    # declarations before the operators may be split by any whitespace
    cplx = parse_complex("independent\tx t\ndependent  u\n" + head.split("\n", 2)[2])
    assert cplx.ctx.indep == ("x", "t") and cplx.module_ranks == [1, 2]


def test_prolongation_requests_are_bounded(ctx):
    for l_max in (-1, MAX_PROLONGATION + 1):
        with pytest.raises(ValueError, match=f"l_max must be in 0..15, got {l_max}"):
            check_formal_exactness(derham2(ctx), l_max, seed=0)
    kdv = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    for k1 in (0, MAX_PROLONGATION + 1, 100000):
        with pytest.raises(ValueError, match=f"k1 must be in 1..15, got {k1}"):
            cokernel_rank(kdv, k1, seed=0)
    text = ("independent x t\ndependent u\noperator 1 -> 2 order 100000\nD_{x}\nD_{t}\n"
            "operator 2 -> 1 order 1\n-D_{t} ; D_{x}\n")
    with pytest.raises(ValueError, match="order-100001 fiber map has 5000250003 "
                                         "coordinates, more than 2000"):
        check_formal_exactness(parse_complex(text), 2, seed=0)


def test_prolongation_bounds_at_their_edge():
    # the slowest accepted request of its kind runs well inside 10 s; one step
    # further is rejected.  KdV's cokernel at the largest depth k1 = 15 runs
    # under the three-point policy, as the CLI's `coker` does.
    ctx = JetContext.free("x t", "u")
    kdv = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    start = time.perf_counter()
    assert cokernel_rank(kdv, MAX_PROLONGATION, seed=0) == 0
    assert time.perf_counter() - start < 10
    # de Rham in n = 3: at l = 12 the curl's order-14 source fiber has
    # 3 * C(3 + 14, 3) = 2040 coordinates, past MAX_FIBER_DIM = 2000
    ctx3 = JetContext.free("x y z", "u")
    derham3 = OperatorComplex([dbar_operator(ctx3, q) for q in range(3)])
    pt = random_point(ctx3, derham3.required_point_order(12), seed=1)
    start = time.perf_counter()
    assert check_formal_exactness(derham3, 11, pt=pt).all_exact
    assert time.perf_counter() - start < 10
    with pytest.raises(ValueError, match="order-14 fiber map has 2040 coordinates"):
        check_formal_exactness(derham3, 12, pt=pt)


def test_fiber_size_errors_name_the_first_failure():
    # each position's sizes are checked at l_max and scanned level by level
    # only when they fail there, so the first error is the one met in
    # (position, level, role) order
    ctx2 = JetContext.free("x t", "u")
    # the incoming map's order-(62 + l) fiber fails from l = 2 (2016
    # coordinates); the outgoing map's order-l target, 700 * C(l + 2, 2)
    # coordinates, already at l = 1
    cplx = OperatorComplex([CDiffOp.zero(ctx2, 1, 1), CDiffOp.zero(ctx2, 700, 1)],
                           orders=[60, 0])
    for l_max in (1, 2, 3):
        with pytest.raises(ValueError, match="^the order-1 fiber map has 2100 coordinates"):
            check_formal_exactness(cplx, l_max, seed=0)
    assert len(check_formal_exactness(cplx, 0, seed=0).checks) == 1
    # only the second position fails, from l = 1
    zero = CDiffOp.zero(ctx2, 1, 1)
    cplx = OperatorComplex([zero, zero, CDiffOp.zero(ctx2, 700, 1)])
    with pytest.raises(ValueError, match="^the order-1 fiber map has 2100 coordinates"):
        check_formal_exactness(cplx, 3, seed=0)
    assert len(check_formal_exactness(cplx, 0, seed=0).checks) == 2


# Nonconstant coefficients near the bounds.  Each answer is pinned from the
# elimination in ascending graded column order, which took 64 s (the first
# system at k1 = 10) and 8 s (the two-equation system) in fresh processes;
# at k1 = 15 the first system did not finish there, so it is timed only.
_XYZ = "independent x y z\ndependent u\nequation u_{x,y} - u*u_{z} + x*u_{z,z}\n"
_XYZW = ("independent x y z w\ndependent u v\nequation u_{x,y} - v_{z,w} + u*v\n"
         "equation u_{z} + v_{x,x} - u_{w,w}\n")
_THREE = ("independent x y z\ndependent u\nequation u_{x,y} - u*u_{z}\n"
          "equation u_{y,z} - x*u_{x}\nequation u_{x,z} + y*u*u_{y}\n")
_KDV = (Path(__file__).resolve().parent.parent / "demos" / "data" / "kdv.prob").read_text()
_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("text, k1, expected", [
    (_XYZ, 10, 0), (_XYZ, MAX_PROLONGATION, None), (_XYZW, 7, 0),
    (_KDV, MAX_PROLONGATION, 0), (_THREE, 7, 143),
], ids=["xyz-10", "xyz-15", "xyzw-7", "kdv-15", "three-equations-7"])
def test_nonconstant_cokernels_near_the_bounds(text, k1, expected):
    # the linearization that `coker` ranks, under the three-point policy
    problem = parse_problem(text)
    op = linearize(problem.ctx_free, problem.equations)
    start = time.perf_counter()
    value = cokernel_rank(op, k1, seed=0)
    assert time.perf_counter() - start < 10
    if expected is not None:
        assert value == expected


# ---------------------------------------------------------------------------
# Prolongation towers against fiber maps built from their definition
# ---------------------------------------------------------------------------


def _graded(n, r):
    """Multi-indices of length <= r, by (length, lex)."""
    return [m for d in range(r + 1)
            for m in itertools.combinations_with_replacement(range(n), d)]


def _oracle_fiber_map(op, l, k, pt):
    """The level-l fiber map of ``op`` (declared order k) as a dense matrix.

    Row (s, tau) is D_tau applied to row s of ``op`` by repeated composition
    with D_i, evaluated at ``pt``; column (j, mu) holds the coefficient of
    D_mu on component j.
    """
    ctx = op.ctx
    taus, mus = _graded(ctx.n, l), _graded(ctx.n, k + l)
    rows = []
    for s in range(op.rows):
        for tau in taus:
            prolonged = CDiffOp(ctx, [op.entries[s]])
            for i in tau:
                prolonged = CDiffOp.total(ctx, i) @ prolonged
            row = [Fraction(0)] * (op.cols * len(mus))
            for j, entry in enumerate(prolonged.entries[0]):
                for mu, poly in entry.terms.items():
                    row[j * len(mus) + mus.index(mu)] = evaluate(poly, pt)
            rows.append(row)
    return rows


def _oracle_rank(op, l, k, pt):
    return sympy_rank(_oracle_fiber_map(op, l, k, pt))


def _chain_matches_the_oracle(cplx, l_max, seed, pt=None):
    """Ranks and fiber maps of a two-operator chain at ``pt`` or a seeded point."""
    if pt is None:
        pt = random_point(cplx.ctx, cplx.required_point_order(l_max), seed)
    (a, b), (ka, kb) = cplx.operators, cplx.orders
    for c in check_formal_exactness(cplx, l_max, pt=pt).checks:
        assert c.ranks == (_oracle_rank(a, kb + c.l, ka, pt), _oracle_rank(b, c.l, kb, pt))
        for op, l, k in ((a, kb + c.l, ka), (b, c.l, kb)):
            assert fiber_map(op, l, pt, declared_order=k).matrix == \
                _oracle_fiber_map(op, l, k, pt)


def _roles_match_the_oracle(op, l_max, seed, pt=None):
    ctx = op.ctx
    # op as the incoming map, declared one order above its actual order,
    # and as the outgoing map
    _chain_matches_the_oracle(OperatorComplex([op, CDiffOp.zero(ctx, 1, op.rows)],
                                              orders=[op.order + 1, 1]), l_max, seed, pt)
    _chain_matches_the_oracle(OperatorComplex([CDiffOp.zero(ctx, op.cols, 1), op],
                                              orders=[1, op.order]), l_max, seed, pt)


def _cokernels_match_the_oracle(op, k1_max, pt):
    assert _oracle_rank(op, 0, op.order, pt) == op.rows  # the cokernel needs an onto base
    for k1 in range(1, k1_max + 1):
        codim = op.rows * jet_fiber_dim(op.ctx.n, k1) - _oracle_rank(op, k1, op.order, pt)
        assert cokernel_rank(op, k1, pt=pt) == codim


def _towers_match_the_oracle(op, l_max, k1_max, seed):
    _roles_match_the_oracle(op, l_max, seed)
    _cokernels_match_the_oracle(
        op, k1_max, random_point(op.ctx, op.coefficient_jet_order() + k1_max, seed))


def test_random_operator_towers_match_the_oracle(ctx):
    rng = random.Random(41)
    for shape in ((2, 2), (1, 2), (2, 1)):
        _towers_match_the_oracle(rand_operator(rng, ctx, *shape), 2, 2, seed=5)


def test_kdv_tower_matches_the_oracle(ctx):
    kdv = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    _towers_match_the_oracle(kdv, 2, 3, seed=2)


def test_declared_order_tower_matches_the_oracle(ctx):
    # de Rham with both orders declared one above the actual order
    cplx = OperatorComplex([dbar_operator(ctx, 0), dbar_operator(ctx, 1)], orders=[2, 2])
    _chain_matches_the_oracle(cplx, 2, seed=3)


def test_constant_rational_tower_matches_the_oracle(ctx):
    # constant, non-integral coefficients: each row is shifted, not prolonged,
    # over the tower's one scale; in the second operator row 2 is 6 times
    # row 1, so only exact scales keep its ranks
    op = parse_operator_matrix("3/2*D_{x,x} - 1/3*D_{t} ; 2/5\n"
                               "1/7*D_{x,t} ; -5/4*D_{t} + 1/6", ctx)
    _towers_match_the_oracle(op, 2, 3, seed=4)
    _roles_match_the_oracle(parse_operator_matrix("1/2*D_{x} + 1/3*D_{t} ; 2/5\n"
                                                  "3*D_{x} + 2*D_{t} ; 12/5", ctx), 2, seed=4)


def test_fiber_map_rank_takes_the_tower_order():
    # eliminated lowest order first, the level-7 map's integers blow up; in
    # the tower's orderly ranking its rank is the tower's, and the oracle's
    ctx3 = JetContext.free("x y z", "u")
    lin = linearize(ctx3, [ctx3.parse("u_{x,y} - u*u_{z} + x*u_{z,z}")])
    pt = random_point(ctx3, lin.point_order(7), seed=0)
    for l in (2, 7):
        tower_rank = cdcalc.spencer._Tower(lin, (l,)).ranks(pt)[l]
        assert fiber_map(lin, l, pt).rank() == tower_rank
    assert tower_rank == jet_fiber_dim(3, 7)
    assert fiber_map(lin, 2, pt).rank() == _oracle_rank(lin, 2, lin.order, pt)
    assert fiber_map(lin, 3, pt, declared_order=3).rank() == _oracle_rank(lin, 3, 3, pt)
    # a tall map (more rows than nonzero columns) is ranked through its transpose
    three = parse_problem(_THREE)
    lin = linearize(three.ctx_free, three.equations)
    pt = random_point(three.ctx_free, lin.point_order(3), seed=0)
    fm = fiber_map(lin, 3, pt)
    assert len(fm.rows) > len({c for row in fm.rows for c in row})
    assert fm.rank() == _oracle_rank(lin, 3, lin.order, pt) \
        == cdcalc.spencer._Tower(lin, (3,)).ranks(pt)[3]


# Row 2 is x times row 1, so every prolonged row of it is a combination of
# prolonged rows of row 1 with coefficients that vary with the point: its
# ranks stay below full only if every entry is scaled exactly.
_DEPENDENT_ROWS = ("u*D_{x} + 1/3*u_x ; x*D_{t} - 1/2\n"
                   "x*u*D_{x} + 1/3*x*u_x ; x^2*D_{t} - 1/2*x")


def test_dependent_rows_match_the_oracle(ctx):
    _roles_match_the_oracle(parse_operator_matrix(_DEPENDENT_ROWS, ctx), 2, seed=7)


def test_point_past_the_denominator_bound_matches_the_oracle(ctx):
    # one value over 2^600 + 1 takes the point past MAX_POINT_DENOMINATOR,
    # so the towers rank Fraction rows
    pt = random_point(ctx, 6, seed=3)
    pt = JetPoint(ctx, pt.order_bound,
                  {**pt.values, ctx.jet_coord("u"): Fraction(5, 2 ** 600 + 1)})
    assert pt.scaled is None
    _roles_match_the_oracle(parse_operator_matrix(_DEPENDENT_ROWS, ctx), 2, None, pt)
    _cokernels_match_the_oracle(linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")]), 3, pt)


def test_evolution_mode_tower_matches_the_oracle():
    # D_t acts through u_t = u*u_x + u_{x,x,x} inside the prolonged
    # coefficients and raises their x-order by three each time, so the point
    # is drawn to order 1 + 3 * 3 for the level-3 maps
    ectx = JetContext.evolution("u", ["u*u_x + u_{x,x,x}"])
    pt = random_point(ectx, 10, seed=6)
    _roles_match_the_oracle(parse_operator_matrix(_DEPENDENT_ROWS, ectx), 2, None, pt)
    _cokernels_match_the_oracle(
        parse_operator_matrix("D_{t} - u*D_{x} - u_x - D_{x,x,x}", ectx), 2, pt)


def test_a_constant_and_a_varying_term_that_cancel_at_the_point(ctx):
    # in D_x(u*D_x + 2) the terms D_x(u) D_x and 2 D_x meet at column (u, x);
    # where u_x = -2 their sum is dropped, not stored as a zero.  At u = 0 the
    # term u D_{x,x} vanishes while the derivatives of u do not.
    op = parse_operator_matrix("u*D_{x} + 2", ctx)
    pt = random_point(ctx, 4, seed=8)
    pt = JetPoint(ctx, 4, {**pt.values, ctx.jet_coord("u"): Fraction(0),
                           ctx.jet_coord("u", "x"): Fraction(-2)})
    _roles_match_the_oracle(op, 2, None, pt)
    _cokernels_match_the_oracle(op, 3, pt)
    rows = cdcalc.spencer._Tower(op, (1,)).rows(pt)
    assert all(c for _, row in rows for c in row.values())
    fm = fiber_map(op, 1, pt)
    assert 1 not in fm.rows[1]  # row D_x, column (u, x)
    assert fm.matrix == _oracle_fiber_map(op, 1, 1, pt) and fm.matrix[1][1] == 0


def test_derivatives_that_end_and_that_never_end_in_one_row():
    # D_y x = 0 and D_x x = 1, whose derivatives vanish: x's branches end
    # after one step; u's derivatives never end
    ctx2 = JetContext.free("x y", "u")
    _towers_match_the_oracle(parse_operator_matrix("x*D_{y} + u*D_{x}", ctx2), 2, 3, seed=9)


def test_two_unknowns_of_mixed_orders_declared_above_the_actual_order():
    ctx2 = JetContext.free("x t", "u v")
    op = parse_operator_matrix("u*D_{x,t} + 1 ; v*D_{x}\nx*D_{t} ; D_{x,x} - t*v", ctx2)
    _towers_match_the_oracle(op, 2, 2, seed=10)  # the incoming role is declared order 3
    _chain_matches_the_oracle(OperatorComplex([op, CDiffOp.zero(ctx2, 1, 2)],
                                              orders=[op.order + 2, 1]), 1, seed=10)


def test_evolution_mode_tower_at_a_point_past_the_denominator_bound():
    # D_t substitutes u*u_x + u_{x,x,x}; one value over 2^600 + 1 sends
    # every evaluation down the Fraction path
    ectx = JetContext.evolution("u", ["u*u_x + u_{x,x,x}"])
    pt = random_point(ectx, 9, seed=11)
    pt = JetPoint(ectx, 9, {**pt.values, ectx.jet_coord("u", "x"): Fraction(3, 2 ** 600 + 1)})
    assert pt.scaled is None
    op = parse_operator_matrix("x*u*D_{t} + u_x*D_{x} - 1/2 ; t*D_{x,x}\n"
                               "D_{t} ; u*D_{x} + 1/3*u_x", ectx)
    _roles_match_the_oracle(op, 1, None, pt)
    _cokernels_match_the_oracle(op, 2, pt)


def _nonzero_int_rows(op, levels, pt):
    rows = [row for _, row in cdcalc.spencer._Tower(op, levels).rows(pt)]
    assert any(rows)
    assert all(type(v) is int and v for row in rows for v in row.values())
    return rows


def test_tower_rows_are_ints_with_no_zero_value(ctx):
    # the elimination reads each row's lead from its smallest key and
    # consumes the rows uncopied, so no tower may store a zero or a Fraction
    maxwell = [_wave(c := _free("x y z w"), 1, 2, 2), dbar_operator(c, 3)]
    for op in maxwell:
        _nonzero_int_rows(op, (0, 1, 2), random_point(c, 2, seed=0))
    kdv = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    for pt in generic_points(ctx, kdv.point_order(4), seed=1):
        _nonzero_int_rows(kdv, range(5), pt)
    explicit = {coord: Fraction(i % 7 - 3, i % 4 + 1)
                for i, coord in enumerate(random_point(ctx, kdv.point_order(4)).values)}
    _nonzero_int_rows(kdv, range(5), JetPoint(ctx, kdv.point_order(4), explicit))
    # D_x(u*D_x + 2) at u = 0, u_x = -2: a constant and a varying term cancel
    # at column (u, x), and u*D_{x,x} vanishes
    op = parse_operator_matrix("u*D_{x} + 2", ctx)
    pt = JetPoint(ctx, 4, {**random_point(ctx, 4, seed=8).values,
                           ctx.jet_coord("u"): Fraction(0), ctx.jet_coord("u", "x"): Fraction(-2)})
    assert -1 not in _nonzero_int_rows(op, (1,), pt)[1]  # row D_x, column (u, x)
    # the tall three-equation system, ranked through its transpose
    three = parse_problem((_GOLDEN / "three-equations.prob").read_text())
    lin = linearize(three.ctx_free, three.equations)
    rows = _nonzero_int_rows(lin, range(5), random_point(three.ctx_free, lin.point_order(4)))
    assert len(rows) > len({c for row in rows for c in row})
    # an evolution context at a point past MAX_POINT_DENOMINATOR: Fraction evaluation
    ectx = JetContext.evolution("u", ["u*u_x + u_{x,x,x}"])
    pt = random_point(ectx, 9, seed=11)
    pt = JetPoint(ectx, 9, {**pt.values, ectx.jet_coord("u", "x"): Fraction(3, 2 ** 600 + 1)})
    assert pt.scaled is None
    op = parse_operator_matrix("x*u*D_{t} + u_x*D_{x} - 1/2 ; t*D_{x,x}\n"
                               "D_{t} ; u*D_{x} + 1/3*u_x", ectx)
    _nonzero_int_rows(op, (0, 1, 2), pt)


def test_evolution_mode_cokernels_under_the_policy():
    # each D_t raises a coefficient's x-order by the right-hand side's order
    # r = 3, so the policy draws its three samples to order 1 + 3 * k1; the
    # answer is the codimension of the largest oracle rank among them
    ectx = JetContext.evolution("u", ["u*u_x + u_{x,x,x}"])
    op = parse_operator_matrix("D_{t} - u*D_{x} - u_x - D_{x,x,x}", ectx)
    for k1, seed in ((1, 0), (2, 3)):
        assert op.point_order(k1) == 1 + 3 * k1
        best = max(_oracle_rank(op, k1, op.order, pt)
                   for pt in generic_points(ectx, op.point_order(k1), seed))
        assert cokernel_rank(op, k1, seed=seed) == \
            op.rows * jet_fiber_dim(ectx.n, k1) - best
    # the same order bounds a chain of nonconstant evolution-mode operators
    op = parse_operator_matrix(_DEPENDENT_ROWS, ectx)
    cplx = OperatorComplex([op, CDiffOp.zero(ectx, 1, op.rows)], orders=[op.order, 1])
    assert cplx.required_point_order(1) == 1 + 3 * (1 + 1)
    profiles = [(_oracle_rank(op, 1, op.order, pt), 0, _oracle_rank(op, 2, op.order, pt), 0)
                for pt in generic_points(ectx, cplx.required_point_order(1), 5)]
    report = check_formal_exactness(cplx, 1, seed=5)
    assert tuple(r for c in report.checks for r in c.ranks) == max(profiles)
    # a right-hand side of order 0 still lets D_x raise the order by one
    lin = parse_operator_matrix("D_{t} - u*D_{x}", JetContext.evolution("u", ["x*u"]))
    assert lin.point_order(2) == 2


# ---------------------------------------------------------------------------
# Lead bounds against sympy ranks and the tower's own rows
# ---------------------------------------------------------------------------


def _constant_operator(rng, ctx, rows, cols):
    """Constant rational coefficients on D_sigma, |sigma| <= 2; some entries zero."""
    return CDiffOp(ctx, [[ScalarCDiffOp({
        tuple(sorted(rng.randrange(ctx.n) for _ in range(rng.randint(0, 2)))):
            DiffPoly.const(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 3))}) for _ in range(cols)] for _ in range(rows)])


def _with_zeros(rng, pt, count=3):
    """``pt`` with ``count`` of its coordinates set to 0."""
    zeros = dict.fromkeys(rng.sample(sorted(pt.values, key=repr), count), Fraction(0))
    return JetPoint(pt.ctx, pt.order_bound, {**pt.values, **zeros})


def _bounds_hold(op, levels, pt):
    """lo <= the sympy rank <= hi at each level; where a lead is predicted, every
    nonzero row's smallest key is the key of its entry's greatest term D_{sigma + tau}
    (found by brute force over the row's terms), and lo counts those keys.
    Gives the tower."""
    tower = cdcalc.spencer._Tower(op, levels)
    lows, highs = tower.lows(pt), tower.highs(levels)
    for l in levels:
        assert lows[l] <= _oracle_rank(op, l, op.order, pt) <= highs[l]
    n, top, m = op.ctx.n, tower.top, op.rows
    predicted = tower.constant or all(
        evaluate(max(((len(sigma), sigma, j), poly) for j, e in enumerate(row)
                     for sigma, poly in e.terms.items())[1], pt)
        for row in op.entries if any(e.terms for e in row))
    if not predicted:
        assert set(lows.values()) == {0}
        return tower
    taus, mus = _graded(n, top), _graded(n, top + op.order)
    rows = tower.rows(pt)
    for l in levels:
        leads = set()
        for t, tau in enumerate(taus[:jet_fiber_dim(n, l)]):
            for s, (_, row) in enumerate(rows[t * m:(t + 1) * m]):
                if row:
                    pos, j = max((mus.index(tuple(sorted(sigma + tau))), j)
                                 for j, e in enumerate(op.entries[s]) for sigma in e.terms)
                    assert min(row) == -pos * op.cols - j
                    leads.add(min(row))
        assert lows[l] == len(leads)
    return tower


def test_lead_bounds_hold_on_random_operators():
    rng = random.Random(0)
    for case in range(24):
        c = _free(("x t", "x y z")[case % 2]) if case % 4 < 2 else \
            JetContext.free(("x t", "x y z")[case % 2], "u v")
        shape = (rng.randint(1, 3), c.m if case % 3 else 1)
        constant = case < 12
        op = _constant_operator(rng, c, *shape) if constant else \
            rand_operator(rng, c, *shape, max_op_order=2, max_coeff_order=1)
        levels = (0, 1, 2) if c.n == 2 else (0, 1)
        pt = random_point(c, op.point_order(max(levels)), seed=case)
        for point in (pt, _with_zeros(rng, pt)):
            _bounds_hold(op, levels, point)


def test_lead_bounds_fall_back_to_the_elimination(ctx, monkeypatch):
    counts = _count_calls(monkeypatch, "_prefix_ranks")
    # u_{x,x} - u and u_{x,y}: D_y of the first less D_x of the second is -u_y,
    # which no lead predicts, so lo falls short of the rank and both the
    # cokernel and the chain eliminate
    c = _free("x y")
    op = parse_operator_matrix("D_{x,x} - 1\nD_{x,y}", c)
    pt = random_point(c, 3, seed=0)
    tower = _bounds_hold(op, (0, 1, 2), pt)
    lows = tower.lows(pt)
    ranks = tower.settled_ranks(pt, lows)
    assert counts["_prefix_ranks"] == 1
    assert ranks[0] == lows[0] and ranks[2] > lows[2]
    assert ranks == {l: _oracle_rank(op, l, 2, pt) for l in (0, 1, 2)}
    counts.clear()
    assert cokernel_rank(op, 2, pt=pt) == 2 * jet_fiber_dim(2, 2) - ranks[2]
    chain = OperatorComplex([op, CDiffOp.zero(c, 1, 2)], orders=[2, 1])
    report = check_formal_exactness(chain, 1, pt=pt)
    assert [check.ranks for check in report.checks] == [(ranks[1], 0), (ranks[2], 0)]
    # at l_max = 0 the level-1 map alone: its 5 leads are one short of the
    # 6 rows of the middle fiber, so the complex certifies nothing
    assert lows[1] + 1 == ranks[1] == 2 * jet_fiber_dim(2, 1)
    assert check_formal_exactness(chain, 0, pt=pt).checks[0].ranks == (ranks[1], 0)
    assert counts["_prefix_ranks"] == 1 + 1 + 1
    # u*D_{x,x} + D_x at u = 0: D_x(u) D_x leads the row D_x of it, not u D_{x,x,x},
    # so there are no bounds and the ranks are eliminated
    op = parse_operator_matrix("u*D_{x,x} + D_{x}", c)
    pt = JetPoint(c, 3, {**random_point(c, 3, seed=1).values, c.jet_coord("u"): Fraction(0)})
    tower = _bounds_hold(op, (0, 1, 2), pt)
    assert tower.lows(pt) == {0: 0, 1: 0, 2: 0}
    counts.clear()
    assert tower.settled_ranks(pt, tower.lows(pt)) == \
        {l: _oracle_rank(op, l, 2, pt) for l in (0, 1, 2)}
    assert counts["_prefix_ranks"] == 1
    # the broken chain's defect is read off settled bounds: grad's every column
    # leads, the zero map has no row
    counts.clear()
    report = check_formal_exactness(
        OperatorComplex([dbar_operator(ctx, 0), CDiffOp.zero(ctx, 1, 2)], orders=[1, 1]), 2, seed=0)
    # the order-(l + 1) jets of the two components, less grad's image: every jet of u but u
    assert [check.defect for check in report.checks] == \
        [2 * jet_fiber_dim(2, l + 1) - (jet_fiber_dim(2, l + 2) - 1) for l in range(3)]
    assert counts["_prefix_ranks"] == 0
    # the wave operator's gauge freedom leaves its cokernel to the elimination
    wave = _wave(_free("x y z w"), 1, 2, 2)
    assert cokernel_rank(wave, 1, seed=0) == comb(3 + 1, 4)
    assert counts["_prefix_ranks"] == 1


# ---------------------------------------------------------------------------
# One tower per call: the work it saves, and the work it must not skip
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name, owner=cdcalc.spencer, counts=None):
    """Count the calls of ``owner.<name>`` into ``counts``, passing them through."""
    counts = Counter() if counts is None else counts
    original = getattr(owner, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return counts


def _count_bounds_and_eliminations(monkeypatch):
    """Count each tower's lead count (``_Tower._count_leads``), ``_prefix_ranks`` and ``rank``."""
    counts = _count_calls(monkeypatch, "_count_leads", cdcalc.spencer._Tower)
    _count_calls(monkeypatch, "_prefix_ranks", counts=counts)
    _count_calls(monkeypatch, "rank", counts=counts)
    return counts


def test_constant_coefficients_are_ranked_once_per_call(ctx, monkeypatch):
    counts = _count_bounds_and_eliminations(monkeypatch)
    cplx = derham2(ctx)
    policy = check_formal_exactness(cplx, 3, seed=0)
    at_point = check_formal_exactness(cplx, 3, pt=random_point(ctx, 4, seed=0))
    # one lead count per tower and call; the leads and the complex settle every rank
    assert counts == {"_count_leads": 2 + 2}
    assert policy.checks == at_point.checks
    grad = dbar_operator(ctx, 0)
    counts.clear()
    assert cokernel_rank(grad, 2, seed=0) == cokernel_rank(grad, 2, pt=random_point(ctx, 2))
    assert counts == {"_count_leads": 1 + 1}  # tall: every nonzero column leads a row
    # u_{x,x} - u and u_{x,y}: D_y of the first less D_x of the second is -u_y,
    # below both leads, so each call eliminates its one tower once, all levels
    op = parse_operator_matrix("D_{x,x} - 1\nD_{x,t}", ctx)
    chain = OperatorComplex([op, CDiffOp.zero(ctx, 1, 2)])
    counts.clear()
    assert cokernel_rank(op, 2, seed=0) == cokernel_rank(op, 2, pt=random_point(ctx, 2))
    check_formal_exactness(chain, 2, seed=0)
    assert counts == {"_count_leads": 1 + 1 + 2, "_prefix_ranks": 1 + 1 + 1}


def test_variable_coefficients_are_ranked_at_every_sample(ctx, monkeypatch):
    counts = _count_bounds_and_eliminations(monkeypatch)
    # KdV's coefficients vary, but its constant lead -D_{x,x,x} settles every
    # rank unread, so one sample serves: its leads are counted once
    kdv = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    assert cokernel_rank(kdv, 2, seed=0) == 0
    assert counts == {"_count_leads": 1}
    counts.clear()
    assert check_formal_exactness(OperatorComplex([kdv, CDiffOp.zero(ctx, 1, 1)]), 2,
                                  seed=0).all_exact
    assert counts == {"_count_leads": 1 + 1}
    # the lead -u*D_{x,x} of u_t - u*u_{x,x} varies: counted once per sample,
    # for levels 0 and k1
    heat = linearize(ctx, [ctx.parse("u_t - u*u_{x,x}")])
    counts.clear()
    assert cokernel_rank(heat, 2, seed=0) == 0
    assert counts == {"_count_leads": 3}
    # a certified chain of a varying lead: its leads at each sample, the
    # constant zero map's once, and no elimination
    counts.clear()
    assert check_formal_exactness(OperatorComplex([heat, CDiffOp.zero(ctx, 1, 1)]), 2,
                                  seed=0).all_exact
    assert counts == {"_count_leads": 3 + 1}
    # a chain whose middle sample sees a smaller rank still reports it
    op = parse_operator_matrix("D_{t} + x - 1\n(x - 1)*D_{x} + 1", ctx)
    cplx = OperatorComplex([op, CDiffOp.zero(ctx, 1, 2)], orders=[1, 1])
    samples = split_samples(ctx, cplx.required_point_order(1))
    monkeypatch.setattr(cdcalc.jet, "generic_points", lambda *args, **kwargs: samples)
    counts.clear()
    report = check_formal_exactness(cplx, 1, seed=0)
    assert report.warnings == [_DISAGREEMENT]
    # the rows' leads D_t and D_x meet at D_{x,t}, so levels 1, 2 of the
    # incoming map are eliminated at each sample; the constant zero map's
    # leads are counted once and settle it
    assert counts == {"_count_leads": 3 + 1, "_prefix_ranks": 3}
    assert report.checks == check_formal_exactness(cplx, 1, pt=samples[0]).checks


def test_a_wrong_tower_rank_shows(ctx, monkeypatch):
    # a tower rank comes from its lead bounds (lo == hi, or lo certified by the
    # complex) or from its one elimination: lower the top level's rank at each
    # source, and the chains report defects and the cokernels move
    grad = dbar_operator(ctx, 0)
    wave = _wave(_free("x y z w"), 1, 2, 2)
    cokernels = [(grad, 2), (wave, 1)]  # the wave operator's leads do not settle it
    before = [cokernel_rank(op, k1, seed=0) for op, k1 in cokernels]
    assert before[1] == comb(3 + 1, 4)  # the closed form of the benchmark's oracle
    calls = [_ONE_SAMPLE[case]()[2] for case in ("derham2", "maxwell")]
    assert not any(c.defect for call in calls for c in call(None, 0)[0])
    tower = cdcalc.spencer._Tower
    sources = {(tower, "lows"): tower.lows, (tower, "highs"): tower.highs,
               (cdcalc.spencer, "_prefix_ranks"): cdcalc.spencer._prefix_ranks}

    def lowered(owner, name):
        original = sources[owner, name]
        if name == "_prefix_ranks":
            return lambda rows, ends: [r - (end == max(ends))
                                       for r, end in zip(original(rows, ends), ends)]
        return lambda self, *args: {l: r - (l == self.top)
                                    for l, r in original(self, *args).items()}

    def plant(*names):
        for (owner, name), original in sources.items():
            monkeypatch.setattr(owner, name, lowered(owner, name) if name in names else original)
        return [cokernel_rank(op, k1, seed=0) for op, k1 in cokernels]

    assert plant("lows", "highs", "_prefix_ranks") == [before[0] + 1, before[1] + 1]
    for call in calls:
        assert any(c.defect for c in call(None, 0)[0])
    # each source alone: the bounds settle the de Rham chain and the gradient
    # cokernel, the elimination ranks the wave cokernel
    assert plant("lows", "highs") == [before[0] + 1, before[1]]
    assert any(c.defect for c in calls[0](None, 0)[0])
    assert plant("_prefix_ranks") == [before[0], before[1] + 1]
    assert not any(c.defect for call in calls for c in call(None, 0)[0])


def test_prolongation_is_built_once_per_call(ctx, monkeypatch):
    # a tower takes each nonzero D_nu a once per call, on its first rows, from
    # D_(nu less its last index) a, whatever the number of samples: one D_i
    # per child of a nonzero node.  KdV's varying coefficients u and u_x never
    # end; its lead, -D_{x,x,x}, settles every rank, so ranking it builds no row.
    counts = _count_calls(monkeypatch, "total_derivative")
    kdv = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    for pt in (None, random_point(ctx, kdv.point_order(3), seed=1)):
        counts["total_derivative"] = 0
        assert cokernel_rank(kdv, 3, pt=pt, seed=0) == 0
        assert counts["total_derivative"] == 0
    tower = cdcalc.spencer._Tower(kdv, (0, 3))
    assert counts["total_derivative"] == 0
    for pt in generic_points(ctx, kdv.point_order(3), seed=0):
        assert tower.ranks(pt) == {0: 1, 3: jet_fiber_dim(2, 3)}
    assert counts["total_derivative"] == 2 * (jet_fiber_dim(2, 3) - 1)
    # x ends after one step: D_x x = 1, D_t x = 0, then D_x 1 = D_t 1 = 0
    # end every branch; the constant coefficients take no derivative.  The
    # leads D_x and u*D_t meet at D_{x,t}, so the rows are built
    op = parse_operator_matrix("D_{x} ; 0\nu*D_{t} ; x*D_{x}", JetContext.free("x t", "u v"))
    counts["total_derivative"] = 0
    cokernel_rank(op, 2, seed=0)
    assert counts["total_derivative"] == (jet_fiber_dim(2, 2) - 1) + 2 + 2


def test_constant_towers_are_ranked_unprolonged(ctx, monkeypatch):
    cplx = derham2(ctx)  # built first: its composition check prolongs
    grad = dbar_operator(ctx, 0)
    pt = random_point(ctx, 2, seed=1)
    counts = Counter()
    for owner, name in ((cdcalc.spencer, "total_derivative"),
                        (cdcalc.ops, "total_derivative"), (DiffPoly, "evaluate")):
        _count_calls(monkeypatch, name, owner, counts)
    assert check_formal_exactness(cplx, 3, seed=0).all_exact
    # the order-3 jets of u beyond u itself, in the 2 * C(4, 2) rows
    assert cokernel_rank(grad, 2, seed=0) == 2 * jet_fiber_dim(2, 2) - (jet_fiber_dim(2, 3) - 1)
    # a fiber map re-keys the same shifted rows
    fm = fiber_map(grad, 2, pt)
    assert sum(counts.values()) == 0
    assert fm.matrix == _oracle_fiber_map(grad, 2, 1, pt)


# ---------------------------------------------------------------------------
# One policy sample when a call reads no value of its point
# ---------------------------------------------------------------------------


def _policy_runs(monkeypatch):
    """The point of each run of the sample policy, as called from compat and spencer."""
    runs = []
    original = cdcalc.jet._at_generic_points

    def counted(ctx, needed_order, pt, seed, compute):
        def run(point):
            runs.append(point)
            return compute(point)
        return original(ctx, needed_order, pt, seed, run)

    for module in (cdcalc.compat, cdcalc.spencer):
        monkeypatch.setattr(module, "_at_generic_points", counted)
    return runs


def _exactness(cplx, l_max):
    def call(pt, seed):
        report = check_formal_exactness(cplx, l_max, pt=pt, seed=seed)
        return report.checks, report.warnings
    return cplx.ctx, cplx.required_point_order(l_max), call


def _cokernel(op, k1):
    def call(pt, seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = cokernel_rank(op, k1, pt=pt, seed=seed)
        return value, [str(w.message) for w in caught]
    return op.ctx, op.point_order(k1), call


def _spencer_table(op, l_max):
    def call(pt, seed):
        report = spencer_cohomology(op, l_max, pt=pt, seed=seed)
        return report.dims, report.warnings
    return op.ctx, op.coefficient_jet_order(), call


def _wave(ctx, first, star_q, last):
    g = Metric.diag([1] * ctx.n)
    return dbar_operator(ctx, last) @ star_operator(ctx, g, star_q) @ dbar_operator(ctx, first)


def _free(names):
    return JetContext.free(names, "u")


def _derham(ctx):
    return OperatorComplex([dbar_operator(ctx, q) for q in range(ctx.n)])


def _kdv(ctx):
    return linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])


_ONE_SAMPLE = {
    "derham2": lambda: _exactness(_derham(_free("x t")), 3),
    "derham3": lambda: _exactness(_derham(_free("x y z")), 2),
    "maxwell": lambda: _exactness(OperatorComplex(
        [_wave(c := _free("x y z w"), 1, 2, 2), dbar_operator(c, 3)]), 1),
    "gauge-p2n5": lambda: _exactness(OperatorComplex(
        [_wave(c := _free("a b c d e"), 2, 3, 2), dbar_operator(c, 3), dbar_operator(c, 4)]), 0),
    "broken2": lambda: _exactness(OperatorComplex(
        [dbar_operator(c := _free("x t"), 0), CDiffOp.zero(c, 1, 2)], orders=[1, 1]), 2),
    "grad2-coker": lambda: _cokernel(dbar_operator(_free("x t"), 0), 3),
    "grad3-coker": lambda: _cokernel(dbar_operator(_free("x y z"), 0), 2),
    # varying coefficients under a constant lead -D_{x,x,x}, which settles every
    # rank, and a constant symbol over nonconstant lower-order terms
    "kdv-coker": lambda: _cokernel(_kdv(_free("x t")), 2),
    "kdv-chain": lambda: _exactness(OperatorComplex(
        [_kdv(c := _free("x t")), CDiffOp.zero(c, 1, 1)]), 2),
    "kdv-spencer": lambda: _spencer_table(_kdv(_free("x t")), 2),
}


@pytest.mark.parametrize("case", sorted(_ONE_SAMPLE))
def test_constant_coefficients_take_one_sample(case, monkeypatch):
    ctx, needed, call = _ONE_SAMPLE[case]()
    runs = _policy_runs(monkeypatch)
    draws = count_draws(monkeypatch)
    for seed in (0, 7):
        policy = call(None, seed)
        assert len(runs) == 1 and draws == []
        # the answer at each of the three samples the policy would take after a read
        for pt in generic_points(ctx, needed, seed):
            assert call(pt, seed) == policy
        runs.clear()
        draws.clear()


def test_variable_coefficients_take_three_samples(ctx, monkeypatch):
    runs = _policy_runs(monkeypatch)
    # a chain whose first operator varies, though its second is constant
    op = parse_operator_matrix("D_{t} + x - 1\n(x - 1)*D_{x} + 1", ctx)
    check_formal_exactness(OperatorComplex([op, CDiffOp.zero(ctx, 1, 2)], orders=[1, 1]),
                           1, seed=0)
    # a varying lead, and a symbol with a nonconstant coefficient
    heat = linearize(ctx, [ctx.parse("u_t - u*u_{x,x}")])
    cokernel_rank(heat, 1, seed=0)
    spencer_cohomology(heat, 1, seed=0)
    assert [point.seed for point in runs] == [0, 1, 2] * 3


# ---------------------------------------------------------------------------
# What each call reads of its points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(_ONE_SAMPLE))
def test_constant_coefficients_read_no_point_values(case, monkeypatch):
    ctx, needed, call = _ONE_SAMPLE[case]()
    draws = count_draws(monkeypatch)
    policy = call(None, 3)
    assert call(random_point(ctx, needed, seed=3), 3) == policy
    assert draws == []


def test_a_varying_lead_reads_each_of_its_samples(ctx, monkeypatch):
    heat = linearize(ctx, [ctx.parse("u_t - u*u_{x,x}")])
    cplx = OperatorComplex([heat, CDiffOp.zero(ctx, 1, 1)], orders=[2, 1])
    draws = count_draws(monkeypatch)
    assert cokernel_rank(heat, 2, seed=4) == 0
    assert check_formal_exactness(cplx, 1, seed=5).checks
    # generic_points' seeds: seed * 3 + k for its three samples
    assert [seed for _, _, seed in draws] == [12, 13, 14, 15, 16, 17]
