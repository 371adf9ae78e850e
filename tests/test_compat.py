import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import cdcalc.jet
import cdcalc.spencer
from cdcalc import (
    CDiffOp, JetContext, Metric, OperatorComplex, PointError, check_formal_exactness,
    cokernel_rank, dbar_operator, evaluate, kline_report, linearize, parse_complex,
    parse_operator_matrix, random_point, star_operator,
)
from cdcalc.jet import _DISAGREEMENT, MAX_PROLONGATION
from cdcalc.linalg import kernel_basis
from cdcalc.spencer import fiber_map, jet_fiber_dim

from conftest import rand_operator, split_samples, sympy_rank


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


def _chain_matches_the_oracle(cplx, l_max, seed):
    """Ranks and fiber maps of a two-operator chain at a seeded point."""
    pt = random_point(cplx.ctx, cplx.required_point_order(l_max), seed)
    (a, b), (ka, kb) = cplx.operators, cplx.orders
    for c in check_formal_exactness(cplx, l_max, pt=pt).checks:
        assert c.ranks == (_oracle_rank(a, kb + c.l, ka, pt), _oracle_rank(b, c.l, kb, pt))
        for op, l, k in ((a, kb + c.l, ka), (b, c.l, kb)):
            assert fiber_map(op, l, pt, declared_order=k).matrix == \
                _oracle_fiber_map(op, l, k, pt)


def _towers_match_the_oracle(op, l_max, k1_max, seed):
    ctx = op.ctx
    # op as the incoming map, declared one order above its actual order,
    # and as the outgoing map
    _chain_matches_the_oracle(OperatorComplex([op, CDiffOp.zero(ctx, 1, op.rows)],
                                              orders=[op.order + 1, 1]), l_max, seed)
    _chain_matches_the_oracle(OperatorComplex([CDiffOp.zero(ctx, op.cols, 1), op],
                                              orders=[1, op.order]), l_max, seed)
    pt = random_point(ctx, op.coefficient_jet_order() + k1_max, seed)
    assert _oracle_rank(op, 0, op.order, pt) == op.rows  # the cokernel needs an onto base
    for k1 in range(1, k1_max + 1):
        codim = op.rows * jet_fiber_dim(ctx.n, k1) - _oracle_rank(op, k1, op.order, pt)
        assert cokernel_rank(op, k1, pt=pt) == codim


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


# ---------------------------------------------------------------------------
# One tower per call: the work it saves, and the work it must not skip
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, name):
    """Count the calls of ``cdcalc.spencer.<name>``, passing them through."""
    counts = Counter()
    original = getattr(cdcalc.spencer, name)

    def counted(*args):
        counts[name] += 1
        return original(*args)

    monkeypatch.setattr(cdcalc.spencer, name, counted)
    return counts


def test_constant_coefficients_are_ranked_once_per_call(ctx, monkeypatch):
    counts = _count_calls(monkeypatch, "rank")
    cplx = derham2(ctx)
    policy = check_formal_exactness(cplx, 3, seed=0)
    at_policy, counts["rank"] = counts["rank"], 0
    at_point = check_formal_exactness(cplx, 3, pt=random_point(ctx, 4, seed=0))
    assert counts["rank"] == at_policy > 0
    assert policy.checks == at_point.checks
    grad = dbar_operator(ctx, 0)
    counts["rank"] = 0
    assert cokernel_rank(grad, 2, seed=0) == cokernel_rank(grad, 2, pt=random_point(ctx, 2))
    assert counts["rank"] == 2 + 2


def test_variable_coefficients_are_ranked_at_every_sample(ctx, monkeypatch):
    counts = _count_calls(monkeypatch, "rank")
    kdv = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    assert cokernel_rank(kdv, 2, seed=0) == 0
    assert counts["rank"] == 3 * 2  # levels 0 and k1 at each of three samples
    # a chain whose middle sample sees a smaller rank still reports it
    op = parse_operator_matrix("D_{t} + x - 1\n(x - 1)*D_{x} + 1", ctx)
    cplx = OperatorComplex([op, CDiffOp.zero(ctx, 1, 2)], orders=[1, 1])
    samples = split_samples(ctx, cplx.required_point_order(1))
    monkeypatch.setattr(cdcalc.jet, "generic_points", lambda *args, **kwargs: samples)
    counts["rank"] = 0
    report = check_formal_exactness(cplx, 1, seed=0)
    assert report.warnings == [_DISAGREEMENT]
    # levels 1, 2 of the incoming map at each sample; levels 0, 1 of the
    # constant outgoing map once
    assert counts["rank"] == 3 * 2 + 2
    assert report.checks == check_formal_exactness(cplx, 1, pt=samples[0]).checks


def test_prolongation_is_built_once_per_call(ctx, monkeypatch):
    counts = _count_calls(monkeypatch, "_left_Di")
    kdv = linearize(ctx, [ctx.parse("u_t - u*u_x - u_{x,x,x}")])
    assert cokernel_rank(kdv, 3, seed=0) == 0
    # one D_i per tau with 0 < |tau| <= 3 and nonzero entry, whatever the samples
    assert counts["_left_Di"] == jet_fiber_dim(2, 3) - 1
    op = parse_operator_matrix("D_{x} ; 0\nu*D_{t} ; D_{x}", JetContext.free("x t", "u v"))
    counts["_left_Di"] = 0
    cokernel_rank(op, 2, seed=0)
    assert counts["_left_Di"] == 3 * (jet_fiber_dim(2, 2) - 1)
