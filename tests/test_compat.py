import time

import pytest

import cdcalc.jet
from cdcalc import (
    CDiffOp, JetContext, Metric, OperatorComplex, PointError, check_formal_exactness,
    cokernel_rank, dbar_operator, kline_report, linearize, parse_complex,
    parse_operator_matrix, random_point, star_operator,
)
from cdcalc.jet import MAX_PROLONGATION
from cdcalc.linalg import kernel_basis
from cdcalc.spencer import fiber_map

from conftest import split_samples


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
