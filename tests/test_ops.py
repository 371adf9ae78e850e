import random
from fractions import Fraction

import pytest

import cdcalc.ops
from cdcalc import (
    CDiffOp, DiffPoly, HorizontalForm, JetContext, adjoint, compose, dbar_operator,
    format_operator, green_remainder, linearize, pairing,
    parse_operator_matrix, parse_scalar_op, total_derivative,
)
from cdcalc.ops import ScalarCDiffOp

from conftest import SympyJets, rand_operator, rand_poly


@pytest.fixture
def ctx():
    return JetContext.free("x t", "u")


@pytest.fixture
def kdv(ctx):
    return [ctx.parse("u_t - u*u_x - u_{x,x,x}")]


def test_apply_examples(ctx, kdv):
    dx = CDiffOp.total(ctx, "x")
    assert dx([ctx.parse("u^2")]) == [ctx.parse("2*u*u_x")]
    ident = CDiffOp.identity(ctx, 1)
    f = ctx.parse("u*u_t + 1/3")
    assert ident([f]) == [f]
    lf = linearize(ctx, kdv)
    assert lf([ctx.parse("u_x")]) == [ctx.parse("u_xt - u*u_xx - u_x^2 - u_xxxx")]


def test_float_coefficients_are_rejected(ctx):
    op = CDiffOp.total(ctx, "x")
    q = [ctx.parse("u")]
    for bad in (lambda: op([0.1]), lambda: green_remainder(op, [0.5], q),
                lambda: green_remainder(op, q, [0.5]), lambda: op.scale(0.5)):
        with pytest.raises(TypeError, match="int or Fraction"):
            bad()
    assert op.scale(Fraction(1, 2)) == parse_operator_matrix("1/2*D_{x}", ctx)


def test_apply_dimension_mismatch(ctx):
    dx = CDiffOp.total(ctx, "x")
    with pytest.raises(ValueError):
        dx([ctx.parse("u"), ctx.parse("u_x")])


def test_compose_examples(ctx):
    dx = CDiffOp.total(ctx, "x")
    mult_u = CDiffOp.multiplication(ctx, ctx.parse("u"))
    assert dx @ mult_u == parse_operator_matrix("u*D_{x} + u_x", ctx)
    zero = CDiffOp.zero(ctx, 1, 1)
    assert (dx @ zero).is_zero()
    assert dx @ dx == parse_operator_matrix("D_{x,x}", ctx)


def test_compose_apply_compatible(ctx):
    rng = random.Random(7)
    for _ in range(25):
        a = rand_operator(rng, ctx, 2, 2)
        b = rand_operator(rng, ctx, 2, 2)
        v = [rand_poly(rng, ctx), rand_poly(rng, ctx)]
        assert (a @ b)(v) == a(b(v))


def test_compose_associative(ctx):
    rng = random.Random(8)
    for _ in range(10):
        a = rand_operator(rng, ctx, 1, 2, max_op_order=1)
        b = rand_operator(rng, ctx, 2, 2, max_op_order=1)
        c = rand_operator(rng, ctx, 2, 1, max_op_order=1)
        assert (a @ b) @ c == a @ (b @ c)


def test_compose_order_bound(ctx):
    rng = random.Random(9)
    for _ in range(20):
        a = rand_operator(rng, ctx, 1, 1, max_op_order=2)
        b = rand_operator(rng, ctx, 1, 1, max_op_order=2)
        assert (a @ b).order <= a.order + b.order


def test_adjoint_examples(ctx):
    dx = CDiffOp.total(ctx, "x")
    assert adjoint(dx) == parse_operator_matrix("-D_{x}", ctx)
    u_dx = parse_operator_matrix("u*D_{x}", ctx)
    assert adjoint(u_dx) == parse_operator_matrix("-u*D_{x} - u_x", ctx)


def test_adjoint_kdv_golden(ctx, kdv):
    lf = linearize(ctx, kdv)
    assert lf == parse_operator_matrix("D_{t} - u*D_{x} - u_x - D_{x,x,x}", ctx)
    assert adjoint(lf) == parse_operator_matrix("-D_{t} + u*D_{x} + D_{x,x,x}", ctx)


def test_adjoint_involution_and_contravariance(ctx):
    rng = random.Random(10)
    for _ in range(20):
        a = rand_operator(rng, ctx, 2, 2)
        b = rand_operator(rng, ctx, 2, 2)
        assert adjoint(adjoint(a)) == a
        assert adjoint(a @ b) == adjoint(b) @ adjoint(a)


def test_adjoint_keeps_zero_and_single_term_entries(ctx):
    op = parse_operator_matrix("0 ; u*D_{x,x}\n1/2*D_{t} - u ; 0", ctx)
    assert adjoint(op) == parse_operator_matrix(
        "0 ; -1/2*D_{t} - u\nu*D_{x,x} + 2*u_x*D_{x} + u_xx ; 0", ctx)
    assert adjoint(CDiffOp.zero(ctx, 2, 3)) == CDiffOp.zero(ctx, 3, 2)


def test_adjoint_transposes_shape(ctx):
    rng = random.Random(11)
    op = rand_operator(rng, ctx, 3, 2)
    adj = adjoint(op)
    assert (adj.rows, adj.cols) == (2, 3)


def test_linearize_examples(ctx):
    const = [DiffPoly.const(1)]
    assert linearize(ctx, const).is_zero()
    f = ctx.parse("u")
    g = ctx.parse("u_x")
    lhs = linearize(ctx, [f * g])
    rhs_f = linearize(ctx, [f])
    rhs_g = linearize(ctx, [g])
    want = rhs_g.scale(f) + rhs_f.scale(g)
    assert lhs == want


def test_linearize_requires_free_mode():
    ctx = JetContext.evolution("u", ["u_xx"])
    with pytest.raises(ValueError):
        linearize(ctx, [ctx.parse("u_x")])


def test_linearize_commutes_with_total_derivative(ctx):
    rng = random.Random(12)
    for _ in range(15):
        f = rand_poly(rng, ctx, max_order=2)
        lhs = linearize(ctx, [total_derivative(ctx, "x", f)])
        rhs = CDiffOp.total(ctx, "x") @ linearize(ctx, [f])
        assert lhs == rhs


def green_identity_holds(ctx, op, p, q):
    lhs = pairing(q, op(p)) - pairing(adjoint(op)(q), p)
    rhs = DiffPoly.zero()
    for i, r in enumerate(green_remainder(op, p, q)):
        rhs = rhs + total_derivative(ctx, i, r)
    return lhs == rhs


def test_green_remainder_examples():
    ctx1 = JetContext.free("x", "u v")
    dx = CDiffOp.total(ctx1, "x")
    p = [ctx1.parse("u^2")]
    q = [ctx1.parse("v")]
    assert green_remainder(dx, p, q) == [ctx1.parse("v*u^2")]
    dxx = CDiffOp.total(ctx1, "x", "x")
    assert green_remainder(dxx, p, q) == [ctx1.parse("v*2*u*u_x - v_x*u^2")]
    zero_p = [DiffPoly.zero()]
    assert green_remainder(dxx, zero_p, q) == [DiffPoly.zero()]


def test_green_identity_random():
    rng = random.Random(13)
    ctx3 = JetContext.free("x y z", "u v")
    for _ in range(10):
        op = rand_operator(rng, ctx3, 2, 2, max_op_order=3)
        p = [rand_poly(rng, ctx3), rand_poly(rng, ctx3)]
        q = [rand_poly(rng, ctx3), rand_poly(rng, ctx3)]
        assert green_identity_holds(ctx3, op, p, q)


def test_dbar_operator_squares_to_zero():
    ctx3 = JetContext.free("x y z", "u")
    for q in range(0, 2):
        d2 = dbar_operator(ctx3, q + 1) @ dbar_operator(ctx3, q)
        assert d2.is_zero()


def test_dbar_operator_matches_forms():
    from cdcalc import HorizontalForm, dbar, increasing_tuples
    rng = random.Random(14)
    ctx3 = JetContext.free("x y z", "u")
    for q in range(0, 3):
        keys = increasing_tuples(3, q)
        comps = [rand_poly(rng, ctx3) for _ in keys]
        omega = HorizontalForm(3, q, dict(zip(keys, comps)))
        direct = dbar(ctx3, omega)
        out = dbar_operator(ctx3, q)(comps)
        tkeys = increasing_tuples(3, q + 1)
        for key, poly in zip(tkeys, out):
            assert direct.coeffs.get(key, DiffPoly.zero()) == poly


def test_operator_algebra_in_evolution_mode():
    # composition and adjoints stay consistent when the time derivative
    # substitutes the evolution rule inside coefficients
    ectx = JetContext.evolution("u", ["u*u_x + u_{x,x,x}"])
    rng = random.Random(16)
    for _ in range(10):
        a = rand_operator(rng, ectx, 2, 2, max_op_order=2)
        b = rand_operator(rng, ectx, 2, 2, max_op_order=2)
        v = [rand_poly(rng, ectx), rand_poly(rng, ectx)]
        assert (a @ b)(v) == a(b(v))
        assert adjoint(adjoint(a)) == a
        assert adjoint(a @ b) == adjoint(b) @ adjoint(a)


def test_composition_pushes_each_prefix_once(ctx, monkeypatch):
    pushes = []
    left_Di = cdcalc.ops._left_Di
    monkeypatch.setattr(cdcalc.ops, "_left_Di",
                        lambda *args: pushes.append(args[1]) or left_Di(*args))
    outer = parse_operator_matrix("D_{x,x,x} + u*D_{x,x} + D_{x}", ctx)
    inner = parse_operator_matrix("u_x*D_{t} + 1", ctx)
    composed = outer @ inner
    # D_{x,x,x} reuses the push for D_{x,x}, which reuses the one for D_{x}
    assert pushes == [0, 0, 0]
    v = [ctx.parse("u^2*u_t")]
    assert composed(v) == outer(inner(v))


def test_long_d_literals_need_no_recursion(ctx):
    n = 3000
    d = parse_operator_matrix("D_{" + ",".join(["x"] * n) + "}", ctx)
    assert adjoint(d) == d  # (-1)^3000 D_sigma
    assert d @ CDiffOp.total(ctx, "x") == CDiffOp.total(ctx, *["x"] * (n + 1))
    assert d([ctx.parse("u")]) == [DiffPoly.var(ctx.jet_coord("u", ("x",) * n))]


def _sym_apply(sym, rhs, op, vector):
    """op(vector) from the definition: sum over j, sigma of f_sigma D_sigma(v_j)."""
    return [sym.sympy.expand(sum((sym.poly(coeff) * sym.along(v, sigma, rhs)
                                  for entry, v in zip(row, vector)
                                  for sigma, coeff in entry.terms.items()), 0))
            for row in op.entries]


def _sym_adjoint_apply(sym, rhs, op, q):
    """op*(q) from the definition: sum over s, sigma of (-1)^|sigma| D_sigma(f_sigma q_s)."""
    out = []
    for j in range(op.cols):
        terms = [(-1) ** len(sigma) * sym.along(sym.poly(coeff) * qs, sigma, rhs)
                 for row, qs in zip(op.entries, q) for sigma, coeff in row[j].terms.items()]
        out.append(sym.sympy.expand(sum(terms, 0)))
    return out


@pytest.mark.parametrize("mode", ["free", "evolution"])
def test_operator_algebra_matches_sympy_definitions(mode):
    sym = SympyJets()
    if mode == "free":
        ctx, rhs, rng = JetContext.free("x y", "u v"), None, random.Random(21)
    else:
        ctx = JetContext.evolution("u v", ["u*v_x + u_{x,x,x}", "u^2 - v_{x,x}"])
        rhs, rng = [sym.poly(f) for f in ctx.evolution_rhs], random.Random(22)
    for _ in range(3):
        a, b = (rand_operator(rng, ctx, 2, 2, max_op_order=2) for _ in range(2))
        p, q = ([rand_poly(rng, ctx) for _ in range(2)] for _ in range(2))
        ps, qs = [sym.poly(f) for f in p], [sym.poly(f) for f in q]
        ap = _sym_apply(sym, rhs, a, ps)
        assert [sym.poly(f) for f in a(p)] == ap
        b_p = _sym_apply(sym, rhs, b, ps)
        assert _sym_apply(sym, rhs, a @ b, ps) == _sym_apply(sym, rhs, a, b_p)
        adj_q = _sym_adjoint_apply(sym, rhs, a, qs)
        assert _sym_apply(sym, rhs, adjoint(a), qs) == adj_q
        # q . L(p) - L*(q) . p is the divergence sum_i D_i(R_i) of the Green remainders
        lhs = sum(x * y for x, y in zip(qs, ap)) - sum(x * y for x, y in zip(adj_q, ps))
        div = sum(sym.along(sym.poly(r), (i,), rhs)
                  for i, r in enumerate(green_remainder(a, p, q)))
        assert sym.sympy.expand(lhs - div) == 0


def test_scalar_op_keys_are_canonical(ctx):
    one = DiffPoly.const(1)
    assert CDiffOp(ctx, [[ScalarCDiffOp({(1, 0): one})]]) == CDiffOp.total(ctx, 0, 1)
    a, b = ctx.parse("u"), ctx.parse("x")
    assert ScalarCDiffOp({(1, 0): a, (0, 1): b}) == ScalarCDiffOp({(0, 1): a + b})
    assert ScalarCDiffOp({(1, 0): a, (0, 1): -a}).is_zero()
    assert ScalarCDiffOp({(1, 0): a, (0, 1): a}) == ScalarCDiffOp({(0, 1): 2 * a})


def test_sums_of_one_object_with_itself(ctx):
    ident = CDiffOp.identity(ctx, 2)
    assert ident + ident == ident.scale(2)
    mult = CDiffOp.multiplication(ctx, ctx.parse("1/3*u_x"))
    assert mult + mult == CDiffOp.multiplication(ctx, ctx.parse("2/3*u_x"))
    omega = HorizontalForm(2, 1, {(0,): ctx.parse("u"), (1,): ctx.parse("u")})
    assert omega + omega == omega.scale(2)


def test_zero_operator_order_convention(ctx):
    assert CDiffOp.zero(ctx, 2, 3).order == 0
    assert ScalarCDiffOp().order == 0


def test_operator_format_round_trip(ctx):
    rng = random.Random(15)
    for _ in range(25):
        op = rand_operator(rng, ctx, 2, 2)
        assert parse_operator_matrix(format_operator(op), ctx) == op


def test_operator_literal_grammar(ctx):
    op = parse_scalar_op("(u + u_x)*D_{x,t} - 3*D_{t} + u^2", ctx)
    sigma_xt = (0, 1)
    assert op.terms[sigma_xt] == ctx.parse("u + u_x")
    assert op.terms[(1,)] == ctx.parse("-3")
    assert op.terms[()] == ctx.parse("u^2")
    with pytest.raises(Exception):
        parse_scalar_op("D_{x}*u", ctx)
