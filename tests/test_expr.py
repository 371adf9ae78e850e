import copy
import pickle
import random
from fractions import Fraction

import pytest

from cdcalc import (
    Coord, DiffPoly, JetContext, ParseError, evaluate, format_poly,
    parse_coord, parse_expr, partial,
)
from cdcalc.expr import JET, MAX_DIGITS, EvaluationError

from conftest import rand_poly


@pytest.fixture
def ctx():
    return JetContext.free("x t", "u")


def test_parse_kdv_system(ctx):
    f = parse_expr("u_t - u*u_x - u_{x,x,x}", ctx)
    assert len(f.terms) == 3
    u_t = ctx.jet_coord("u", ("t",))
    u = ctx.jet_coord("u")
    u_x = ctx.jet_coord("u", ("x",))
    u_xxx = ctx.jet_coord("u", ("x", "x", "x"))
    assert f.terms[((u_t, 1),)] == 1
    assert f.terms[tuple(sorted([(u, 1), (u_x, 1)]))] == -1
    assert f.terms[((u_xxx, 1),)] == -1


def test_parse_zero(ctx):
    assert parse_expr("0", ctx).is_zero()


def test_parse_error_offset(ctx):
    with pytest.raises(ParseError) as err:
        parse_expr("u_", ctx)
    assert err.value.pos == 1


def test_parse_undeclared(ctx):
    with pytest.raises(ParseError, match="undeclared"):
        parse_expr("u + w", ctx)


def test_parse_jet_suffix_on_independent(ctx):
    with pytest.raises(ParseError):
        parse_expr("x_t", ctx)


def test_shorthand_matches_braces(ctx):
    assert parse_expr("u_xxt", ctx) == parse_expr("u_{x,x,t}", ctx)
    assert parse_expr("u_{t,x}", ctx) == parse_expr("u_{x,t}", ctx)


def test_rational_literals(ctx):
    f = parse_expr("1/6*u - 2/4", ctx)
    assert f.terms[((ctx.jet_coord("u"), 1),)] == Fraction(1, 6)
    assert f.terms[()] == Fraction(-1, 2)


def test_division_only_in_literals(ctx):
    with pytest.raises(ParseError):
        parse_expr("u/2", ctx)


def test_powers_and_parens(ctx):
    f = parse_expr("(u + 1)^2", ctx)
    g = parse_expr("u^2 + 2*u + 1", ctx)
    assert f == g


def test_nesting_depth_is_bounded(ctx):
    for text in ("-" * 5000 + "u", "(" * 3000 + "u" + ")" * 3000):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_expr(text, ctx)
    u = parse_expr("u", ctx)
    assert parse_expr("-" * 100 + "u", ctx) == u
    assert parse_expr("(" * 100 + "u" + ")" * 100, ctx) == u


def test_exponent_is_bounded(ctx):
    with pytest.raises(ParseError, match="exponent 1000000 exceeds"):
        parse_expr("(u+1)^1000000", ctx)
    assert parse_expr("(u+1)^64", ctx) == parse_expr("u+1", ctx) ** 64


def test_power_matches_repeated_product(ctx):
    p = parse_expr("u + 2*u_x - 1/3", ctx)
    product = DiffPoly.const(1)
    for n in range(10):
        assert p ** n == product
        product = product * p


def test_power_squares_only_what_it_uses(ctx, monkeypatch):
    squarings = []
    mul = DiffPoly.__mul__

    def counting(a, b):
        if a is b:
            squarings.append(1)
        return mul(a, b)

    monkeypatch.setattr(DiffPoly, "__mul__", counting)
    p = parse_expr("u + u_x + 1", ctx)
    for n in range(1, 20):
        squarings.clear()
        p ** n
        assert len(squarings) <= n.bit_length() - 1, n


def test_print_parse_round_trip(ctx):
    rng = random.Random(11)
    for _ in range(60):
        p = rand_poly(rng, ctx, max_order=3)
        assert parse_expr(format_poly(p, ctx), ctx) == p


def test_partial_examples(ctx):
    u = ctx.jet_coord("u")
    u_x = ctx.jet_coord("u", ("x",))
    x = ctx.indep_coord("x")
    f = parse_expr("u*u_x", ctx)
    assert partial(f, u) == DiffPoly.var(u_x)
    assert partial(DiffPoly.var(u_x), x).is_zero()
    assert partial(parse_expr("u_x^2", ctx), u_x) == parse_expr("2*u_x", ctx)


def test_partial_is_derivation(ctx):
    rng = random.Random(3)
    coords = [ctx.jet_coord("u"), ctx.jet_coord("u", ("x",)), ctx.indep_coord("t")]
    for _ in range(40):
        a = rand_poly(rng, ctx)
        b = rand_poly(rng, ctx)
        for c in coords:
            assert partial(a * b, c) == partial(a, c) * b + a * partial(b, c)


def test_partial_commutes(ctx):
    rng = random.Random(4)
    c1 = ctx.jet_coord("u", ("x",))
    c2 = ctx.jet_coord("u")
    for _ in range(40):
        f = rand_poly(rng, ctx)
        assert partial(partial(f, c1), c2) == partial(partial(f, c2), c1)


def test_ring_laws(ctx):
    rng = random.Random(5)
    for _ in range(40):
        a = rand_poly(rng, ctx)
        b = rand_poly(rng, ctx)
        c = rand_poly(rng, ctx)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_evaluate_examples(ctx):
    u = ctx.jet_coord("u")
    u_x = ctx.jet_coord("u", ("x",))
    f = parse_expr("u*u_x", ctx)
    assert evaluate(f, {u: Fraction(2), u_x: Fraction(3, 2)}) == 3
    assert evaluate(DiffPoly.zero(), {}) == 0
    with pytest.raises(EvaluationError):
        evaluate(parse_expr("u_xx", ctx), {u: Fraction(1)})


def test_evaluate_at_point_names_missing_coordinate(ctx):
    from cdcalc import JetPoint, PointError
    pt = JetPoint(ctx, 0, {c: Fraction(1) for c in _order0_coords(ctx)})
    with pytest.raises(PointError, match="u_xx"):
        evaluate(parse_expr("u_xx", ctx), pt)


def _order0_coords(ctx):
    from cdcalc.jet import _point_coords
    return list(_point_coords(ctx, 0))


def test_evaluate_is_ring_hom(ctx):
    rng = random.Random(6)
    from conftest import rand_fraction
    for _ in range(30):
        a = rand_poly(rng, ctx)
        b = rand_poly(rng, ctx)
        coords = a.coords() | b.coords()
        pt = {c: rand_fraction(rng) for c in coords}
        assert evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)
        assert evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)


def test_integer_literal_length_is_bounded(ctx):
    with pytest.raises(ParseError, match=f"longer than {MAX_DIGITS} digits") as err:
        parse_expr("u + " + "7" * 5000 + "*u_x", ctx)
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        parse_expr("1/" + "3" * (MAX_DIGITS + 1), ctx)
    assert err.value.pos == 2
    big = int("9" * MAX_DIGITS)
    assert parse_expr("9" * MAX_DIGITS + "*u", ctx) == parse_expr("u", ctx) * big


def test_coord_sigma_is_canonical(ctx):
    c = Coord(JET, 0, (1, 0))
    assert c.sigma == (0, 1) and c == ctx.jet_coord("u", ("x", "t"))
    assert DiffPoly.var(c) == ctx.parse("u_{x,t}")
    assert format_poly(DiffPoly.var(c), ctx) == "u_xt"
    # a Coord is the plain tuple (kind, index, sigma)
    assert c == (JET, 0, (0, 1)) and hash(c) == hash((JET, 0, (0, 1)))
    for twin in (pickle.loads(pickle.dumps(c)), copy.deepcopy(c)):
        assert type(twin) is Coord and twin == c and twin.sigma == (0, 1)
    f = ctx.parse("u_{t,x}^2 - 3*x*u")
    assert pickle.loads(pickle.dumps(f)) == f and copy.deepcopy(f) == f


def test_parse_coord(ctx):
    assert parse_coord("u_{x,t}", ctx) == ctx.jet_coord("u", ("x", "t"))
    assert parse_coord("x", ctx) == ctx.indep_coord("x")
    with pytest.raises(ParseError):
        parse_coord("u + 1", ctx)


def test_evolution_rejects_t_jets():
    ctx = JetContext.evolution("u", ["u*u_x"])
    with pytest.raises(ParseError, match="internal"):
        ctx.parse("u_t")
    ctx.parse("u_xx")  # fine


def test_only_ascii_digits_form_literals(ctx):
    for text, pos in (("u_t - 2²*u", 7), ("٣*u", 0), ("u + 1١", 5)):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_expr(text, ctx)
        assert err.value.pos == pos
