import copy
import pickle
import random
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cdcalc import (
    Coord, DiffPoly, JetContext, JetPoint, ParseError, evaluate, format_poly,
    parse_coord, parse_expr, partial, random_point, total_derivative,
)
from cdcalc.expr import INDEP, JET, MAX_DIGITS, PARAM, EvaluationError

from conftest import (
    rand_poly, ref_add, ref_evaluate, ref_monomial, ref_mul, ref_partial, ref_pow, ref_total,
)


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


def test_const_takes_only_exact_values(ctx):
    assert DiffPoly.const(Fraction(1, 6)).terms == {(): Fraction(1, 6)}
    assert DiffPoly.const(-4) == -4
    u = ctx.jet_coord("u")
    for bad in (lambda: DiffPoly.const(0.1), lambda: DiffPoly.const("1/2"),
                lambda: DiffPoly({(): 0.5}), lambda: evaluate(DiffPoly.var(u), {u: 0.5})):
        with pytest.raises(TypeError, match="int or Fraction"):
            bad()


# ---------------------------------------------------------------------------
# The fraction-free core against plain monomial -> Fraction dicts
# ---------------------------------------------------------------------------

# Internal coordinates of both contexts below, plus free-mode t-jets.
_FREE = JetContext.free("x t", "u v", "lam")
_EVOLUTION = JetContext.evolution("u v", ["u*u_x - 1/2*v_xx", "1/3*u_x*v + x"], "lam")
_RHS = tuple(dict(f.terms) for f in _EVOLUTION.evolution_rhs)
_INTERNAL = [Coord(INDEP, 0), Coord(INDEP, 1), Coord(PARAM, 0), Coord(JET, 0),
             Coord(JET, 0, (0,)), Coord(JET, 0, (0, 0)), Coord(JET, 1), Coord(JET, 1, (0,))]
_T_JETS = [Coord(JET, 0, (1,)), Coord(JET, 1, (0, 1))]

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)

_rationals = st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 12))


def _specs(coords):
    """(coefficient, coordinate -> exponent) lists: a polynomial before it is summed."""
    return st.lists(st.tuples(_rationals, st.dictionaries(st.sampled_from(coords),
                                                          st.integers(1, 3), max_size=3)),
                    max_size=5)


def _build(spec):
    """The spec summed by the reference, and through DiffPoly's own + and *."""
    ref, poly = {}, DiffPoly.zero()
    for coeff, exps in spec:
        ref = ref_add(ref, {ref_monomial(exps): coeff})
        term = DiffPoly.const(coeff)
        for coord, e in exps.items():
            term = term * DiffPoly.var(coord, e)
        poly = poly + term
    return ref, poly


def _check(poly, ref):
    """``poly`` equals the reference and is canonical."""
    assert dict(poly.terms) == ref
    assert type(poly.den) is int and poly.den > 0
    assert all(type(c) is int and c for c in poly.nums.values())
    assert gcd(poly.den, *poly.nums.values()) == 1
    assert (poly.den == 1) == all(q.denominator == 1 for q in ref.values())


@_PROPERTY
@given(_specs(_INTERNAL + _T_JETS), _specs(_INTERNAL + _T_JETS), st.integers(0, 3))
def test_ring_matches_reference(a_spec, b_spec, n):
    (a_ref, a), (b_ref, b) = _build(a_spec), _build(b_spec)
    _check(a, a_ref)
    _check(a + b, ref_add(a_ref, b_ref))
    _check(a + a, ref_add(a_ref, a_ref))
    _check(a - b, ref_add(a_ref, ref_mul({(): Fraction(-1)}, b_ref)))
    _check(-a, ref_mul({(): Fraction(-1)}, a_ref))
    _check(a * b, ref_mul(a_ref, b_ref))
    _check(a ** n, ref_pow(a_ref, n))
    _check(a * Fraction(3, 4) + 1, ref_add(ref_mul(a_ref, {(): Fraction(3, 4)}), {(): 1}))


@_PROPERTY
@given(_specs(_INTERNAL + _T_JETS), st.sampled_from(_INTERNAL + _T_JETS))
def test_free_calculus_matches_reference(spec, coord):
    ref, a = _build(spec)
    _check(a.partial(coord), ref_partial(ref, coord))
    for i in (0, 1):
        _check(total_derivative(_FREE, i, a), ref_total(i, ref))


@_PROPERTY
@given(_specs(_INTERNAL))
def test_evolution_calculus_matches_reference(spec):
    ref, a = _build(spec)
    _check(total_derivative(_EVOLUTION, "x", a), ref_total(0, ref))
    _check(total_derivative(_EVOLUTION, "t", a), ref_total(1, ref, _RHS))


@_PROPERTY
@given(_specs(_INTERNAL + _T_JETS), st.integers(0, 10**6),
       st.dictionaries(st.sampled_from(_INTERNAL + _T_JETS), _rationals | st.integers(-5, 5)))
def test_evaluate_matches_reference(spec, seed, overrides):
    ref, a = _build(spec)
    pt = random_point(_FREE, 2, seed)
    assert a.evaluate(pt) == ref_evaluate(ref, pt.values)
    assert a.evaluate(SimpleNamespace(value=pt.value)) == ref_evaluate(ref, pt.values)
    values = {**pt.values, **overrides}
    assert a.evaluate(values) == ref_evaluate(ref, values)
    moved = JetPoint(_FREE, 2, values)
    assert a.evaluate(moved) == ref_evaluate(ref, values)


def test_points_with_large_coprime_denominators():
    """No common denominator is built past MAX_POINT_DENOMINATOR; evaluate stays exact."""
    from cdcalc.expr import MAX_POINT_DENOMINATOR, format_coord
    from cdcalc.jet import _point_coords, parse_point_file
    primes = [p for p in range(3, 2000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    coords = list(_point_coords(_FREE, 7))  # the file also names coordinates beyond order 2
    text = "\n".join(f"{format_coord(c, _FREE)} = {k - 40}/{primes[k] ** 20}"
                     for k, c in enumerate(coords))
    pt = parse_point_file(text, _FREE, 2)
    assert pt.scaled is None and len(pt.values) == len(coords) > 60
    small = random_point(_FREE, 2, 5)
    assert small.scaled[0] <= min(12, MAX_POINT_DENOMINATOR)
    for spec in ([], [(Fraction(3, 7), {})], [(Fraction(-5, 2), {c: 3}) for c in _INTERNAL]):
        ref, a = _build(spec)
        for point in (pt, small):
            assert a.evaluate(point) == ref_evaluate(ref, point.values)


@_PROPERTY
@given(_specs(_INTERNAL + _T_JETS))
def test_routes_to_one_polynomial_agree(spec):
    ref, summed = _build(spec)
    from_terms = DiffPoly(ref)
    from_unsorted = DiffPoly({m: c for m, c in reversed(list(ref.items()))})
    reparsed = parse_expr(format_poly(summed, _FREE), _FREE)
    for p in (from_terms, from_unsorted, reparsed):
        _check(p, ref)
        assert p == summed and p.terms == summed.terms
        assert (p.nums, p.den) == (summed.nums, summed.den)
