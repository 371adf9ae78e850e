import copy
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from cdcalc import (
    Coord, DiffPoly, JetContext, JetPoint, ParseError, ScalarCDiffOp, adjoint, evaluate,
    format_poly, parse_coord, parse_expr, parse_scalar_op, partial, random_point,
    total_derivative,
)
from cdcalc.expr import (
    _FACTORS, _PRIMES, INDEP, JET, MAX_DIGITS, MAX_EXPONENT, MAX_NESTING, MAX_PRODUCT_TERMS,
    PARAM, EvaluationError, _coord_id, _parse_rational, format_coord,
)
from cdcalc.ops import parse_operator_matrix
from cdcalc.jet import _DERIVATIVES, _LIFTS

from conftest import (
    rand_poly, ref_add, ref_coords, ref_degree, ref_evaluate, ref_jet_order, ref_monomial,
    ref_mul, ref_partial, ref_pow, ref_total,
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


@pytest.mark.parametrize("reader, text, message", [
    (parse_scalar_op, "D_{q}", "expected independent variable in D_{...} at offset 3"),
    (parse_scalar_op, "D_x", "expected '{' at offset 2"),
    (parse_scalar_op, "D_{x", "expected '}' at offset 4"),
    (parse_scalar_op, "D_{x}*u", "D_{...} must end its term at offset 5"),
    (parse_scalar_op, "u*D_{x} u", "unexpected 'u' at offset 8"),
    (parse_scalar_op, "D_{x,}", "expected independent variable in D_{...} at offset 5"),
    (parse_scalar_op, "u + D_{}", "expected independent variable in D_{...} at offset 7"),
    (parse_scalar_op, "u*D_{t,x} + D_{x", "expected '}' at offset 16"),
    (parse_scalar_op, "D_{x}^2", "unexpected '^' at offset 5"),
    (parse_expr, "u_{}", "malformed jet suffix: expected independent name at offset 3"),
    (parse_expr, "u_{x,q}", "malformed jet suffix: expected independent name at offset 5"),
    (parse_expr, "u_{x,t", "expected '}' at offset 6"),
    (parse_expr, "u_{x t}", "expected '}' at offset 5"),
    (parse_expr, "(u", "expected ')' at offset 2"),
    (parse_expr, "u x", "unexpected 'x' at offset 2"),
    (parse_expr, "u)", "unexpected ')' at offset 1"),
    (parse_expr, "", "unexpected end of input at offset 0"),
    (parse_coord, "1", "expected a coordinate name at offset 0"),
    (parse_coord, "u_x t", "unexpected 't' at offset 4"),
    (parse_coord, "u_{x,}", "malformed jet suffix: expected independent name at offset 5"),
])
def test_grammar_error_messages(ctx, reader, text, message):
    # expressions, operator literals and coordinate names share the braced
    # index list and the end-of-input check; each message and offset is pinned
    with pytest.raises(ParseError) as err:
        reader(text, ctx)
    assert str(err.value) == message
    assert err.value.pos == int(message.rsplit(" ", 1)[1])


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


def _binomials(count: int) -> str:
    """(u + 1)*(u_{x} + 1)*... over ``count`` distinct jets: 2^count terms."""
    jets = [c for r in range(7) for c in itertools.combinations_with_replacement("xt", r)]
    return "*".join(f"(u_{{{','.join(c)}}} + 1)" if c else "(u + 1)" for c in jets[:count])


def test_products_are_bounded_before_they_expand(ctx):
    # a multiply of m by n terms is refused when m * n passes MAX_PRODUCT_TERMS,
    # at the "*" of the parser's product, before the product is formed
    assert len(parse_expr(_binomials(14), ctx).nums) == 2 ** 14 <= MAX_PRODUCT_TERMS
    text = _binomials(15)
    with pytest.raises(ParseError) as err:
        parse_expr(text, ctx)
    assert str(err.value) == \
        f"product of 16384 by 2 terms exceeds 20000 term products at offset {err.value.pos}"
    assert err.value.pos == [i for i, c in enumerate(text) if c == "*"][-1]
    with pytest.raises(ParseError, match="product of 16384 by 2 terms") as op_err:
        parse_scalar_op(f"{text}*D_{{x}}", ctx)
    assert op_err.value.pos == err.value.pos
    # a power squares its way up: (6 terms)^8 forms 126 * 126 term products,
    # ^16 would form 1287 * 1287; ** and the parser's ^ refuse alike
    six = "(u + u_x + u_t + u_xx + u_xt + u_tt)"
    assert len(parse_expr(f"{six}^8", ctx).nums) == 1287
    with pytest.raises(ParseError, match="product of 1287 by 1287 terms exceeds") as err:
        parse_expr(f"{six}^64", ctx)
    assert err.value.pos == len(six) + 1  # where the power's other refusals are
    with pytest.raises(ValueError, match="product of 1287 by 1287 terms exceeds"):
        parse_expr(six, ctx) ** 16
    # the operator algebra is not bounded: 2^14 by 2 terms and more
    wide = parse_expr(_binomials(14), ctx) * parse_expr("u_{x,x,x,x,x,x} + 1", ctx)
    assert len(wide.nums) == 2 ** 15


def test_exponent_is_bounded(ctx):
    with pytest.raises(ParseError, match="exponent 1000000 exceeds"):
        parse_expr("(u+1)^1000000", ctx)
    assert parse_expr("(u+1)^64", ctx) == parse_expr("u+1", ctx) ** 64
    # nested powers are bounded by their total degree, before they expand
    for text, pos, degree in (("((u+u_x)^64)^64", 13, 4096), ("(u^2*x)^22", 8, 66),
                              ("(u_x^2)^33", 8, 66)):
        with pytest.raises(ParseError, match=f"total degree {degree} exceeds 64") as err:
            parse_expr(text, ctx)
        assert err.value.pos == pos
    u = ctx.jet_coord("u")
    with pytest.raises(ValueError, match="total degree 65 exceeds"):
        DiffPoly.var(u, MAX_EXPONENT + 1)
    with pytest.raises(ValueError, match="total degree 66 exceeds"):
        DiffPoly.var(u, 2) ** 33
    p = parse_expr("(u^2*x)^21*u_x", ctx)  # a product may pass the bound
    assert p == DiffPoly.var(u, 42) * DiffPoly.var(ctx.indep_coord("x"), 21) * \
        DiffPoly.var(ctx.jet_coord("u", "x"))
    assert p.degree() == 64 and (p * p).degree() == 128 and p ** 1 == p


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


def test_rational_values_match_fractions_parser():
    rng = random.Random(17)

    def digits():
        return str(rng.randrange(10 ** rng.randint(1, 30)))

    texts = ["3.", ".5", "-0/7", "+.25", "-0", "007.100", "-12/36", "0.0"]
    for _ in range(300):
        sign = rng.choice(("", "+", "-"))
        texts += [sign + digits(), f"{sign}{digits()}/{rng.randint(1, 10 ** 12)}",
                  f"{sign}{digits()}.{digits()}", f"{sign}{digits()}.", f"{sign}.{digits()}"]
    for text in texts:
        assert _parse_rational(f" {text} ", "w") == Fraction(text), text
    for text, message in (("1/0", "w: zero denominator"), ("-0/0", "w: zero denominator"),
                          (".", "w: expected an integer, p/q or plain decimal"),
                          ("1.2.3", "w: expected an integer, p/q or plain decimal"),
                          ("-", "w: expected an integer, p/q or plain decimal"),
                          ("1/-2", "w: expected an integer, p/q or plain decimal"),
                          ("." + "1" * (MAX_DIGITS + 1),
                           f"w: value longer than {MAX_DIGITS} digits")):
        with pytest.raises(ValueError) as err:
            _parse_rational(text, "w")
        assert str(err.value) == message


def test_const_takes_only_exact_values(ctx):
    assert DiffPoly.const(Fraction(1, 6)).terms == {(): Fraction(1, 6)}
    assert DiffPoly.const(-4) == -4
    u = ctx.jet_coord("u")
    for bad in (lambda: DiffPoly.const(0.1), lambda: DiffPoly.const("1/2"),
                lambda: DiffPoly({(): 0.5}), lambda: evaluate(DiffPoly.var(u), {u: 0.5})):
        with pytest.raises(TypeError, match="int or Fraction"):
            bad()
    # arithmetic with a float or a string names the operator, either way round
    p = DiffPoly.var(u)
    for bad, message in ((lambda: p - 1.5, "-: 'DiffPoly' and 'float'"),
                         (lambda: 1.5 - p, "-: 'float' and 'DiffPoly'"),
                         (lambda: "a" - p, "-: 'str' and 'DiffPoly'"),
                         (lambda: 1.5 + p, "+: 'float' and 'DiffPoly'"),
                         (lambda: 1.5 * p, "*: 'float' and 'DiffPoly'")):
        with pytest.raises(TypeError, match=re.escape(f"unsupported operand type(s) for {message}")):
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


def _check_keys(poly):
    """Every key of ``poly`` is the product of its registered ids' primes, ids sorted."""
    for key in poly.nums:
        ids = _FACTORS[key]
        assert list(ids) == sorted(ids)
        assert key == prod(_PRIMES[i] for i in ids)


def _check(poly, ref):
    """``poly`` equals the reference and is canonical."""
    _check_keys(poly)
    assert dict(poly.terms) == ref
    assert type(poly.den) is int and poly.den > 0
    assert all(type(c) is int and c for c in poly.nums.values())
    assert gcd(poly.den, *poly.nums.values()) == 1
    assert (poly.den == 1) == all(q.denominator == 1 for q in ref.values())
    assert DiffPoly(poly.terms) == poly and pickle.loads(pickle.dumps(poly)) == poly
    assert poly.degree() == ref_degree(ref)
    assert poly.coords() == ref_coords(ref)
    assert poly.jet_order() == ref_jet_order(ref)


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
@given(_specs(_INTERNAL + _T_JETS))
def test_monomial_derivative_table_is_only_a_cache(spec):
    _, a = _build(spec)
    for ctx, i in ((_FREE, 0), (_FREE, 1), (_EVOLUTION, 0), (_EVOLUTION, 1)):
        if (ctx, i) == (_EVOLUTION, 1) and not a.coords() <= set(_INTERNAL):
            for _ in range(2):  # a t-jet is refused and leaves no entry behind
                with pytest.raises(ValueError, match="not an internal coordinate"):
                    total_derivative(ctx, i, a)
            continue
        kept = total_derivative(ctx, i, a)
        kept_lifts = {d: dict(lifts) for d, lifts in _LIFTS.items()}
        _DERIVATIVES.clear()
        _LIFTS.clear()
        _EVOLUTION._dt.clear()
        fresh = total_derivative(ctx, i, a)
        assert (fresh.nums, fresh.den) == (kept.nums, kept.den)
        # the lifts made again are the ones dropped
        assert all(kept_lifts[d][c] == lift for d, lifts in _LIFTS.items()
                   for c, lift in lifts.items())
        assert total_derivative(ctx, i, a) == fresh  # from the table just filled


@pytest.mark.parametrize("ctx", [_FREE, _EVOLUTION], ids=["free", "evolution"])
def test_lift_table_lifts_jets_lowers_x_i_and_skips_the_rest(ctx):
    # D_x of x*t*lam*u*v_x lifts each jet, lowers x and skips t and lam
    _LIFTS.clear()
    _DERIVATIVES.clear()
    f = ctx.parse("x*t*lam*u*v_x")
    assert total_derivative(ctx, 0, f) == ctx.parse("t*lam*u*v_x + x*t*lam*u_x*v_x"
                                                    " + x*t*lam*u*v_{x,x}")
    ids = {name: _coord_id(parse_coord(name, ctx)) for name in
           ("x", "t", "lam", "u", "u_x", "v_x", "v_{x,x}")}
    assert _LIFTS == {0: {ids["x"]: -1, ids["t"]: None, ids["lam"]: None,
                          ids["u"]: ids["u_x"], ids["v_x"]: ids["v_{x,x}"]}}
    if not ctx.is_evolution:  # free D_t lowers t and skips x; evolution D_t has its own table
        g = total_derivative(ctx, 1, f)
        assert g == ctx.parse("x*lam*u*v_x + x*t*lam*u_t*v_x + x*t*lam*u*v_{x,t}")
        assert _LIFTS[1] == {ids["x"]: None, ids["t"]: -1, ids["lam"]: None,
                             ids["u"]: _coord_id(parse_coord("u_t", ctx)),
                             ids["v_x"]: _coord_id(parse_coord("v_{x,t}", ctx))}


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


def test_evaluate_reads_each_kind_of_point_by_one_rule(monkeypatch):
    """A mapping, a JetPoint, a point past MAX_POINT_DENOMINATOR and an object
    with ``value`` alone give the same value; a constant reads no point."""
    from cdcalc.expr import MAX_POINT_DENOMINATOR
    from cdcalc.jet import _point_coords
    from conftest import count_draws
    values = {c: Fraction(k - 9, 3 ** (k % 4)) for k, c in enumerate(_point_coords(_FREE, 2))}
    # one value over a denominator past the bound leaves the point unscaled
    wide = {**values, _INTERNAL[0]: Fraction(1, 2 * MAX_POINT_DENOMINATOR + 1)}
    for spec in ([], [(Fraction(3, 7), {})], [(Fraction(-5, 2), {c: 3}) for c in _INTERNAL],
                 [(Fraction(1, 6), {_INTERNAL[0]: 2, _INTERNAL[1]: 1}), (4, {})]):
        ref, a = _build(spec)
        for assignment in (values, wide):
            pt = JetPoint(_FREE, 2, assignment)
            assert (pt.scaled is None) == (assignment is wide)
            want = ref_evaluate(ref, assignment)
            for point in (assignment, pt, SimpleNamespace(value=pt.value)):
                assert a.evaluate(point) == want
                num, den = a._ratio(point)
                assert Fraction(num, den) == want and den > 0
    draws = count_draws(monkeypatch)
    drawn = random_point(_FREE, 2, seed=4)
    for c in (0, 1, Fraction(-2, 3)):
        assert DiffPoly.const(c).evaluate(drawn) == c
        assert DiffPoly.const(c).evaluate(SimpleNamespace()) == c
    assert draws == [] and not drawn._has_values()
    assert DiffPoly.var(_INTERNAL[0]).evaluate(drawn) == drawn.values[_INTERNAL[0]]
    assert len(draws) == 1


@_PROPERTY
@given(_specs(_INTERNAL + _T_JETS))
def test_printing_matches_reference(spec):
    # the printing order from its definition: terms by total degree, then by
    # their (Coord, exponent) pairs in Coord order
    ref, poly = _build(spec)
    text = ""
    for mono in sorted(ref, key=lambda m: (sum(e for _, e in m), m)):
        c = ref[mono]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not mono else [])
                        + [format_coord(x, _FREE) + (f"^{e}" if e > 1 else "") for x, e in mono])
        text += ("-" if c < 0 else "") + body if not text else (" - " if c < 0 else " + ") + body
    assert format_poly(poly, _FREE) == (text or "0")


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


def test_every_route_makes_prime_product_keys():
    """Each way of making a polynomial keys it by the product of its ids' primes.

    Equal polynomials reached by different routes have equal ``nums``: a key
    depends only on the monomial, not on how it was made.
    """
    ctx = JetContext.free("x y", "u w", "mu")
    u, u_x, u_y = (ctx.jet_coord("u", s) for s in ((), ("x",), ("y",)))
    x = Coord(INDEP, 0)
    parsed = ctx.parse("(u + u_x)^3 - 2/3*mu*x*w_{x,y} + 5")
    built = DiffPoly({((u, 3),): 1, ((u, 2), (u_x, 1)): 3, ((u_x, 2), (u, 1)): 3,
                      ((u_x, 3),): 1, ((Coord(PARAM, 0), 1), (ctx.jet_coord("w", ("x", "y")), 1),
                                       (x, 1)): Fraction(-2, 3), (): 5})
    by_ops = ((DiffPoly.var(u) + DiffPoly.var(u_x)) ** 3
              + DiffPoly.var(x) * ctx.parse("mu*w_{y,x}") * Fraction(-2, 3) + 5)
    assert (parsed.nums, parsed.den) == (built.nums, built.den) == (by_ops.nums, by_ops.den)
    ev = JetContext.evolution("u", ["u*u_xxx + 1/2*x^2"])
    routes = [  # (got, the same polynomial made another way)
        (parsed.partial(u), ctx.parse("3*(u + u_x)^2")),
        (total_derivative(ctx, "x", ctx.parse("u*u_x^2 + x*u_y")),
         ctx.parse("u_x^3 + 2*u*u_x*u_{x,x} + u_y + x*u_{x,y}")),
        (total_derivative(ctx, "y", DiffPoly.var(u_x, 2)),
         2 * DiffPoly.var(u_x) * DiffPoly.var(ctx.jet_coord("u", ("x", "y")))),
        (total_derivative(ev, "t", ev.parse("u_x^2 + t")),
         ev.parse("2*u_x*(u_x*u_xxx + u*u_xxxx + x) + 1")),
    ]
    for got, want in routes:
        assert (got.nums, got.den) == (want.nums, want.den)
    a = parse_operator_matrix("u*D_{x} + mu ; w_y*D_{x,y}\n1 ; x*u_x*D_{y,y}", ctx)
    b = parse_operator_matrix("D_{x} ; u*w\nw_xx ; 1/2*D_{y}", ctx)
    ops = [a @ b, adjoint(a), adjoint(adjoint(a @ b))]
    assert ops[2] == ops[0]
    coefficients = [poly for op in ops for row in op.entries for e in row
                    for poly in e.terms.values()]
    for poly in [parsed, built, by_ops, *[p for pair in routes for p in pair], *coefficients]:
        _check_keys(poly)
    # the id-th prime for id i: a sieve's primes, in order, as many as there are ids
    sieve = bytearray([1]) * (20 * len(_PRIMES) + 100)
    sieve[:2] = b"\0\0"
    for n in range(2, int(len(sieve) ** 0.5) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, len(sieve), n)))
    assert _PRIMES == [n for n, is_prime in enumerate(sieve) if is_prime][:len(_PRIMES)]
    assert _FACTORS[1] == ()


# ---------------------------------------------------------------------------
# Coordinate ids are interned per process, in order of first use
# ---------------------------------------------------------------------------

_INTERNING_SCRIPT = """
import pickle, sys
from cdcalc import (JetContext, adjoint, format_operator, format_poly, random_point,
                    total_derivative)
from math import prod
from cdcalc.expr import _FACTORS, _IDS, _PRIMES
from cdcalc.ops import parse_operator_matrix
def keys_ok(*polys):
    return all(list(_FACTORS[k]) == sorted(_FACTORS[k]) and k == prod(map(_PRIMES.__getitem__,
               _FACTORS[k])) for p in polys for k in p.nums)
ctx = JetContext.free("x t", "u v", "lam")
names = ["x", "t", "lam", "u", "v", "u_x", "v_t", "u_xt", "v_xx", "u_ttx"]
ctx.parse(" + ".join(names if sys.argv[1] == "forward" else names[::-1]))
f = ctx.parse("lam*u_xt^2*v - 1/3*x*u_ttx + v_xx*u")
pt = random_point(ctx, 3, 7)
a = parse_operator_matrix("u*D_{x} + lam ; v_t*D_{x,t}\\n1 ; x*u_x*D_{t,t}", ctx)
b = parse_operator_matrix("D_{x} ; u*v\\nv_xx ; 1/2*D_{t}", ctx)
ev = JetContext.evolution("u", ["u*u_xxx + 1/2*x^2"])
g = ev.parse("u_xxxx + u*u_xx - 2/3*t*u_x^2")
dt = format_poly(total_derivative(ev, "t", g), ev)  # fills ev's D_t table
print(_IDS[ctx.jet_coord("u", "x")])
print(format_poly(f, ctx))
print(format_operator(adjoint(a @ b)))
print(f.evaluate(pt))
print(dt)
if len(sys.argv) > 2:
    other, other_pt, other_ev = pickle.loads(bytes.fromhex(sys.argv[2]))
    print(other == f, format_poly(other, ctx), other.evaluate(other_pt),
          other_ev == ev, format_poly(total_derivative(other_ev, "t", g), ev),
          keys_ok(other, total_derivative(other_ev, "t", g)))
else:
    print(pickle.dumps((f, pt, ev)).hex())
"""


def _interning_run(*args) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH"))
        if p)
    result = subprocess.run([sys.executable, "-c", _INTERNING_SCRIPT, *args], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    return result.stdout.splitlines()


def test_ids_stay_inside_the_process():
    """Pickles carry no ids, and no output depends on the order ids were given in.

    The evolution context is pickled after its D_t table was filled: a table
    carried to the other process would read its keys as other coordinates.
    """
    forward = _interning_run("forward")
    backward = _interning_run("backward", forward[-1])
    assert forward[0] != backward[0]  # u_x was given a different id
    # the polynomial, adjoint(a @ b), a value and a D_t, byte for byte
    assert forward[1:-1] == backward[1:-1]
    # read back with other ids, it is the same polynomial, keyed by this process's primes
    assert backward[-1] == f"True {forward[1]} {forward[-3]} True {forward[-2]} True"


# ---------------------------------------------------------------------------
# The expression grammar against DiffPoly's own arithmetic
# ---------------------------------------------------------------------------
# A tree is rendered to text with the fewest parentheses its precedence needs,
# and built a second time through DiffPoly's + * ** var const, a route that
# skips the parser.  Levels: 0 sum, 1 product, 2 factor (power or unary
# minus), 3 atom (literal, coordinate, parentheses); "p/q" is an atom, so
# "1/2^3" is (1/2)^3, while "-x^2" is -(x^2).

_GRAMMAR = JetContext.free("x t", "u v", "lam mu")


@st.composite
def _coordinates(draw):
    """("coord", text, Coord): an independent, a parameter, or a braced or shorthand jet."""
    kind = draw(st.sampled_from((INDEP, PARAM, JET, JET)))
    if kind != JET:
        names = _GRAMMAR.indep if kind == INDEP else _GRAMMAR.params
        index = draw(st.integers(0, len(names) - 1))
        return "coord", names[index], Coord(kind, index)
    dep = draw(st.sampled_from(_GRAMMAR.dep))
    sigma = draw(st.lists(st.sampled_from(_GRAMMAR.indep), max_size=3))
    if not sigma:
        text = dep
    elif draw(st.booleans()):
        text = f"{dep}_{''.join(sigma)}"
    else:
        text = f"{dep}_{{{','.join(sigma)}}}"
    return "coord", text, _GRAMMAR.jet_coord(dep, sigma)


_literals = st.tuples(st.just("lit"), st.integers(0, 40), st.none() | st.integers(1, 12))
_trees = st.recursive(
    _literals | _coordinates(),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(("add", "sub", "mul")), kids, kids),
        st.tuples(st.sampled_from(("neg", "paren")), kids),
        st.tuples(st.just("pow"), kids, st.integers(0, 3))),
    max_leaves=10)


def _render(tree, sep: str) -> tuple[str, int]:
    """(text, precedence level) of a tree; ``sep`` goes around binary + and -."""
    def at(child, level):
        text, own = _render(child, sep)
        return text if own >= level else f"({text})"

    kind = tree[0]
    if kind == "lit":
        return (f"{tree[1]}" if tree[2] is None else f"{tree[1]}/{tree[2]}"), 3
    if kind == "coord":
        return tree[1], 3
    if kind in ("add", "sub"):
        op = "+" if kind == "add" else "-"
        return f"{at(tree[1], 0)}{sep}{op}{sep}{at(tree[2], 1)}", 0
    if kind == "mul":
        return f"{at(tree[1], 1)}*{at(tree[2], 2)}", 1
    if kind == "neg":
        return f"-{sep}{at(tree[1], 2)}", 2
    if kind == "pow":
        return f"{at(tree[1], 3)}^{tree[2]}", 2
    return f"({_render(tree[1], sep)[0]})", 3


def _value(tree) -> DiffPoly:
    """The tree built through DiffPoly's operators; ValueError past MAX_EXPONENT."""
    kind = tree[0]
    if kind == "lit":
        return DiffPoly.const(Fraction(tree[1], tree[2] or 1))
    if kind == "coord":
        return DiffPoly.var(tree[2])
    if kind in ("add", "sub"):
        sign = DiffPoly.const(1 if kind == "add" else -1)
        return _value(tree[1]) + sign * _value(tree[2])
    if kind == "mul":
        return _value(tree[1]) * _value(tree[2])
    if kind == "neg":
        return DiffPoly.const(-1) * _value(tree[1])
    if kind == "pow":
        return _value(tree[1]) ** tree[2]
    return _value(tree[1])


def _same_or_both_refused(parse, text, build):
    """``parse(text)`` equals ``build()`` and is returned, or both refuse a power past MAX_EXPONENT."""
    # a parenthesis or minus sign opens at most one level of the parser's nesting
    assume(text.count("(") + text.count("-") <= MAX_NESTING)
    try:
        want = build()
    except ValueError as exc:
        assert "exceeds" in str(exc)
        with pytest.raises(ParseError, match="exceeds"):
            parse(text, _GRAMMAR)
        return None
    got = parse(text, _GRAMMAR)
    assert got == want
    return got


_GRAMMAR_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@_GRAMMAR_PROPERTY
@given(_trees, st.sampled_from(("", " ")))
def test_parser_matches_direct_arithmetic(tree, sep):
    got = _same_or_both_refused(parse_expr, _render(tree, sep)[0], lambda: _value(tree))
    if got is not None:
        assert type(got.den) is int and got.den > 0 and gcd(got.den, *got.nums.values()) == 1
        assert parse_expr(format_poly(got, _GRAMMAR), _GRAMMAR) == got


# (signs, coefficient factors, D-literal names or None): one term of an operator literal
_op_terms = st.lists(
    st.tuples(st.lists(st.sampled_from("+-"), max_size=2),
              st.lists(_trees, max_size=3),
              st.none() | st.lists(st.sampled_from(_GRAMMAR.indep), min_size=1, max_size=3))
    .filter(lambda term: term[1] or term[2]),
    min_size=1, max_size=4)


def _render_op(terms, sep: str) -> str:
    pieces = []
    for k, (signs, factors, names) in enumerate(terms):
        parts = [f"({text})" if level < 2 else text
                 for text, level in (_render(f, sep) for f in factors)]
        if names:
            parts.append("D_{" + ",".join(names) + "}")
        sign = "".join(signs or (["+"] if k else []))  # a term after the first needs one
        pieces.append(sign + "*".join(parts))
    return sep.join(pieces)


def _op_value(terms) -> ScalarCDiffOp:
    """The literal as a sum of one-term ScalarCDiffOps, each coefficient a DiffPoly product."""
    total = ScalarCDiffOp()
    for signs, factors, names in terms:
        coeff = DiffPoly.const((-1) ** signs.count("-"))
        for f in factors:
            coeff = coeff * _value(f)
        sigma = tuple(_GRAMMAR.indep_index[n] for n in names or ())
        total = total + ScalarCDiffOp({sigma: coeff})
    return total


@_GRAMMAR_PROPERTY
@given(_op_terms, st.sampled_from(("", " ")))
def test_operator_literals_match_scalar_op_sums(terms, sep):
    _same_or_both_refused(parse_scalar_op, _render_op(terms, sep), lambda: _op_value(terms))


_MUTATIONS = list("+-*/^(){}_,;.#=? 0123456789xtuvlamD")


@_GRAMMAR_PROPERTY
@given(_trees, _op_terms, st.data())
def test_mutated_texts_raise_only_value_errors(tree, terms, data):
    """Deleting, inserting or truncating one spot: a value, or ParseError/ValueError."""
    for text, parse in ((_render(tree, " ")[0], parse_expr),
                        (_render_op(terms, " "), parse_scalar_op)):
        at = data.draw(st.integers(0, len(text)))
        how = data.draw(st.sampled_from(("delete", "insert", "truncate")))
        if how == "delete":
            text = text[:at] + text[at + 1:]
        elif how == "insert":
            text = text[:at] + data.draw(st.sampled_from(_MUTATIONS)) + text[at:]
        else:
            text = text[:at]
        # a two-digit exponent may be valid and expand a sum in full: slow, not wrong
        if re.search(r"\^\s*\d\d", text):
            continue
        try:
            parse(text, _GRAMMAR)
        except ValueError:  # ParseError included
            pass
