import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

import cdcalc.jet
from cdcalc import (
    DiffPoly, HorizontalForm, JetContext, JetPoint, PointError, dbar, format_form,
    format_poly, linearize, parse_point_file, parse_problem, random_point,
    total_derivative, total_derivative_sigma, wedge,
)
from cdcalc.expr import INDEP, JET, MAX_DIGITS, PARAM, Coord, ParseError
from cdcalc.jet import (
    _DISAGREEMENT, _at_generic_points, _coord_names, _draw, _merge_sign, _wedge_table,
)

from conftest import SympyJets, count_draws, rand_poly


@pytest.fixture
def ctx():
    return JetContext.free("x t", "u")


def test_total_derivative_basics(ctx):
    u = DiffPoly.var(ctx.jet_coord("u"))
    assert total_derivative(ctx, "x", u) == DiffPoly.var(ctx.jet_coord("u", ("x",)))
    f = ctx.parse("u*u_x")
    assert total_derivative(ctx, "x", f) == ctx.parse("u_x^2 + u*u_xx")


def test_total_derivative_raises_order_by_one(ctx):
    rng = random.Random(1)
    for _ in range(30):
        f = rand_poly(rng, ctx, max_order=2)
        df = total_derivative(ctx, "x", f)
        assert df.jet_order() <= f.jet_order() + 1


def test_total_derivatives_commute_free():
    rng = random.Random(2)
    ctx3 = JetContext.free("x y z", "u v")
    for _ in range(40):
        f = rand_poly(rng, ctx3, max_order=2)
        for i in range(3):
            for j in range(i):
                dij = total_derivative(ctx3, i, total_derivative(ctx3, j, f))
                dji = total_derivative(ctx3, j, total_derivative(ctx3, i, f))
                assert dij == dji


def test_total_derivative_sigma_nests_total_derivatives(ctx):
    f = ctx.parse("u*u_x")
    assert total_derivative_sigma(ctx, (), f) == f
    assert format_poly(total_derivative_sigma(ctx, ("x", "t"), f), ctx) == \
        "u*u_xxt + 2*u_x*u_xt + u_xx*u_t"
    rng = random.Random(6)
    for ctx_ in (JetContext.free("x y z", "u v"),
                 JetContext.evolution("u", ["u*u_x + u_{x,x,x}"])):
        for _ in range(10):
            f = rand_poly(rng, ctx_, max_order=2)
            sigma = tuple(rng.randrange(ctx_.n) for _ in range(rng.randint(0, 3)))
            nested = f
            for i in sigma:
                nested = total_derivative(ctx_, i, nested)
            for order in set(itertools.permutations(sigma)):
                assert total_derivative_sigma(ctx_, order, f) == nested


def test_evolution_dt_kdv():
    ctx = JetContext.evolution("u", ["u*u_x + u_{x,x,x}"])
    u_x = DiffPoly.var(ctx.jet_coord("u", ("x",)))
    got = total_derivative(ctx, "t", u_x)
    assert got == ctx.parse("u_x^2 + u*u_xx + u_xxxx")


def test_evolution_commutator_vanishes():
    ctx = JetContext.evolution("u", ["u*u_x + u_{x,x,x}"])
    rng = random.Random(3)
    for _ in range(25):
        f = rand_poly(rng, ctx, max_order=3)
        dxdt = total_derivative(ctx, "x", total_derivative(ctx, "t", f))
        dtdx = total_derivative(ctx, "t", total_derivative(ctx, "x", f))
        assert dxdt == dtdx


def test_evolution_requires_x_t_names():
    with pytest.raises(ValueError):
        JetContext(("a", "b"), ("u",), evolution_rhs=(DiffPoly.zero(),))


def rand_form(rng, ctx, degree):
    coeffs = {}
    from cdcalc import increasing_tuples
    for key in increasing_tuples(ctx.n, degree):
        if rng.random() < 0.8:
            coeffs[key] = rand_poly(rng, ctx, max_order=2)
    return HorizontalForm(ctx.n, degree, coeffs)


def test_wedge_table_is_the_merge_sign_of_each_new_index():
    for n in range(1, 8):
        for k in range(n):
            targets = list(itertools.combinations(range(n), k + 1))
            expected = []
            for key in itertools.combinations(range(n), k):
                row = []
                for i in range(n):
                    if i not in key:  # no index of I appears: dx_i ^ dx_I = 0 there
                        merged, sign = _merge_sign((i,), key)
                        row.append((i, targets.index(merged), sign))
                expected.append(tuple(row))
            assert _wedge_table(n, k) == tuple(expected)


def test_dbar_function(ctx):
    u = HorizontalForm.function(2, DiffPoly.var(ctx.jet_coord("u")))
    d = dbar(ctx, u)
    assert d.coeffs[(0,)] == DiffPoly.var(ctx.jet_coord("u", ("x",)))
    assert d.coeffs[(1,)] == DiffPoly.var(ctx.jet_coord("u", ("t",)))


def test_dbar_squared_zero(ctx):
    rng = random.Random(4)
    for degree in range(0, 2):
        for _ in range(20):
            omega = rand_form(rng, ctx, degree)
            assert dbar(ctx, dbar(ctx, omega)).is_zero()


def test_dbar_top_degree_is_zero(ctx):
    omega = HorizontalForm(2, 2, {(0, 1): ctx.parse("u")})
    out = dbar(ctx, omega)
    assert out.is_zero() and out.degree == 2


def test_dbar_closed_one_form(ctx):
    omega = HorizontalForm(2, 1, {(0,): ctx.parse("u_x"), (1,): ctx.parse("u_t")})
    assert dbar(ctx, omega).is_zero()


def test_format_form(ctx):
    assert format_form(HorizontalForm.zero(2, 1), ctx) == "0"
    assert format_form(HorizontalForm.function(2, ctx.parse("u*u_x - 1/2")), ctx) == \
        "-1/2 + u*u_x"
    one = HorizontalForm(2, 1, {(1,): ctx.parse("x - u_t"), (0,): ctx.parse("u_x")})
    assert format_form(one, ctx) == "(u_x) dx + (x - u_t) dt"
    # D_x(x) - D_t(t*u) on dx^dt
    two = dbar(ctx, HorizontalForm(2, 1, {(0,): ctx.parse("t*u"), (1,): ctx.parse("x")}))
    assert format_form(two, ctx) == "(1 - u - t*u_t) dx^dt"
    ctx3 = JetContext.free("x y z", "u")
    three = HorizontalForm(3, 2, {(1, 2): ctx3.parse("u_z"), (0, 2): ctx3.parse("2")})
    assert format_form(three, ctx3) == "(2) dx^dz + (u_z) dy^dz"


def test_wedge_basics(ctx):
    dx = HorizontalForm.basis(2, (0,))
    dt = HorizontalForm.basis(2, (1,))
    assert wedge(dx, dt) == HorizontalForm.basis(2, (0, 1))
    assert wedge(dx, dx).is_zero()
    u = HorizontalForm(2, 1, {(0,): ctx.parse("u")})
    ux = HorizontalForm(2, 1, {(1,): ctx.parse("u_x")})
    assert wedge(u, ux).coeffs[(0, 1)] == ctx.parse("u*u_x")


def test_wedge_graded_commutative():
    rng = random.Random(5)
    ctx3 = JetContext.free("x y z", "u")
    for qa in range(0, 3):
        for qb in range(0, 3):
            a = rand_form(rng, ctx3, qa)
            b = rand_form(rng, ctx3, qb)
            ba = wedge(b, a)
            if (qa * qb) % 2:
                ba = -ba
            assert wedge(a, b) == ba


def test_wedge_associative_bilinear():
    rng = random.Random(7)
    ctx3 = JetContext.free("x y z", "u")
    for _ in range(10):
        a = rand_form(rng, ctx3, 1)
        b = rand_form(rng, ctx3, 1)
        c = rand_form(rng, ctx3, 1)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        b2 = rand_form(rng, ctx3, 1)
        assert wedge(a, b + b2) == wedge(a, b) + wedge(a, b2)
        scaled = wedge(a.scale(3), b)
        assert scaled == wedge(a, b).scale(3)


def test_wedge_leibniz():
    rng = random.Random(6)
    ctx3 = JetContext.free("x y z", "u")
    for qa in range(0, 2):
        for qb in range(0, 2):
            for _ in range(10):
                a = rand_form(rng, ctx3, qa)
                b = rand_form(rng, ctx3, qb)
                da_b = wedge(dbar(ctx3, a), b)
                a_db = wedge(a, dbar(ctx3, b))
                if qa % 2:
                    a_db = -a_db
                assert dbar(ctx3, wedge(a, b)) == da_b + a_db


def test_random_point_and_errors(ctx):
    pt = random_point(ctx, 2, seed=0)
    assert pt.value(ctx.jet_coord("u", ("x", "t"))) != 0
    with pytest.raises(PointError, match="order bound"):
        pt.value(ctx.jet_coord("u", ("x",) * 5))
    pt2 = random_point(ctx, 2, seed=0)
    assert pt.values == pt2.values  # determinism


def _eager_values(ctx, order_bound, seed):
    """The values ``random_point`` drew before points were drawn lazily: one
    seeded stream over the independents, the parameters, then each u^j's
    jets by order (internal ones only, in evolution mode)."""
    coords = [Coord(INDEP, i) for i in range(ctx.n)]
    coords += [Coord(PARAM, i) for i in range(len(ctx.params))]
    for j in range(ctx.m):
        for r in range(order_bound + 1):
            sigmas = ([(0,) * r] if ctx.is_evolution
                      else itertools.combinations_with_replacement(range(ctx.n), r))
            coords += [Coord(JET, j, sigma) for sigma in sigmas]
    rng = random.Random(1000003 * seed + 7)
    values = {}
    for coord in coords:
        num = rng.randint(1, 9) * rng.choice((1, -1))
        den = rng.randint(1, 4)
        values[coord] = Fraction(num, den)
    return values


_POINT_CONTEXTS = [JetContext.free("x", "u"), JetContext.free("x t", "u v", "a"),
                   JetContext.free("x y z", "u"), JetContext.free("x y z w", "u v", "a b"),
                   JetContext.evolution("u v", ["u_xx + v*u", "-v_xxx"], ["c"])]


@pytest.mark.parametrize("ctx", _POINT_CONTEXTS, ids=repr)
def test_drawn_points_give_the_eager_values(ctx):
    for order_bound, seed in itertools.product(range(4), (0, 1, 5)):
        pt = random_point(ctx, order_bound, seed)
        want = _eager_values(ctx, order_bound, seed)
        assert list(pt.values.items()) == list(want.items())  # same values, same order
        assert pt.scaled == JetPoint(ctx, order_bound, want).scaled
        twin = pickle.loads(pickle.dumps(random_point(ctx, order_bound, seed)))
        assert type(twin) is JetPoint
        assert (twin.ctx, twin.order_bound, twin.values) == (ctx, order_bound, want)
        assert twin.scaled == pt.scaled


def test_draw_reads_the_randint_and_choice_stream():
    # _draw reads the stream's bits itself; each value must be the one the
    # randint(1, 9) * choice((1, -1)) / randint(1, 4) loop gives, rejections
    # included, in free, parameter and evolution contexts
    contexts = [JetContext.free("x t", "u"), JetContext.free("x y", "u v", "a b"),
                JetContext.evolution("u", ["u*u_x + u_{x,x,x}"], ["c"])]
    for ctx, seed in itertools.product(contexts, range(-20, 200)):
        order_bound = seed % 5
        want = _eager_values(ctx, order_bound, seed)
        assert list(_draw(ctx, order_bound, seed).items()) == list(want.items())


def test_points_are_drawn_on_first_read(ctx, monkeypatch):
    draws = count_draws(monkeypatch)
    pt = random_point(ctx, 2, seed=3)
    assert (pt.order_bound, draws) == (2, [])
    value = pt.value(ctx.jet_coord("u", ("x",)))
    assert value == pt.values[ctx.jet_coord("u", ("x",))] and pt.scaled is not None
    assert len(draws) == 1  # values drawn once, then kept


def test_the_policy_samples_again_only_after_a_read(ctx, monkeypatch):
    # a run that reads none of its point's values gives the same result at
    # every point, so the policy takes the other two samples only after a read
    draws = count_draws(monkeypatch)
    u_x = ctx.jet_coord("u", ("x",))
    reads = {"nothing": lambda point: None, "values": lambda point: point.values,
             "value": lambda point: point.value(u_x), "scaled": lambda point: point.scaled}
    for (name, read), seed in itertools.product(reads.items(), (0, 4)):
        runs = []

        def compute(point):
            runs.append(point)
            read(point)
            return point.seed, (0,)

        assert _at_generic_points(ctx, 2, None, seed, compute) == (3 * seed, [])
        want = [3 * seed] if name == "nothing" else [3 * seed + k for k in range(3)]
        assert [point.seed for point in runs] == want, name
        assert [args[2] for args in draws] == (want if name != "nothing" else [])
        draws.clear()

    def spread(point):  # reads, and ranks the first sample highest
        runs.append(point.values)
        return point.seed, (-point.seed,)

    # the maximal profile wins, and unequal profiles warn
    runs = []
    assert _at_generic_points(ctx, 1, None, 2, spread) == (6, [_DISAGREEMENT])
    # an explicit point runs once, read or not, and must cover the order
    runs = []
    assert _at_generic_points(ctx, 2, random_point(ctx, 2, seed=9), 0, spread) == (9, [])
    assert len(runs) == 1
    with pytest.raises(PointError, match="point order 2 insufficient; need 3"):
        _at_generic_points(ctx, 3, random_point(ctx, 2), 0, spread)


def test_an_oversized_point_is_refused_before_anything_is_drawn(monkeypatch):
    draws = count_draws(monkeypatch)
    coords = []
    monkeypatch.setattr(cdcalc.jet, "_point_coords", lambda *args: coords.append(args))
    with pytest.raises(ValueError) as caught:
        random_point(JetContext.free("x y z w", "u v"), 15)
    # 2 * C(19, 4) jets
    assert str(caught.value) == "a point of jet order 15 has 7752 coordinates, more than 2000"
    assert draws == coords == []


def test_parse_point_file(ctx):
    text = "x = 1\nt = 2\nu = 3/2\nu_x = -1\nu_t = 0\n"
    pt = parse_point_file(text, ctx, 1)
    assert pt.value(ctx.jet_coord("u")) == Fraction(3, 2)
    with pytest.raises(PointError, match="missing"):
        parse_point_file("x = 1", ctx, 1)


def test_parse_problem_evolution():
    text = """
    # KdV
    independent x t
    dependent u
    parameter lam
    evolution u = u*u_x + u_{x,x,x}
    """
    prob = parse_problem(text)
    assert prob.ctx.is_evolution
    assert not prob.ctx_free.is_evolution
    f = prob.equations[0]
    assert f == prob.ctx_free.parse("u_t - u*u_x - u_{x,x,x}")


def test_parse_problem_equations_and_metric():
    text = """
    independent x y z w
    dependent u
    equation u_{x,x} + u_{y,y}
    metric diag(1,1,1,-1)
    """
    prob = parse_problem(text)
    assert prob.metric == (1, 1, 1, -1)
    assert len(prob.equations) == 1
    assert not prob.ctx.is_evolution


def test_problem_metric_entries_are_domain_checked():
    head = "independent x t\ndependent u\nequation u_t\n"
    assert parse_problem(head + "metric diag(-1, +1)\n").metric == (-1, 1)
    for entry in ("\u0661", "7" * 5000, "1.0", "1_1", ""):
        with pytest.raises(ValueError) as err:
            parse_problem(head + f"metric diag(1,{entry})\n")
        assert str(err.value) == \
            f"line 4: metric entries must be integers of at most {MAX_DIGITS} digits"
    with pytest.raises(ValueError) as err:
        parse_problem(head + "metric diag(1,2)\n")
    assert str(err.value) == "line 4: metric entries must be +1 or -1"


def test_parse_problem_rejects_a_second_metric():
    head = "independent x t\ndependent u\nequation u_t\nmetric diag(1,1)\n"
    with pytest.raises(ValueError) as err:
        parse_problem(head + "# the same metric again\nmetric diag(1,1)\n")
    assert str(err.value) == "line 6: a second 'metric' statement"


def test_statement_keywords_end_at_any_whitespace():
    spaced = parse_problem("independent x t\ndependent u v\nparameter a\n"
                           "equation u_x - a*v\nmetric diag(1,-1)\n")
    for sep in ("\t", "  ", " \t "):
        text = (f"independent{sep}x{sep}t\ndependent{sep}u v\nparameter{sep}a\n"
                f"equation{sep}u_x - a*v\nmetric{sep}diag(1,-1)\n")
        prob = parse_problem(text)
        assert (prob.ctx.indep, prob.ctx.dep, prob.ctx.params) == \
            (spaced.ctx.indep, spaced.ctx.dep, spaced.ctx.params)
        assert prob.equations == spaced.equations and prob.metric == spaced.metric
    evolution = parse_problem("independent x t\ndependent u\nevolution\tu = u_{x,x}\n")
    assert evolution.ctx.is_evolution
    # an unknown keyword is still named alone
    with pytest.raises(ValueError) as err:
        parse_problem("independent x t\nequations\tu_x\n")
    assert str(err.value) == "line 2: unknown statement 'equations'"


def test_parse_problem_rejects_mixed():
    text = """
    independent x t
    dependent u
    equation u_x
    evolution u = u_x
    """
    with pytest.raises(ValueError):
        parse_problem(text)


# ---------------------------------------------------------------------------
# sympy oracles: conftest.SympyJets writes the chain-rule sums out apart from jet.py
# ---------------------------------------------------------------------------

def test_total_derivative_matches_sympy_chain_rule():
    sym = SympyJets()
    rng = random.Random(8)
    for ctx in (JetContext.free("x t", "u"), JetContext.free("x y z", "u v", ("a",))):
        for _ in range(40):
            f = rand_poly(rng, ctx, max_order=3, max_terms=5, max_exp=3)
            expr = sym.poly(f)
            for i in range(ctx.n):
                assert sym.poly(total_derivative(ctx, i, f)) == sym.total(expr, i)


def test_evolution_dt_matches_sympy_substitution():
    sym = SympyJets()
    rng = random.Random(9)
    for dep, texts, params in (("u", ["u*u_x + u_{x,x,x}"], ()),
                               ("u v", ["u*v_x + u_xxx - a*x", "v^2*u_xx + t*u"], ("a",))):
        ctx = JetContext.evolution(dep, texts, params)
        rhs = [sym.poly(f) for f in ctx.evolution_rhs]
        for _ in range(30):
            f = rand_poly(rng, ctx, max_order=3, max_terms=5, max_exp=3)
            expr = sym.poly(f)
            assert sym.poly(total_derivative(ctx, "t", f)) == sym.evolution_dt(expr, rhs)
            assert sym.poly(total_derivative(ctx, "x", f)) == sym.total(expr, 0)


def test_evolution_dt_tables_are_kept_per_context():
    """Two contexts with the same dependent name and different right-hand sides
    each keep their own D_t table: interleaved calls on the same monomials give
    each context's own substitution, canonical, whether built or read back."""
    sym = SympyJets()
    rng = random.Random(19)
    fractional = JetContext.evolution("u", ["1/2*u*u_x - 2/3*u_xxx + 5/7*x"])
    paired = JetContext.evolution("u v", ["u*v_x - 1/3*u_xx", "1/4*u^2*v_x + v_xxx - t"])
    contexts = [(ctx, [sym.poly(f) for f in ctx.evolution_rhs]) for ctx in (fractional, paired)]
    polys = [rand_poly(rng, fractional, max_order=3, max_terms=5, max_exp=3) for _ in range(25)]
    for f in polys + polys:  # the second pass reads every entry from the tables
        expr = sym.poly(f)
        for ctx, rhs in contexts:
            got = total_derivative(ctx, "t", f)
            assert sym.poly(got) == sym.evolution_dt(expr, rhs)
            assert math.gcd(got.den, *got.nums.values()) == 1
    assert fractional._dt.keys() == paired._dt.keys() != set()
    assert fractional._dt != paired._dt


def test_evolution_dt_refuses_jets_with_t_derivatives():
    # jet_coord refuses u_xt in evolution mode, so it is built as a bare Coord
    ctx = JetContext.evolution("u", ["u*u_x + u_{x,x,x}"])
    u_xt = DiffPoly.var(Coord(JET, 0, (0, 1)))
    for f in (u_xt, ctx.parse("u*u_x") * u_xt + 1):
        with pytest.raises(ValueError, match="u_xt has t-derivatives: not an internal"):
            total_derivative(ctx, "t", f)
    assert total_derivative(ctx, "x", u_xt) == DiffPoly.var(Coord(JET, 0, (0, 0, 1)))


@pytest.mark.parametrize("sigma, name", [
    (("t",), "v_t"), (("x", "t"), "v_xt"), (("t", "x", "x"), "v_xxt"), ((1,), "v_t"),
    ((0, 1, 1), "v_xtt"),
])
def test_evolution_jet_coord_refuses_t_derivatives(sigma, name):
    ctx = JetContext.evolution("u v", ["u_{x,x} + v", "u*v_x"])
    with pytest.raises(ValueError) as err:
        ctx.jet_coord("v", sigma)
    assert str(err.value) == f"{name} has t-derivatives: not an internal coordinate in evolution mode"
    # internal jets are still made, and a free context makes any jet
    assert ctx.jet_coord("v", ("x",) * len(sigma)) == Coord(JET, 1, (0,) * len(sigma))
    free = JetContext.free("x t", "u v")
    assert free.jet_coord("v", sigma) == Coord(JET, 1, (free._indep_idx(i) for i in sigma))


def test_linearize_matches_sympy_partials():
    sym = SympyJets()
    rng = random.Random(10)
    ctx = JetContext.free("x y", "u v", ("a",))
    for _ in range(30):
        comps = [rand_poly(rng, ctx, max_order=3, max_terms=5, max_exp=3) for _ in range(2)]
        op = linearize(ctx, comps)
        for s, f in enumerate(comps):
            expr = sym.poly(f)
            want = {}
            for u in sym.jet_symbols(expr):
                j, sigma = sym.jets[u]
                want[(j, sigma)] = sym.sympy.expand(sym.sympy.diff(expr, u))
            got = {(j, sigma): sym.poly(coeff)
                   for j in range(ctx.m)
                   for sigma, coeff in op.entries[s][j].terms.items()}
            assert got == want


def test_point_file_values_are_bounded(ctx):
    head = "x = 1\nt = 2\nu_x = -1\nu_t = 0\n"
    accepted = (("-1.25", Fraction(-5, 4)), ("3.", Fraction(3)), (".5", Fraction(1, 2)),
                ("+7/21", Fraction(1, 3)), ("9" * MAX_DIGITS, int("9" * MAX_DIGITS)))
    for value, want in accepted:
        pt = parse_point_file(head + f"u = {value}\n", ctx, 1)
        assert pt.value(ctx.jet_coord("u")) == want
    for value, message in (
            ("7" * 5000, f"line 5: value longer than {MAX_DIGITS} digits"),
            ("1/" + "3" * MAX_DIGITS, f"line 5: value longer than {MAX_DIGITS} digits"),
            ("1e999999999999", "line 5: expected an integer, p/q or plain decimal"),
            ("1_000", "line 5: expected an integer, p/q or plain decimal"),
            ("١", "line 5: expected an integer, p/q or plain decimal"),
            ("2/0", "line 5: zero denominator")):
        with pytest.raises(ValueError) as err:
            parse_point_file(head + f"u = {value}\n", ctx, 1)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# Point files: names found in the context's table, the rest parsed
# ---------------------------------------------------------------------------

_SPELLINGS = {
    "brace": lambda u, s: f"{u}_{{{','.join(s)}}}",
    "shorthand": lambda u, s: f"{u}_{''.join(s)}",
    "unsorted": lambda u, s: f"{u}_{{{','.join(reversed(s))}}}",
    "unsorted shorthand": lambda u, s: f"{u}_{''.join(reversed(s))}",
    "spaced": lambda u, s: f"{u} _{{ {' , '.join(s)} }}",
}


@pytest.mark.parametrize("spelling", sorted(_SPELLINGS))
def test_point_file_spellings_give_equal_values(spelling):
    # order bound 1, but the file names every jet up to order 3, as
    # generated point files do
    ctx = JetContext.free("x t", "u v", "lam")
    rng = random.Random(5)
    want, lines = {}, []
    for name, coord in (("x", Coord(INDEP, 0)), ("t", Coord(INDEP, 1)), ("lam", ctx.param_coord(0))):
        want[coord] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        lines.append(f"{name} = {want[coord]}")
    for r in range(4):
        for sigma in itertools.combinations_with_replacement(ctx.indep, r):
            for u in ctx.dep:
                coord = ctx.jet_coord(u, sigma)
                want[coord] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                name = _SPELLINGS[spelling](u, sigma) if sigma else u
                lines.append(f"{name} = {want[coord]}")
    rng.shuffle(lines)
    pt = parse_point_file("\n".join(lines) + "\n", ctx, 1)
    assert pt.values == want and pt.order_bound == 1


def test_point_file_reads_names_past_its_table():
    # a jet beyond what a file of this many lines could list, and names over
    # independent variables of more than one character
    ctx = JetContext.free("x1 x2", "u")
    text = "x1 = 1\nx2 = 2\nu = 3\nu_{x1} = 4\nu_{x2} = 7\nu_{x2,x1} = 5\nu_{x2,x2,x2,x2,x2} = 6\n"
    assert _coord_names(ctx, 6) == {"x1": Coord(INDEP, 0), "x2": Coord(INDEP, 1),
                                    "u": Coord(JET, 0), "u_{x1}": Coord(JET, 0, (0,)),
                                    "u_{x2}": Coord(JET, 0, (1,))}
    pt = parse_point_file(text, ctx, 1)
    assert pt.values[ctx.jet_coord("u", ("x1", "x2"))] == 5
    assert pt.values[ctx.jet_coord("u", ("x2",) * 5)] == 6
    with pytest.raises(ParseError) as err:
        parse_point_file(text + "u_x1 = 1\n", ctx, 1)
    assert str(err.value) == ("shorthand jet suffix needs single-character independent "
                              "names; use u_{i,j,...} at offset 2")


@pytest.mark.parametrize("line, message", [
    ("w = 1", "undeclared identifier 'w' at offset 0"),
    ("x_t = 1", "jet suffix on non-dependent identifier 'x' at offset 0"),
    ("lam_{x} = 1", "jet suffix on non-dependent identifier 'lam' at offset 0"),
    ("u_q = 1", "malformed jet suffix: 'q' is not independent at offset 2"),
    ("u_{x,} = 1", "malformed jet suffix: expected independent name at offset 5"),
    ("u__x = 1", "malformed jet suffix at offset 1"),
    ("1 = 2", "expected a coordinate name at offset 0"),
    ("u_x u_t = 1", "unexpected 'u' at offset 4"),
])
def test_point_file_errors_are_the_parsers(line, message):
    ctx = JetContext.free("x t", "u", "lam")
    with pytest.raises(ParseError) as err:
        parse_point_file(f"x = 1\nt = 2\nlam = 0\nu = 3\n{line}\n", ctx, 0)
    assert str(err.value) == message


@pytest.mark.parametrize("name", ["u_t", "u_{x,t}", "u_tx"])
def test_point_file_rejects_t_derivatives_in_evolution_mode(name):
    ctx = JetContext.evolution("u", ["u_{x,x,x}"])
    with pytest.raises(ParseError) as err:
        parse_point_file(f"x = 1\nt = 2\nu = 3\nu_x = 4\n{name} = 1\n", ctx, 1)
    assert str(err.value) == ("u_... with t-derivatives is not an internal coordinate "
                              "in evolution mode at offset 0")


@pytest.mark.parametrize("again", ["x", "u_xt", "u_{x,t}", "u_{t,x}"])
def test_point_file_rejects_a_coordinate_given_twice(again):
    # each spelling names a coordinate that an earlier line set
    ctx = JetContext.free("x t", "u", "lam")
    text = f"x = 1\nt = 2\nlam = 0\nu = 3\nu_xt = 4\n\n# again\n{again} = 5\n"
    with pytest.raises(ValueError) as err:
        parse_point_file(text, ctx, 2)
    assert str(err.value) == f"line 8: {again} is assigned twice"


def test_point_file_name_table_stops():
    # evolution mode adds one jet per order, up to the file's statement count
    ctx = JetContext.evolution("u", ["u_{x,x,x}"])
    names = ["x", "t"] + ["u"] + [f"u_{'x' * r}" for r in range(1, 40)]
    text = "".join(f"{name} = {r}\n" for r, name in enumerate(names))
    pt = parse_point_file(text, ctx, 39)
    assert pt.values[ctx.jet_coord("u", ("x",) * 39)] == len(names) - 1
    assert len(_coord_names(ctx, len(names))) == 2 + 1 + 2 * 39
    # with no independent variable (which JetContext refuses) no order past
    # 0 adds a coordinate, so the table ends there
    flat = JetContext.free("x", "u")
    flat.indep, flat.indep_index = (), {}
    assert _coord_names(flat, 10 ** 9) == {"u": Coord(JET, 0)}
    assert parse_point_file("u = 1/2\n" + "# blank\n" * 100, flat, 3).values == \
        {Coord(JET, 0): Fraction(1, 2)}
