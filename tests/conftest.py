"""Shared generators for seeded property tests, plus acceptance reporting."""

import random
from fractions import Fraction
from math import prod

import pytest

from cdcalc import Coord, DiffPoly, JetContext, JetPoint, generic_points
from cdcalc.expr import INDEP, JET, PARAM
from cdcalc.ops import CDiffOp, ScalarCDiffOp


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))


def rand_coord(rng: random.Random, ctx: JetContext, max_order: int) -> Coord:
    kinds = [INDEP, JET, JET]  # bias toward jets
    if ctx.params:
        kinds.append(PARAM)
    kind = rng.choice(kinds)
    if kind == INDEP:
        return Coord(INDEP, rng.randrange(ctx.n))
    if kind == PARAM:
        return Coord(PARAM, rng.randrange(len(ctx.params)))
    order = rng.randint(0, max_order)
    if ctx.is_evolution:
        sigma = (0,) * order
    else:
        sigma = tuple(sorted(rng.randrange(ctx.n) for _ in range(order)))
    return Coord(JET, rng.randrange(ctx.m), sigma)


def rand_poly(rng: random.Random, ctx: JetContext, max_order: int = 2,
              max_terms: int = 3, max_exp: int = 2) -> DiffPoly:
    out = DiffPoly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = DiffPoly.const(rand_fraction(rng))
        for _ in range(rng.randint(0, 2)):
            coord = rand_coord(rng, ctx, max_order)
            term = term * DiffPoly.var(coord, rng.randint(1, max_exp))
        out = out + term
    return out


def rand_scalar_op(rng: random.Random, ctx: JetContext, max_op_order: int = 2,
                   max_coeff_order: int = 1, max_terms: int = 2) -> ScalarCDiffOp:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        order = rng.randint(0, max_op_order)
        sigma = tuple(sorted(rng.randrange(ctx.n) for _ in range(order)))
        poly = rand_poly(rng, ctx, max_coeff_order, max_terms=2, max_exp=1)
        if sigma in terms:
            poly = poly + terms[sigma]
        terms[sigma] = poly
    return ScalarCDiffOp(terms)


def split_samples(ctx: JetContext, order: int) -> list[JetPoint]:
    """The seed-0 policy samples with the middle one moved onto x = 1.

    With the operator rows D_t + x - 1 and (x - 1) D_x + 1, the middle sample
    sees a smaller prolonged rank than the other two.
    """
    samples = generic_points(ctx, order, seed=0)
    samples[1] = JetPoint(ctx, order, {**samples[1].values,
                                       ctx.indep_coord("x"): Fraction(1)})
    return samples


def count_draws(monkeypatch) -> list:
    """The (ctx, order_bound, seed) of each random point whose values get drawn."""
    import cdcalc.jet
    draws = []
    original = cdcalc.jet._draw

    def counted(*args):
        draws.append(args)
        return original(*args)

    monkeypatch.setattr(cdcalc.jet, "_draw", counted)
    return draws


def matmul(a, b) -> list[list[Fraction]]:
    """Product of two dense rational matrices (a test oracle for the maps)."""
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"matmul shape mismatch: {len(a[0])} vs {len(b)}")
    return [[sum((x * brow[c] for x, brow in zip(row, b)), Fraction(0))
             for c in range(len(b[0]) if b else 0)] for row in a]


def sympy_rank(matrix) -> int:
    """Rank over QQ of a dense rational matrix, computed by sympy."""
    import sympy
    from sympy.polys.matrices import DomainMatrix
    QQ = sympy.QQ
    rows = [[QQ(v.numerator, v.denominator) for v in row] for row in matrix]
    return DomainMatrix(rows, (len(matrix), len(matrix[0])), QQ).rank()


# ---------------------------------------------------------------------------
# sympy oracle: the chain-rule sums written out independently of jet.py
# ---------------------------------------------------------------------------

class SympyJets:
    """sympy symbols named by (kind, index, sorted sigma) alone."""

    def __init__(self):
        import sympy
        self.sympy = sympy
        self.jets = {}  # sympy symbol -> (dependent index, sorted sigma)

    def coord(self, kind, index, sigma=()):
        sigma = tuple(sorted(sigma))
        sym = self.sympy.Symbol(f"c{kind}_{index}_" + "_".join(map(str, sigma)))
        if kind == JET:
            self.jets[sym] = (index, sigma)
        return sym

    def poly(self, f: DiffPoly):
        out = self.sympy.Integer(0)
        for mono, coeff in f.terms.items():
            term = self.sympy.Rational(coeff.numerator, coeff.denominator)
            for c, e in mono:
                term *= self.coord(c.kind, c.index, c.sigma) ** e
            out += term
        return self.sympy.expand(out)

    def jet_symbols(self, expr):
        return sorted((s for s in expr.free_symbols if s in self.jets), key=str)

    def total(self, expr, i):
        """d/dx_i + sum u_{sigma+i} d/du_sigma."""
        out = self.sympy.diff(expr, self.coord(INDEP, i))
        for s in self.jet_symbols(expr):
            j, sigma = self.jets[s]
            out += self.coord(JET, j, sigma + (i,)) * self.sympy.diff(expr, s)
        return self.sympy.expand(out)

    def evolution_dt(self, expr, rhs):
        """d/dt + sum D_x^r(f_j) d/du^j_{x^r}, with D_x^r taken by ``total``."""
        out = self.sympy.diff(expr, self.coord(INDEP, 1))
        for s in self.jet_symbols(expr):
            j, sigma = self.jets[s]
            g = rhs[j]
            for _ in sigma:
                g = self.total(g, 0)
            out += g * self.sympy.diff(expr, s)
        return self.sympy.expand(out)

    def along(self, expr, sigma, rhs=None):
        """D_sigma(expr) by ``total``, or by ``evolution_dt`` for t when ``rhs`` is given."""
        for i in sigma:
            expr = self.evolution_dt(expr, rhs) if rhs and i == 1 else self.total(expr, i)
        return expr


# ---------------------------------------------------------------------------
# Reference polynomials: plain monomial -> Fraction dicts, with the ring and
# calculus written out from the definitions, apart from expr.py and jet.py
# ---------------------------------------------------------------------------

def ref_monomial(exps: dict) -> tuple:
    """The canonical monomial of a coordinate -> exponent map (zero exponents dropped)."""
    return tuple(sorted((c, e) for c, e in exps.items() if e))


def ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for coord, e in m2:
                exps[coord] = exps.get(coord, 0) + e
            m = ref_monomial(exps)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_pow(a: dict, n: int) -> dict:
    out = {(): Fraction(1)}
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_partial(a: dict, coord) -> dict:
    out = {}
    for m, c in a.items():
        exps = dict(m)
        e = exps.get(coord, 0)
        if e:
            exps[coord] = e - 1
            key = ref_monomial(exps)
            out[key] = out.get(key, 0) + c * e
    return out


def ref_total(i: int, a: dict, rhs=None) -> dict:
    """D_i(a) = da/dx_i + sum over jets of u_{sigma+i} da/du_sigma.

    With ``rhs`` (reference dicts f_j of an evolution rule u^j_t = f_j over
    x, t) and i = 1, the jet factor of u^j_{x^r} is D_x^r(f_j) instead.
    """
    out = ref_partial(a, Coord(INDEP, i))
    for c in {c for m in a for c, _ in m if c.kind == JET}:
        if rhs is not None and i == 1:
            factor = rhs[c.index]
            for _ in c.sigma:
                factor = ref_total(0, factor)
        else:
            factor = {((Coord(JET, c.index, c.sigma + (i,)), 1),): Fraction(1)}
        out = ref_add(out, ref_mul(factor, ref_partial(a, c)))
    return out


def ref_coords(a: dict) -> set:
    return {c for m in a for c, _ in m}


def ref_degree(a: dict) -> int:
    return max((sum(e for _, e in m) for m in a), default=0)


def ref_jet_order(a: dict) -> int:
    return max((len(c.sigma) for c in ref_coords(a) if c.kind == JET), default=0)


def ref_evaluate(a: dict, values: dict) -> Fraction:
    return sum((c * prod(Fraction(values[x]) ** e for x, e in m) for m, c in a.items()),
               Fraction(0))


def ref_adjoint(op: CDiffOp, rhs=None) -> list[list[dict]]:
    """op* from the definition, as multi-index -> reference dict maps.

    Entry (j, s) is the sum over sigma of (-1)^|sigma| D_sigma o f_sigma for
    the terms f_sigma D_sigma of entry (s, j), each D_i composed on the left
    by D_i o a D_tau = D_i(a) D_tau + a D_{tau + i}.  ``rhs`` is as for
    ``ref_total``.
    """
    out = []
    for j in range(op.cols):
        row = []
        for entry in (r[j] for r in op.entries):
            total = {}
            for sigma, coeff in entry.terms.items():
                sign = Fraction((-1) ** len(sigma))
                term = {(): ref_mul({(): sign}, dict(coeff.terms))}
                for i in sigma:
                    composed = {}
                    for tau, a in term.items():
                        up = tuple(sorted(tau + (i,)))
                        composed[up] = ref_add(composed.get(up, {}), a)
                        composed[tau] = ref_add(composed.get(tau, {}), ref_total(i, a, rhs))
                    term = composed
                for tau, a in term.items():
                    total[tau] = ref_add(total.get(tau, {}), a)
            row.append({tau: a for tau, a in total.items() if a})
        out.append(row)
    return out


def rand_operator(rng: random.Random, ctx: JetContext, rows: int, cols: int,
                  max_op_order: int = 2, max_coeff_order: int = 1) -> CDiffOp:
    return CDiffOp(ctx, [[rand_scalar_op(rng, ctx, max_op_order, max_coeff_order)
                          for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# One pass/fail line per acceptance criterion at the end of the run
# ---------------------------------------------------------------------------

_CRITERIA = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance" in item.nodeid:
            _CRITERIA[item.nodeid] = None


def pytest_runtest_logreport(report):
    if report.when == "call" and report.nodeid in _CRITERIA:
        _CRITERIA[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    lines = []
    for nodeid, outcome in sorted(_CRITERIA.items()):
        if outcome is None:
            continue
        name = nodeid.split("::")[-1]
        lines.append(f"{name}: {outcome.upper()}")
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
