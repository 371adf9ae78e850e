"""Shared generators for seeded property tests, plus acceptance reporting."""

import random
from fractions import Fraction

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
