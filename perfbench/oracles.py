"""Answers computed apart from cdcalc: closed forms and sympy.

Nothing here calls cdcalc.  The checks in ``workloads.py`` compare the
program's outputs with these values; sympy is imported lazily, after the
timed part of a run, so it never shows in the timings or the peak memory.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def jet_fiber_dim(n: int, r: int) -> int:
    """Dimension of the order-r jet fiber of one function of n variables."""
    return comb(n + r, n)


def exactness_dims(ranks, orders, n, position, level):
    """(domain, middle, codomain) fiber dimensions at an interior position.

    ``ranks`` are the module ranks m_0 .. m_k, ``orders`` the declared
    orders k_1 .. k_k; the prolonged chain at ``position`` p and level l is
    J^{k_p + k_{p+1} + l}(m_{p-1}) -> J^{k_{p+1} + l}(m_p) -> J^l(m_{p+1}).
    """
    k_in, k_out = orders[position - 1], orders[position]
    return (ranks[position - 1] * jet_fiber_dim(n, k_in + k_out + level),
            ranks[position] * jet_fiber_dim(n, k_out + level),
            ranks[position + 1] * jet_fiber_dim(n, level))


def broken_chain_defect(level: int) -> int:
    """Gradient then zero over n = 2: the missing curl leaves C(l+2, 2)."""
    return comb(level + 2, 2)


def gradient_cokernel(n: int, k1: int) -> int:
    """codim - rank of the prolonged gradient: n C(n+k1, n) - (C(n+k1+1, n) - 1)."""
    return n * jet_fiber_dim(n, k1) - (jet_fiber_dim(n, k1 + 1) - 1)


def wave_cokernel(k1: int) -> int:
    """Maxwell wave operator on 1-forms over n = 4.

    By exactness of forms^1 -> forms^3 -> forms^4 the cokernel at depth k1
    is the rank of d on the order-(k1-1) fiber, which is onto: C(3+k1, 4).
    """
    return comb(3 + k1, 4)


def pform_positions(n: int, p: int) -> set:
    """Position sets of the unit-dimension table, derived by hand."""
    return {(4, 1): {(0, 0), (0, 2), (1, 2)},
            (6, 3): {(0, 0), (0, 2), (1, 2), (0, 4), (1, 4)},
            (8, 4): {(0, 0), (0, 3), (1, 3), (1, 6), (2, 6)}}[(n, p)]


# ---------------------------------------------------------------------------
# Exact linear algebra and polynomials through sympy
# ---------------------------------------------------------------------------

def sympy_rank(matrix) -> int:
    """Rank over QQ of a list-of-rows matrix, by sympy's sparse DomainMatrix."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    if not matrix or not matrix[0]:
        return 0
    rows = {}
    for i, row in enumerate(matrix):
        entries = {j: QQ(Fraction(v).numerator, Fraction(v).denominator)
                   for j, v in enumerate(row) if v}
        if entries:
            rows[i] = entries
    return DomainMatrix(rows, (len(matrix), len(matrix[0])), QQ).rank()


def mat_vec_is_zero(matrix, vector) -> bool:
    return all(sum(a * b for a, b in zip(row, vector) if a and b) == 0
               for row in matrix)


def _sympy_poly(terms, symbols):
    from sympy import Rational

    expr = 0
    for coeff, named in terms:
        mono = Rational(coeff.numerator, coeff.denominator)
        for name, e in named:
            mono = mono * symbols[name] ** e
        expr = expr + mono
    return expr


def _cdcalc_text(expr, symbols) -> str:
    """Render a sympy polynomial in the cdcalc expression syntax."""
    from sympy import Poly

    names = list(symbols)
    if expr == 0:
        return "0"
    poly = Poly(expr, *[symbols[n] for n in names])
    pieces = []
    for exps, coeff in poly.terms():
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        pieces.append(f"({coeff.p}/{coeff.q})" + "".join("*" + f for f in factors))
    return " + ".join(pieces)


def linearization_texts(terms, indep, max_order: int) -> list[str]:
    """Universal linearization of one scalar equation as operator literals.

    ``terms`` is the structured polynomial of ``inputs._equation``; the
    entry is sum over jets u_sigma of (dF/du_sigma) D_sigma, differentiated
    by sympy.  Returns the summands, each an operator-literal string.
    """
    from sympy import Symbol

    from inputs import jet_name, multiindices

    symbols = {}
    jets = []
    for name in indep:
        symbols[name] = Symbol(name)
    for r in range(max_order + 1):
        for sigma in multiindices(len(indep), r):
            name = jet_name("u", sigma, indep)
            symbols[name] = Symbol(name)
            jets.append((name, sigma))
    expr = _sympy_poly(terms, symbols)
    out = []
    for name, sigma in jets:
        d = expr.diff(symbols[name])
        if d == 0:
            continue
        coeff = _cdcalc_text(d, symbols)
        if sigma:
            out.append(f"({coeff})*D_{{" + ",".join(indep[i] for i in sigma) + "}")
        else:
            out.append(f"({coeff})")
    return out


def two_line_matches(printed: str, k: int, p: int, sign: str) -> bool:
    """The printed polynomial equals sum th_i^k +- (sum th_i)^k, by sympy."""
    from sympy import Symbol, expand, sympify

    th = [Symbol(f"th{i + 1}") for i in range(p)]
    want = sum(t ** k for t in th)
    want = want + sum(th) ** k if sign == "+" else want - sum(th) ** k
    got = sympify(printed.replace("^", "**"), locals={str(t): t for t in th})
    return expand(got - want) == 0
