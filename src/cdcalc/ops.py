"""Matrices of total-derivative operators.

A scalar operator is a finite sum  sum_sigma a^sigma D_sigma  with DiffPoly
coefficients; a ``CDiffOp`` is a rectangular matrix of these over a fixed
context.  Composition and adjoints are normalized back to that form by
Leibniz rewriting (D_i after a coefficient f becomes f D_i + D_i(f)), so
operator equality is literal normal-form equality.

Apply, compose and Green remainders take each D_sigma from a prefix table
built for the call (``jet._along``); adjoints step along each multi-index
once.  Each output coefficient is summed in one dict of int numerators over
one common denominator.
"""

from __future__ import annotations

from functools import partial

from .expr import (
    JET, DiffPoly, ExprParser, ParseError, _format_monomial, _join_signed, _sum,
    _sum_by_key, _sum_products, format_poly,
)
from .jet import JetContext, _along, _merge_sign, _table, increasing_tuples, total_derivative

MultiIndex = tuple  # non-decreasing tuple of independent-variable indices


class ScalarCDiffOp:
    """One matrix entry: finite map multi-index -> coefficient polynomial.

    Multi-indices are sorted at construction, so terms given under
    permutations of one multi-index merge into a single coefficient.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = _sum_by_key((tuple(sorted(sigma)), poly)
                                 for sigma, poly in terms.items()) if terms else {}

    @staticmethod
    def _normal(terms: dict) -> "ScalarCDiffOp":
        """The operator with ``terms`` as they are: sorted keys, nonzero DiffPolys."""
        op = object.__new__(ScalarCDiffOp)
        op.terms = terms
        return op

    @property
    def order(self) -> int:
        # order of the zero operator is 0 by convention
        return max((len(s) for s in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, ScalarCDiffOp):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "ScalarCDiffOp") -> "ScalarCDiffOp":
        return ScalarCDiffOp._normal(_sum_by_key([*self.terms.items(), *other.terms.items()]))

    def __neg__(self) -> "ScalarCDiffOp":
        return ScalarCDiffOp._normal({s: -p for s, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly: DiffPoly) -> "ScalarCDiffOp":
        """Left multiplication by a function (coefficient-wise)."""
        return ScalarCDiffOp._normal({s: q for s, p in self.terms.items() if (q := poly * p)})

    def coefficient_jet_order(self) -> int:
        return max((p.jet_order() for p in self.terms.values()), default=0)

    def __repr__(self):
        return f"ScalarCDiffOp({len(self.terms)} terms, order {self.order})"


def _left_Di(ctx: JetContext, i: int, op: ScalarCDiffOp) -> ScalarCDiffOp:
    """Normalize D_i composed with ``op``: D_i (f D_sigma) = f D_{sigma i} + D_i(f) D_sigma."""
    out = {tuple(sorted(sigma + (i,))): poly for sigma, poly in op.terms.items()}
    for sigma, poly in op.terms.items():
        if d := total_derivative(ctx, i, poly):
            # the one other term at sigma, if any, is the coefficient at sigma - i
            if sigma not in out:
                out[sigma] = d
            elif s := _sum((out[sigma], d)):
                out[sigma] = s
            else:
                del out[sigma]
    return ScalarCDiffOp._normal(out)


class CDiffOp:
    """Rectangular matrix of scalar total-derivative operators.

    Apply with ``op(vector)``, compose with ``op2 @ op1`` (so that
    ``(op2 @ op1)(v) == op2(op1(v))``), and combine with ``+``/``-``.
    """

    __slots__ = ("ctx", "entries")

    def __init__(self, ctx: JetContext, entries):
        self.ctx = ctx
        self.entries = tuple(tuple(row) for row in entries)
        if not self.entries or not self.entries[0]:
            raise ValueError("operator matrix must be at least 1x1")
        width = len(self.entries[0])
        if any(len(row) != width for row in self.entries):
            raise ValueError("operator matrix must be rectangular")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ctx: JetContext, rows: int, cols: int) -> "CDiffOp":
        return CDiffOp(ctx, [[ScalarCDiffOp() for _ in range(cols)]
                             for _ in range(rows)])

    @staticmethod
    def identity(ctx: JetContext, size: int) -> "CDiffOp":
        one = DiffPoly.const(1)
        return CDiffOp(ctx, [[ScalarCDiffOp({(): one}) if i == j else ScalarCDiffOp()
                              for j in range(size)] for i in range(size)])

    @staticmethod
    def total(ctx: JetContext, *indices) -> "CDiffOp":
        """The 1x1 operator D_sigma for the given independent indices/names."""
        sigma = tuple(sorted(ctx._indep_idx(i) for i in indices))
        return CDiffOp(ctx, [[ScalarCDiffOp({sigma: DiffPoly.const(1)})]])

    @staticmethod
    def multiplication(ctx: JetContext, poly: DiffPoly) -> "CDiffOp":
        return CDiffOp(ctx, [[ScalarCDiffOp({(): poly})]])

    # -- shape -------------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def order(self) -> int:
        return max(e.order for row in self.entries for e in row)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def coefficient_jet_order(self) -> int:
        return max(e.coefficient_jet_order() for row in self.entries for e in row)

    def __eq__(self, other):
        if not isinstance(other, CDiffOp):
            return NotImplemented
        return self.ctx == other.ctx and self.entries == other.entries

    __hash__ = None

    # -- algebra -------------------------------------------------------------

    def __call__(self, vector) -> list[DiffPoly]:
        vec = [v if isinstance(v, DiffPoly) else DiffPoly.const(v) for v in vector]
        if len(vec) != self.cols:
            raise ValueError(f"operator expects {self.cols} components, got {len(vec)}")
        tables = [_table(v) for v in vec]
        step = partial(total_derivative, self.ctx)
        return [_sum_products([(coeff, _along(table, sigma, step))
                               for table, entry in zip(tables, row)
                               for sigma, coeff in entry.terms.items()])
                for row in self.entries]

    def __matmul__(self, inner: "CDiffOp") -> "CDiffOp":
        if not isinstance(inner, CDiffOp):
            return NotImplemented
        if self.cols != inner.rows:
            raise ValueError(
                f"compose shape mismatch: {self.rows}x{self.cols} after "
                f"{inner.rows}x{inner.cols}")
        if self.ctx != inner.ctx:
            raise ValueError("operators live over different contexts")
        tables = [[_table(b) for b in row] for row in inner.entries]
        step = partial(_left_Di, self.ctx)
        out = []
        for outer_row in self.entries:
            row = []
            for j in range(inner.cols):
                acc: dict = {}  # multi-index -> the (coefficient, polynomial) products to sum
                for a, inner_row in zip(outer_row, tables):
                    table = inner_row[j]
                    if table[0].terms:  # a zero inner entry adds nothing
                        for sigma, coeff in a.terms.items():
                            for tau, poly in _along(table, sigma, step).terms.items():
                                acc.setdefault(tau, []).append((coeff, poly))
                row.append(ScalarCDiffOp._normal(
                    {tau: s for tau, pairs in acc.items() if (s := _sum_products(pairs))}))
            out.append(row)
        return CDiffOp(self.ctx, out)

    def __add__(self, other: "CDiffOp") -> "CDiffOp":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("operator shapes differ")
        return CDiffOp(self.ctx,
                       [[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self) -> "CDiffOp":
        return CDiffOp(self.ctx, [[-e for e in row] for row in self.entries])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, poly) -> "CDiffOp":
        poly = poly if isinstance(poly, DiffPoly) else DiffPoly.const(poly)
        return CDiffOp(self.ctx, [[e.scale(poly) for e in row] for row in self.entries])

    def __repr__(self):
        return f"CDiffOp({self.rows}x{self.cols}, order {self.order})"


def compose(outer: CDiffOp, inner: CDiffOp) -> CDiffOp:
    """Normalized composition; apply-compatible with nesting."""
    return outer @ inner


def apply_op(op: CDiffOp, vector) -> list[DiffPoly]:
    return op(vector)


def adjoint(op: CDiffOp) -> CDiffOp:
    """Formal adjoint: transpose with entrywise (sum f D_sigma)* =
    sum (-1)^{|sigma|} D_sigma (f .), renormalized.

    With this convention (D_t - L)* = -D_t - L* for any x-only operator L;
    the pairing uses the coordinate volume element, so no extra weights
    appear.
    """
    ctx = op.ctx

    def entry_adjoint(entry: ScalarCDiffOp) -> ScalarCDiffOp:
        pairs = []
        for sigma, coeff in entry.terms.items():
            term = ScalarCDiffOp._normal({(): -coeff if len(sigma) % 2 else coeff})
            for i in sigma:
                term = _left_Di(ctx, i, term)
            pairs.extend(term.terms.items())
        return ScalarCDiffOp._normal(_sum_by_key(pairs))

    return CDiffOp(op.ctx, [[entry_adjoint(row[j]) for row in op.entries]
                            for j in range(op.cols)])


def linearize(ctx: JetContext, components) -> CDiffOp:
    """Universal linearization: entry (s, j) is sum_sigma dF_s/du^j_sigma D_sigma."""
    if ctx.is_evolution:
        raise ValueError("linearization is computed on the free jet space")
    comps = list(components)
    if not comps:
        raise ValueError("need at least one component")
    rows = []
    for f in comps:
        row = [dict() for _ in range(ctx.m)]
        for c in f.coords():
            if c.kind != JET:
                continue
            d = f.partial(c)
            if d:
                row[c.index][c.sigma] = d
        rows.append([ScalarCDiffOp(cell) for cell in row])
    return CDiffOp(ctx, rows)


def green_remainder(op: CDiffOp, p, q) -> list[DiffPoly]:
    """Integration-by-parts witness.

    Returns R_1..R_n with  <q, op p> - <op* q, p> = sum_i D_i(R_i)  exactly,
    built term by term: w D_i(g) = D_i(w g) - D_i(w) g, peeled along each
    multi-index.
    """
    ctx = op.ctx
    pvec = [v if isinstance(v, DiffPoly) else DiffPoly.const(v) for v in p]
    qvec = [v if isinstance(v, DiffPoly) else DiffPoly.const(v) for v in q]
    if len(pvec) != op.cols or len(qvec) != op.rows:
        raise ValueError("green_remainder: vector lengths must match the operator")
    tables = [_table(v) for v in pvec]
    step = partial(total_derivative, ctx)
    rems = [[] for _ in range(ctx.n)]  # per i, the (w, D_rest(p_j)) products to sum
    for row, qs in zip(op.entries, qvec):
        for table, entry in zip(tables, row):
            for sigma, coeff in entry.terms.items():
                w = qs * coeff
                for pos, i in enumerate(sigma):
                    rems[i].append((w, _along(table, sigma[pos + 1:], step)))
                    w = -total_derivative(ctx, i, w)
    return [_sum_products(pairs) for pairs in rems]


def pairing(a, b) -> DiffPoly:
    """Componentwise product, summed."""
    return sum((x * y for x, y in zip(a, b)), DiffPoly.zero())


# ---------------------------------------------------------------------------
# The horizontal differential as an operator matrix
# ---------------------------------------------------------------------------

def dbar_operator(ctx: JetContext, q: int) -> CDiffOp:
    """d-bar on degree-q form components, as a C(n,q+1) x C(n,q) operator.

    Components are indexed by strictly increasing tuples in lexicographic
    order; the entry for (J, I) with J = I + {i} is +-D_i with the sign of
    wedging dx_i in front of dx_I.
    """
    n = ctx.n
    if not 0 <= q < n:
        raise ValueError(f"dbar degree {q} out of range 0..{n - 1}")
    sources = increasing_tuples(n, q)
    targets = increasing_tuples(n, q + 1)
    tindex = {key: r for r, key in enumerate(targets)}
    rows = [[ScalarCDiffOp() for _ in sources] for _ in targets]
    for c, key in enumerate(sources):
        for i in range(n):
            if i in key:
                continue
            newkey, sign = _merge_sign((i,), key)
            rows[tindex[newkey]][c] = ScalarCDiffOp(
                {(i,): DiffPoly.const(sign)})
    return CDiffOp(ctx, rows)


# ---------------------------------------------------------------------------
# Operator literals
# ---------------------------------------------------------------------------

class _OpParser(ExprParser):
    """opexpr := opterm (("+"|"-") opterm)*
    opterm  := sign? factor ("*" factor)*   with at most one trailing D-literal
    D-literal := "D_{" ident ("," ident)* "}"
    """

    def parse_scalar_op(self) -> ScalarCDiffOp:
        total = self.op_term()
        while self.at_sym("+") or self.at_sym("-"):
            _, sym, _ = self.advance()
            term = self.op_term()
            total = total + (term if sym == "+" else -term)
        kind, lex, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {lex!r}", off)
        return total

    def op_term(self) -> ScalarCDiffOp:
        negate = False
        while self.at_sym("-") or self.at_sym("+"):
            _, sym, _ = self.advance()
            if sym == "-":
                negate = not negate
        coeff = DiffPoly.const(1)
        sigma = None
        while True:
            if self._at_d_literal():
                sigma = self._d_literal()
            else:
                coeff = coeff * self.factor()
            if self.at_sym("*"):
                if sigma is not None:
                    _, _, off = self.peek()
                    raise ParseError("D_{...} must end its term", off)
                self.advance()
                continue
            break
        if negate:
            coeff = -coeff
        return ScalarCDiffOp({(sigma if sigma is not None else ()): coeff})

    def _at_d_literal(self) -> bool:
        kind, lex, _ = self.peek()
        if kind != "ident" or lex != "D":
            return False
        nkind, nlex, _ = self.tokens[self.pos + 1]
        return nkind == "sym" and nlex == "_"

    def _d_literal(self) -> MultiIndex:
        self.advance()  # D
        self.advance()  # _
        self.expect_sym("{")
        indices = []
        while True:
            kind, lex, off = self.peek()
            if kind != "ident" or lex not in self.ctx.indep_index:
                raise ParseError("expected independent variable in D_{...}", off)
            self.advance()
            indices.append(self.ctx.indep_index[lex])
            if self.at_sym(","):
                self.advance()
                continue
            break
        self.expect_sym("}")
        return tuple(sorted(indices))


def parse_scalar_op(text: str, ctx: JetContext) -> ScalarCDiffOp:
    return _OpParser(text, ctx).parse_scalar_op()


def parse_operator_matrix(text: str, ctx: JetContext) -> CDiffOp:
    """One matrix row per line, entries separated by ';'."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([parse_scalar_op(cell, ctx) for cell in line.split(";")])
    if not rows:
        raise ValueError("empty operator matrix")
    return CDiffOp(ctx, rows)


def format_scalar_op(op: ScalarCDiffOp, ctx: JetContext) -> str:
    if op.is_zero():
        return "0"
    terms = []
    for sigma in sorted(op.terms, key=lambda s: (len(s), s)):
        poly = op.terms[sigma]
        if len(poly.nums) == 1:
            ((mono, coeff),) = poly.terms.items()
            sign, body = _format_monomial(mono, coeff, ctx)
        else:
            sign, body = 1, f"({format_poly(poly, ctx)})"
        if sigma:
            dname = "D_{" + ",".join(ctx.indep[i] for i in sigma) + "}"
            body = dname if body == "1" else f"{body}*{dname}"
        terms.append((sign, body))
    return _join_signed(terms)


def format_operator(op: CDiffOp) -> str:
    """Row per line, entries separated by ' ; '; re-parses to an equal operator."""
    return "\n".join(" ; ".join(format_scalar_op(e, op.ctx) for e in row)
                     for row in op.entries)
