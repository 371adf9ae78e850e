"""Matrices of total-derivative operators.

A scalar operator is a finite sum  sum_sigma a^sigma D_sigma  with DiffPoly
coefficients; a ``CDiffOp`` is a rectangular matrix of these over a fixed
context.  Composition and adjoints are normalized back to that form by
Leibniz rewriting (D_i after a coefficient f becomes f D_i + D_i(f)), so
operator equality is literal normal-form equality.

Apply, compose and Green remainders take each D_sigma from a prefix table
built for the call (``jet._along``); adjoints expand each term by the
Leibniz rule and take each derivative of its coefficient once.  Compose and
adjoint keep int numerators through the whole chain: every derivative is
``jet._derivative_into`` on numerators over a denominator tracked beside
them, and each output coefficient is summed in one dict over one common
denominator and reduced with one gcd.
"""

from __future__ import annotations

from functools import partial
from math import comb, lcm

from .expr import (
    JET, DiffPoly, ExprParser, ParseError, _as_poly, _join_signed, _mul_into, _poly, _product,
    _signed_terms, _sum_by_key, _sum_products, format_poly,
)
from .jet import (
    JetContext, _along, _check_size, _derivative_into, _statements, _table, _walk, _wedge_table,
    total_derivative,
)


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


def _node(entry: ScalarCDiffOp) -> tuple:
    """``entry`` as a compose node ``(den, {tau: int numerators over den})``, den the lcm.

    A coefficient already over den keeps its own numerator dict.
    """
    den = lcm(*(p.den for p in entry.terms.values()))
    return den, {tau: p.nums if p.den == den else _scaled(p.nums, den // p.den)
                 for tau, p in entry.terms.items()}


def _scaled(nums: dict, k: int) -> dict:
    return {m: c * k for m, c in nums.items()}


def _after_Di(ctx: JetContext, i: int, node: tuple) -> tuple:
    """D_i composed with a node: D_i (f D_tau) = f D_{tau i} + D_i(f) D_tau, on numerators.

    The result is over den times the scale of D_i's terms (``_dt_scale`` for
    evolution-mode D_t, else 1); with scale 1 each shifted coefficient is the
    node's own dict, copied only where D_i(f) of another term lands on it.
    """
    den, terms = node
    scale = ctx._dt_scale if i == 1 and ctx._dt is not None else 1
    out = {tuple(sorted(tau + (i,))): nums if scale == 1 else _scaled(nums, scale)
           for tau, nums in terms.items()}
    for tau, nums in terms.items():
        # the one other term at tau, if any, is the shifted coefficient at tau - i
        shifted = out.get(tau)
        d = {} if shifted is None else dict(shifted) if scale == 1 else shifted
        _derivative_into(ctx, i, nums, d)
        if d:
            out[tau] = d
        elif shifted is not None:
            del out[tau]
    return den * scale, out


class CDiffOp:
    """Rectangular matrix of scalar total-derivative operators.

    Apply with ``op(vector)``, compose with ``op2 @ op1`` (so that
    ``(op2 @ op1)(v) == op2(op1(v))``), and combine with ``+``/``-``.
    """

    __slots__ = ("ctx", "entries", "_jet_order")

    def __init__(self, ctx: JetContext, entries):
        self.ctx = ctx
        self.entries = tuple(tuple(row) for row in entries)
        # filled on first call: an operator is not changed once built
        self._jet_order = None
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
        if self._jet_order is None:
            self._jet_order = max(e.coefficient_jet_order() for row in self.entries for e in row)
        return self._jet_order

    def point_order(self, depth: int) -> int:
        """Jet order a point needs for the coefficients and ``depth`` derivatives of them.

        A total derivative raises a coefficient's jet order by one, except
        that in evolution mode D_t substitutes the right-hand sides, of order
        r, and raises it by r.
        """
        r = max((f.jet_order() for f in self.ctx.evolution_rhs or ()), default=0)
        return self.coefficient_jet_order() + depth * max(1, r)

    def __eq__(self, other):
        if not isinstance(other, CDiffOp):
            return NotImplemented
        return self.ctx == other.ctx and self.entries == other.entries

    __hash__ = None

    # -- algebra -------------------------------------------------------------

    def __call__(self, vector) -> list[DiffPoly]:
        vec = [_as_poly(v) for v in vector]
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
        # a zero inner entry adds nothing: it gets no table
        tables = [[_table(_node(b)) if b.terms else None for b in row] for row in inner.entries]
        step = partial(_after_Di, self.ctx)
        out = []
        for outer_row in self.entries:
            row = []
            for j in range(inner.cols):
                acc: dict = {}  # multi-index -> the (coefficient, den, numerators) products to sum
                for a, inner_row in zip(outer_row, tables):
                    table = inner_row[j]
                    if table:
                        for sigma, coeff in a.terms.items():
                            den, node = _along(table, sigma, step)
                            for tau, nums in node.items():
                                acc.setdefault(tau, []).append((coeff, den, nums))
                entry = {}
                for tau, products in acc.items():  # as _sum_products, b being nums over d
                    den = lcm(*(a.den * d for a, d, _ in products))
                    nums = {}
                    for a, d, b in products:
                        _mul_into(nums, a.nums, b, den // (a.den * d))
                    if nums:
                        entry[tau] = _poly(nums, den)
                row.append(ScalarCDiffOp._normal(entry))
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
        poly = _as_poly(poly)
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
    appear.  Each term is expanded by the Leibniz rule, (f D_sigma)* =
    (-1)^|sigma| sum over rho <= sigma of C(sigma, rho) D_{sigma-rho}(f) D_rho.
    An entry is summed on int numerators over one lcm, to which each term
    brings f's denominator times ``_dt_scale`` once per t in sigma, since
    each evolution-mode D_t puts its terms over that scale.
    """
    ctx = op.ctx
    scale = ctx._dt_scale  # 1 in free mode and for integral rules

    def entry_adjoint(entry: ScalarCDiffOp) -> ScalarCDiffOp:
        terms = entry.terms.items()
        den = lcm(*(f.den * scale ** sigma.count(1) for sigma, f in terms))
        acc: dict = {}  # rho -> its int numerators over den
        for sigma, f in terms:
            runs = [(i, sigma.count(i)) for i in sorted(set(sigma))]
            k = den // f.den
            _leibniz_into(ctx, acc, runs, 0, f.nums, (), -k if len(sigma) % 2 else k)
        return ScalarCDiffOp._normal({rho: _poly(nums, den) for rho, nums in acc.items() if nums})

    return CDiffOp(ctx, [[entry_adjoint(row[j]) for row in op.entries]
                         for j in range(op.cols)])


def _leibniz_into(ctx: JetContext, acc: dict, runs: list, r: int, nums: dict, rho: tuple,
                  k: int) -> None:
    """Add to ``acc`` the Leibniz terms of ``nums`` over the runs from ``r`` on.

    ``runs`` are the (index, count) runs of sigma in index order.  Run r
    puts j of its n indices into nu and the other n - j into ``rho``, for
    j = 0..n, taking D_nu one total derivative further on the numerators,
    C(n, j) into the multiplier ``k`` and, for a D_t whose terms are over a
    scale, that scale out of it.  Each leaf adds ``k`` times its numerators
    straight into its rho's dict.  A zero derivative ends its branch, since
    every longer one is zero too.  The recursion is one level a run.
    """
    if r == len(runs):
        out = acc.get(rho)
        if out is None:
            acc[rho] = _scaled(nums, k)
            return
        for m, c in nums.items():
            if s := out.get(m, 0) + c * k:
                out[m] = s
            else:
                del out[m]
        return
    i, n = runs[r]
    for j in range(n + 1):
        if j:
            d: dict = {}
            scale = _derivative_into(ctx, i, nums, d)
            if not d:
                return
            nums = d
            k = k // scale * (n - j + 1) // j  # C(n, j) from C(n, j - 1)
        _leibniz_into(ctx, acc, runs, r + 1, nums, rho + (i,) * (n - j), k)


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
    pvec = [_as_poly(v) for v in p]
    qvec = [_as_poly(v) for v in q]
    if len(pvec) != op.cols or len(qvec) != op.rows:
        raise ValueError("green_remainder: vector lengths must match the operator")
    tables = [_table(v) for v in pvec]
    step = partial(total_derivative, ctx)
    rems = [[] for _ in range(ctx.n)]  # per i, the (w, D_rest(p_j)) products to sum
    for row, qs in zip(op.entries, qvec):
        for table, entry in zip(tables, row):
            for sigma, coeff in entry.terms.items():
                # D_{sigma[pos+1:]}(p_j) for pos = r-1, ..., 0: along each suffix
                # reversed, so each node is one step past the one before
                rest = [table]
                for i in reversed(sigma[1:]):
                    rest.append(_walk(rest[-1], (i,), step))
                w = qs * coeff
                for pos, i in enumerate(sigma):
                    if pos:
                        w = -total_derivative(ctx, sigma[pos - 1], w)
                    rems[i].append((w, rest[-1 - pos][0]))
    return [_sum_products(pairs) for pairs in rems]


def pairing(a, b) -> DiffPoly:
    """Componentwise product, summed in one dict; int and Fraction entries are constants."""
    return _sum_products([(_as_poly(x), _as_poly(y)) for x, y in zip(a, b)])


# ---------------------------------------------------------------------------
# The horizontal differential as an operator matrix
# ---------------------------------------------------------------------------

def dbar_operator(ctx: JetContext, q: int) -> CDiffOp:
    """d-bar on degree-q form components, as a C(n,q+1) x C(n,q) operator.

    Components are indexed by strictly increasing tuples in lexicographic
    order; the entry for (J, I) with J = I + {i} is +-D_i with the sign of
    wedging dx_i in front of dx_I.  A side past MAX_FIBER_DIM raises
    ValueError before anything is built.
    """
    n = ctx.n
    if not 0 <= q < n:
        raise ValueError(f"dbar degree {q} out of range 0..{n - 1}")
    for d in (q, q + 1):
        _check_size(comb(n, d), f"Lambda^{d} in dimension {n}")
    table = _wedge_table(n, q)
    zero = ScalarCDiffOp()  # entries are never mutated, so the zeros share one
    rows = [[zero] * len(table) for _ in range(comb(n, q + 1))]
    for c, wedges in enumerate(table):
        for i, t, sign in wedges:
            rows[t][c] = ScalarCDiffOp({(i,): DiffPoly.const(sign)})
    return CDiffOp(ctx, rows)


# ---------------------------------------------------------------------------
# Operator literals
# ---------------------------------------------------------------------------

class _OpParser(ExprParser):
    """opexpr := opterm (("+"|"-") opterm)*
    opterm  := sign? factor ("*" factor)*   with at most one trailing D-literal
    D-literal := "D" "_" indices

    Each term's coefficient is one product (``_product``); the terms are
    grouped by D-multi-index and each group is summed once (``_sum_by_key``).
    """

    def parse_scalar_op(self) -> ScalarCDiffOp:
        # op_term reads the sign between terms as its own
        terms = [self.op_term()]
        while self.tokens[self.pos][1] in ("+", "-"):
            terms.append(self.op_term())
        self.expect_end()
        return ScalarCDiffOp._normal(_sum_by_key(terms))

    def op_term(self) -> tuple:
        """One signed term as (sorted multi-index, coefficient); () without a D-literal."""
        tokens = self.tokens
        negate = False
        while (sym := tokens[self.pos][1]) in ("+", "-"):
            self.pos += 1
            negate ^= sym == "-"
        factors, stars = [], []
        sigma = ()
        while True:
            if tokens[self.pos][1] == "D" and tokens[self.pos + 1][1] == "_":
                self.pos += 2
                sigma = tuple(sorted(self.indices("expected independent variable in D_{...}")))
            else:
                factors.append(self.factor())
            if tokens[self.pos][1] != "*":
                break
            if sigma:
                raise ParseError("D_{...} must end its term", tokens[self.pos][2])
            stars.append(tokens[self.pos][2])
            self.pos += 1
        coeff = _product(factors, stars) if factors else DiffPoly.const(1)
        return sigma, -coeff if negate else coeff


def parse_scalar_op(text: str, ctx: JetContext) -> ScalarCDiffOp:
    return _OpParser(text, ctx).parse_scalar_op()


def parse_operator_matrix(text: str, ctx: JetContext) -> CDiffOp:
    """One matrix row per line, entries separated by ';'."""
    rows = [[parse_scalar_op(cell, ctx) for cell in line.split(";")]
            for _, line in _statements(text)]
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
            ((sign, body),) = _signed_terms(poly, ctx)
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
