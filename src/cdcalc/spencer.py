"""Symbols, jet-fiber maps, and delta-cohomology of operators.

Everything here is finite-dimensional exact linear algebra at a point: the
operator's coefficients are frozen to rationals, the graded symbol maps are
assembled between symmetric powers, and the delta-complex built on their
kernels yields the cohomology table used for involutivity tests.

Conventions for the cohomology table ``dims[l][i]``:

* the level-l complex has terms Lambda^i (x) g^{k+l-i} for 0 <= i <= l
  (these are the slots whose symmetric degree is at least the operator
  order k); columns i > l lie outside it and are reported as 0;
* g^r for r >= k is the kernel of the degree-r graded symbol map, and
  closedness is measured by the ambient delta differential;
* the single degenerate slot (k + l == 0, i == 0) is reported as 0: at
  symmetric degree zero the kernel of delta consists of the constants,
  which the full polynomial complex resolves.

Under these conventions the table always has dims[l][0] = dims[l][1] = 0
(injectivity of delta in positive degree, and the prolongation property of
symbol kernels), which the implementation asserts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import comb

from .expr import MAX_EXPONENT, DiffPoly, Coord, PARAM, _accumulate, _join_signed
from .jet import (
    JetContext, JetPoint, PointError, _along, _at_generic_points, _check_depth, _check_size,
    _merge_sign, _table, increasing_tuples,
)
from .linalg import _kernel_rows, rank
from .ops import CDiffOp, _left_Di

# ---------------------------------------------------------------------------
# Multi-index bases
# ---------------------------------------------------------------------------


def multiindices(n: int, r: int) -> list[tuple[int, ...]]:
    """Non-decreasing r-tuples from range(n), lexicographic (basis of S^r)."""
    return list(itertools.combinations_with_replacement(range(n), r))


def multiindices_upto(n: int, r: int) -> list[tuple[int, ...]]:
    """All multi-indices of length <= r, by (length, lex); jet-fiber basis."""
    out = []
    for d in range(r + 1):
        out.extend(multiindices(n, d))
    return out


def sym_dim(n: int, r: int) -> int:
    return comb(n + r - 1, n - 1) if r >= 0 else 0


def jet_fiber_dim(n: int, r: int) -> int:
    return comb(n + r, n)


def _remove_one(sigma: tuple, i: int) -> tuple:
    out = list(sigma)
    out.remove(i)
    return tuple(out)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


@dataclass
class SymbolMatrix:
    """Top-order coefficients frozen at a point.

    ``entries[(s, j)]`` maps a degree-k multi-index to its rational
    coefficient; only nonzero values are stored.
    """

    n: int
    rows: int
    cols: int
    degree: int
    entries: dict

    def entry(self, s: int, j: int) -> dict:
        return self.entries.get((s, j), {})


def symbol(op: CDiffOp, pt: JetPoint) -> SymbolMatrix:
    """Degree-k part of the operator with coefficients evaluated at ``pt``."""
    k = op.order
    entries: dict = {}
    for s in range(op.rows):
        for j in range(op.cols):
            cell = {}
            for sigma, poly in op.entries[s][j].terms.items():
                if len(sigma) != k:
                    continue
                value = poly.evaluate(pt)
                if value:
                    cell[sigma] = value
            if cell:
                entries[(s, j)] = cell
    return SymbolMatrix(op.ctx.n, op.rows, op.cols, k, entries)


def graded_symbol_matrix(sym: SymbolMatrix, l: int) -> FiberMap:
    """The degree-graded map S^{k+l} (x) P -> S^l (x) P1 as sparse rows.

    Rows are (s, tau) with |tau| = l, columns (j, mu) with |mu| = k + l;
    the entry is the symbol coefficient at mu minus tau when tau fits
    inside mu.
    """
    taus = multiindices(sym.n, l)
    mus = multiindices(sym.n, sym.degree + l)
    mu_pos = {mu: c for c, mu in enumerate(mus)}
    rows = [{j * len(mus) + mu_pos[tuple(sorted(tau + sigma))]: value
             for j in range(sym.cols) for sigma, value in sym.entry(s, j).items()}
            for s in range(sym.rows) for tau in taus]
    return FiberMap(rows=rows, domain_dim=sym.cols * len(mus),
                    codomain_dim=len(rows), source_rank=sym.cols,
                    source_order=sym.degree + l, target_rank=sym.rows,
                    target_order=l)


def symbol_kernel_basis(sym: SymbolMatrix, r: int) -> list[dict]:
    """Basis of g^r inside S^r (x) P as sparse ``{column: value}`` rows.

    Below the operator order g^r is the full module; the column numbering is
    that of ``graded_symbol_matrix``.
    """
    if r < 0:
        return []
    rows = graded_symbol_matrix(sym, r - sym.degree).rows if r >= sym.degree else []
    return _kernel_rows(rows, sym.cols * sym_dim(sym.n, r))


# ---------------------------------------------------------------------------
# Fiber maps of prolonged operators
# ---------------------------------------------------------------------------


@dataclass
class FiberMap:
    """Rational matrix of a prolonged operator between jet fibers.

    ``rows`` holds one sparse row ``{column: value}`` per codomain basis
    vector (an all-zero row is ``{}``); ``matrix`` is the dense view.
    """

    rows: list
    domain_dim: int
    codomain_dim: int
    source_rank: int
    source_order: int
    target_rank: int
    target_order: int

    @property
    def matrix(self) -> list[list[Fraction]]:
        zero = Fraction(0)
        return [[row.get(c, zero) for c in range(self.domain_dim)] for row in self.rows]

    def rank(self) -> int:
        return rank(self.rows)


def _check_fiber_size(op: CDiffOp, k: int, l: int) -> None:
    """Reject the order-(k + l) fiber map of ``op`` before it is built."""
    _check_size(max(op.cols * jet_fiber_dim(op.ctx.n, k + l),
                    op.rows * jet_fiber_dim(op.ctx.n, l)), f"the order-{k + l} fiber map")


class _Tower:
    """The prolongations D_tau(entries), |tau| <= max(levels), of one operator.

    Built for one call, whose sample points share it; the prolongations are
    made on the first ``rows`` call.  ``rows(pt)`` are (tau, s) in graded
    tau order, over the columns (j, mu) of the top level's fiber map
    (declared order k), so level l is a prefix of them.  With constant
    coefficients the first point's ranks serve every point, and the
    prolongations are dropped once those ranks are known.
    """

    def __init__(self, op: CDiffOp, k: int, levels):
        self.op = op
        self.ends = {l: op.rows * jet_fiber_dim(op.ctx.n, l) for l in levels}
        self.mu_pos = {mu: c for c, mu in enumerate(
            multiindices_upto(op.ctx.n, k + max(self.ends)))}
        self.constant = all(set(poly.nums) <= {()} for row in op.entries for e in row
                            for poly in e.terms.values())
        self.prolonged = None
        self._ranks = None

    def rows(self, pt: JetPoint) -> list[dict]:
        if self.prolonged is None:
            step = partial(_left_Di, self.op.ctx)
            tables = [[_table(e) for e in row] for row in self.op.entries]
            self.prolonged = [[_along(t, tau, step) if t[0].terms else t[0] for t in row]
                              for tau in multiindices_upto(self.op.ctx.n, max(self.ends))
                              for row in tables]
        return [{j * len(self.mu_pos) + self.mu_pos[mu]: value for j, entry in enumerate(row)
                 for mu, poly in entry.terms.items() if (value := poly.evaluate(pt))}
                for row in self.prolonged]

    def ranks(self, pt: JetPoint) -> dict[int, int]:
        """The rank of the level-l fiber map at ``pt``, for each level l."""
        if self._ranks is None or not self.constant:
            rows = self.rows(pt)
            self._ranks = {l: rank(rows[:end]) for l, end in self.ends.items()}
            if self.constant:
                self.prolonged = None
        return self._ranks


def fiber_map(op: CDiffOp, l: int, pt: JetPoint,
              declared_order: int | None = None) -> FiberMap:
    """The prolonged operator as a map of jet fibers at a point.

    Maps the order-(k+l) fiber on the source to the order-l fiber on the
    target, k being the (declared) operator order.  The point must cover
    the operator's coefficients and their first l total derivatives.  The
    rows are a level-l prolongation tower's, built for this call, s-major.
    """
    k = op.order if declared_order is None else declared_order
    if k < op.order:
        raise ValueError(f"declared order {k} below actual order {op.order}")
    needed = op.coefficient_jet_order() + l
    if pt.order_bound < needed:
        raise PointError(
            f"point order {pt.order_bound} insufficient; need {needed}")
    _check_fiber_size(op, k, l)
    rows = _Tower(op, k, (l,)).rows(pt)
    rows = [row for s in range(op.rows) for row in rows[s::op.rows]]
    return FiberMap(rows=rows, domain_dim=op.cols * jet_fiber_dim(op.ctx.n, k + l),
                    codomain_dim=len(rows), source_rank=op.cols, source_order=k + l,
                    target_rank=op.rows, target_order=l)


# ---------------------------------------------------------------------------
# Delta maps
# ---------------------------------------------------------------------------


def delta_map(n: int, rank_p: int, r: int, s: int) -> FiberMap:
    """Matrix of delta: Lambda^s (x) S^r (x) P -> Lambda^{s+1} (x) S^{r-1} (x) P.

    Symmetric factors use the shift model (component at rho of the i-th
    contraction is the component at rho + i), under which the square of the
    map vanishes identically.
    """
    if r < 1:
        raise ValueError("delta needs symmetric degree r >= 1")
    if not 0 <= s < n:
        raise ValueError(f"exterior degree {s} out of range 0..{n - 1}")
    # the columns are the images of the basis vectors of the whole source
    images = _delta_of_subspace(n, rank_p, r, s, _kernel_rows([], rank_p * sym_dim(n, r)))
    rows = [{} for _ in range(comb(n, s + 1) * rank_p * sym_dim(n, r - 1))]
    for c, image in enumerate(images):
        for t, value in image.items():
            rows[t][c] = value
    return FiberMap(rows=rows, domain_dim=len(images), codomain_dim=len(rows),
                    source_rank=rank_p, source_order=r,
                    target_rank=rank_p, target_order=r - 1)


def _delta_of_subspace(n: int, rank_p: int, r: int, s: int,
                       basis: list) -> list:
    """Images under ambient delta of Lambda^s-shifted copies of ``basis``.

    ``basis`` (sparse rows) spans a subspace of S^r (x) P; the subspace of
    Lambda^s (x) S^r (x) P it generates has one copy per increasing s-tuple.
    Returns the image vectors as sparse rows, ready for a rank computation.
    """
    if r == 0:
        return []
    src_sym = multiindices(n, r)
    tgt_sym = multiindices(n, r - 1)
    tgt_form_pos = {f: i for i, f in enumerate(increasing_tuples(n, s + 1))}
    tgt_sym_pos = {m: i for i, m in enumerate(tgt_sym)}
    images = []
    for form in increasing_tuples(n, s):
        for vec in basis:
            out: dict = {}
            for pos, value in vec.items():
                comp, sym_i = divmod(pos, len(src_sym))
                mu = src_sym[sym_i]
                for i in set(mu):
                    newform, sign = _merge_sign((i,), form)
                    if newform is None:
                        continue
                    idx = (tgt_form_pos[newform] * rank_p + comp) * len(tgt_sym) \
                        + tgt_sym_pos[_remove_one(mu, i)]
                    _accumulate(out, idx, sign * value)
            images.append(out)
    return images


# ---------------------------------------------------------------------------
# Cohomology tables and involutivity
# ---------------------------------------------------------------------------


@dataclass
class SpencerReport:
    """Delta-cohomology dimensions of an operator, by level and slot."""

    order: int
    l_max: int
    n: int
    dims: list
    warnings: list = field(default_factory=list)

    @property
    def first_failure(self):
        for l, row in enumerate(self.dims):
            for i, value in enumerate(row):
                if value:
                    return (l, i)
        return None

    @property
    def involutive_up_to(self):
        return self.l_max if self.first_failure is None else None

    def machine_lines(self) -> list[str]:
        lines = [f"dims.{l}.{i}: {v}" for l, row in enumerate(self.dims)
                 for i, v in enumerate(row)]
        lines.append(f"involutive_up_to: {self.involutive_up_to}")
        return lines


@dataclass
class InvolutivityResult:
    involutive: bool
    l_max: int
    failure: tuple | None
    report: SpencerReport


def _dims_table(sym: SymbolMatrix, rank_p: int, l_max: int, n: int):
    """One cohomology table plus the tuple of every rank used to build it.

    The rank tuple orders symbol-map ranks before the delta ranks they feed,
    so its lexicographic maximum over sample points is the generic profile.
    """
    k = sym.degree
    kernels: dict[int, list] = {}
    profile = []

    def g_basis(r: int) -> list:
        if r not in kernels:
            kernels[r] = symbol_kernel_basis(sym, r)
            profile.append(rank_p * sym_dim(n, r) - len(kernels[r]))
        return kernels[r]

    dims = []
    for l in range(l_max + 1):
        row = []
        delta_ranks: dict[int, int] = {}
        sub_dims: dict[int, int] = {}
        for i in range(min(l, n) + 1):
            r = k + l - i
            basis = g_basis(r)
            sub_dims[i] = len(basis) * comb(n, i)
            if r == 0:
                delta_ranks[i] = 0
            else:
                images = _delta_of_subspace(n, rank_p, r, i, basis)
                delta_ranks[i] = rank(images)
            profile.append(delta_ranks[i])
        for i in range(n + 1):
            if i > l:
                row.append(0)
                continue
            if k + l == 0 and i == 0:
                row.append(0)  # constants: resolved by the augmentation
                continue
            ker = sub_dims[i] - delta_ranks[i]
            image = delta_ranks.get(i - 1, 0)
            value = ker - image
            assert value >= 0, "image not contained in kernel (internal error)"
            row.append(value)
        assert row[0] == 0, "slot 0 must vanish (delta is injective)"
        if n >= 1:
            assert row[1] == 0, "slot 1 must vanish (prolongation property)"
        dims.append(row)
    return dims, tuple(profile)


def spencer_cohomology(op: CDiffOp, l_max: int, pt: JetPoint | None = None,
                       seed: int = 0) -> SpencerReport:
    """Delta-cohomology dimensions dims[l][i] for l <= l_max, i <= n.

    With no explicit point, coefficients are frozen at three seeded random
    points; ranks are taken at the sample maximizing them and a warning is
    recorded if the samples disagree (a non-generic draw or genuinely
    variable rank).
    """
    _check_depth("l_max", l_max)
    n = op.ctx.n
    # the top level uses the largest Lambda^i (x) S^r (x) P, r = k + l_max - i
    _check_size(max(comb(n, i) * op.cols * sym_dim(n, op.order + l_max - i)
                    for i in range(min(l_max, n) + 1)),
                f"Lambda (x) S^r (x) P up to l_max = {l_max}")
    dims, warnings = _at_generic_points(
        op.ctx, op.coefficient_jet_order(), pt, seed,
        lambda point: _dims_table(symbol(op, point), op.cols, l_max, n))
    return SpencerReport(order=op.order, l_max=l_max, n=n, dims=dims,
                         warnings=warnings)


def is_involutive(op: CDiffOp, l_max: int, pt: JetPoint | None = None,
                  seed: int = 0) -> InvolutivityResult:
    """Vanishing test of the cohomology table over the tested range only."""
    report = spencer_cohomology(op, l_max, pt, seed)
    failure = report.first_failure
    return InvolutivityResult(involutive=failure is None, l_max=l_max,
                              failure=failure, report=report)


# ---------------------------------------------------------------------------
# The evolution-equation vanishing certificate
# ---------------------------------------------------------------------------


@dataclass
class TwoLineResult:
    k: int
    p: int
    sign: int
    nonzero: bool
    poly: DiffPoly
    ctx: JetContext


# (t1 + ... + tp)^k expands in full into C(k+p-1, p-1) terms; this bounds them.
MAX_TWO_LINE_TERMS = 2000


def two_line_polynomial(k: int, p: int, sign) -> TwoLineResult:
    """Expand (t1^k + ... + tp^k) +- (t1 + ... + tp)^k over the rationals.

    A nonzero result certifies that multiplication by it is injective on
    polynomials, the vanishing hypothesis used for evolution equations of
    order >= 2.  ``k`` is at most ``MAX_EXPONENT`` and the expansion at most
    ``MAX_TWO_LINE_TERMS`` terms.
    """
    if k < 1 or p < 1:
        raise ValueError("need k >= 1 and p >= 1")
    if k > MAX_EXPONENT:
        raise ValueError(f"k = {k} exceeds {MAX_EXPONENT}")
    if comb(k + p - 1, p - 1) > MAX_TWO_LINE_TERMS:
        raise ValueError(f"(t1 + ... + t{p})^{k} has more than "
                         f"{MAX_TWO_LINE_TERMS} terms")
    sgn = 1 if sign in (1, "+", "+1") else -1 if sign in (-1, "-", "-1") else None
    if sgn is None:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    names = tuple(f"th{i + 1}" for i in range(p))
    ctx = JetContext(("x",), ("u",), params=names)
    thetas = [DiffPoly.var(Coord(PARAM, i)) for i in range(p)]
    power_sum = DiffPoly.zero()
    linear = DiffPoly.zero()
    for th in thetas:
        power_sum = power_sum + th ** k
        linear = linear + th
    poly = power_sum + linear ** k if sgn > 0 else power_sum - linear ** k
    return TwoLineResult(k=k, p=p, sign=sgn, nonzero=not poly.is_zero(),
                         poly=poly, ctx=ctx)


# ---------------------------------------------------------------------------
# Symbol printing (for reports)
# ---------------------------------------------------------------------------


def format_symbol_entry(cell: dict, ctx: JetContext) -> str:
    if not cell:
        return "0"
    terms = []
    for sigma in sorted(cell):
        value = cell[sigma]
        counts: dict[int, int] = {}
        for i in sigma:
            counts[i] = counts.get(i, 0) + 1
        body_parts = []
        if abs(value) != 1 or not sigma:
            body_parts.append(str(abs(value)))
        for i in sorted(counts):
            name = f"xi_{ctx.indep[i]}"
            body_parts.append(name if counts[i] == 1 else f"{name}^{counts[i]}")
        terms.append((1 if value > 0 else -1, "*".join(body_parts)))
    return _join_signed(terms)
