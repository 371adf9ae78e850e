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

Three delta ranks are theorems that hold at every point, generic or not,
and the table takes them without eliminating: on g^r, r >= 1, rank delta is
dim g^r (delta is injective in positive degree); on Lambda^1 (x) g^r it is
n dim g^r - dim g^{r+1} (g^{r+1} is the prolongation of g^r, so H^1 = 0);
on Lambda^n (x) g^r it is 0 (Lambda^{n+1} = 0).  So dims[l][0] = dims[l][1]
= 0 by construction; the tests eliminate those ranks and check them.  Only
2 <= i < n is eliminated, over the int kernel rows of ``linalg._kernel_rows``.

delta puts dx_i in front by the table ``jet._wedge_table``, as d_h
(``ops.dbar_operator``) and xi ^ (``pform.epi_check``) do, and lowers mu by
e_i through ``_lowerings``: both are built once per size, not per call.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, lcm
from operator import methodcaller, mul

from .expr import MAX_EXPONENT, DiffPoly, Coord, PARAM, _accumulate, _join_signed
from .jet import (
    JetContext, JetPoint, PointError, _Record, _at_generic_points, _check_depth, _check_size,
    _wedge_table, total_derivative,
)
from .linalg import _fraction_rows, _kernel_rows, _prefix_ranks, rank
from .ops import CDiffOp

# ---------------------------------------------------------------------------
# Multi-index bases
# ---------------------------------------------------------------------------


def multiindices(n: int, r: int) -> list[tuple[int, ...]]:
    """Non-decreasing r-tuples from range(n), lexicographic (basis of S^r)."""
    return list(itertools.combinations_with_replacement(range(n), r))


def multiindices_upto(n: int, r: int) -> list[tuple[int, ...]]:
    """All multi-indices of length <= r, by (length, lex); jet-fiber basis."""
    return [mu for d in range(r + 1) for mu in multiindices(n, d)]


# The graded position of mu is the same in every multiindices_upto(n, r) with
# r >= |mu|.  The towers and graded symbol maps share these tables, keyed by
# sizes and multi-indices; they hold index tuples only, never an operator or point.

@cache
def _positions(n: int, r: int) -> dict[tuple[int, ...], int]:
    """{mu: graded position} over the multi-indices of length <= r."""
    return {mu: c for c, mu in enumerate(multiindices_upto(n, r))}


@cache
def _taus(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """``multiindices_upto(n, r)`` as a shared tuple: a tower's tau list."""
    return tuple(multiindices_upto(n, r))


@cache
def _shifted(n: int, top: int, sigma: tuple[int, ...]) -> tuple[int, ...]:
    """The graded position of sigma + tau for each tau of ``_taus(n, top)``."""
    positions = _positions(n, top + len(sigma))
    return tuple(positions[tuple(sorted(sigma + tau))] for tau in _taus(n, top))


@cache
def _lowerings(n: int, r: int) -> tuple[dict[int, int], ...]:
    """{i: position of mu - e_i in S^{r-1}} for each mu of ``multiindices(n, r)``;
    i is removed at its first place k in mu, where mu[k - 1] differs (mu is sorted)."""
    lower = {nu: c for c, nu in enumerate(multiindices(n, r - 1))}
    return tuple({i: lower[mu[:k] + mu[k + 1:]]
                  for k, i in enumerate(mu) if k == 0 or mu[k - 1] != i}
                 for mu in multiindices(n, r))


@cache
def _binomials(n: int, r: int, nu: tuple[int, ...]) -> tuple[int, ...]:
    """C(nu + rho, nu), the product of C(nu_i + rho_i, nu_i), for each rho of ``_taus(n, r)``."""
    out = (1,) * len(_taus(n, r))
    for i in set(nu):
        factor = [comb(nu.count(i) + c, c) for c in range(r + 1)].__getitem__
        out = tuple(map(mul, out, map(factor, map(methodcaller("count", i), _taus(n, r)))))
    return out


def sym_dim(n: int, r: int) -> int:
    return comb(n + r - 1, n - 1) if r >= 0 else 0


def jet_fiber_dim(n: int, r: int) -> int:
    return comb(n + r, n) if r >= 0 else 0


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------


class SymbolMatrix(_Record):
    """Top-order coefficients frozen at a point.

    ``entries[(s, j)]`` maps a degree-k multi-index to its rational
    coefficient; only nonzero values are stored.
    """

    __slots__ = ("n", "rows", "cols", "degree", "entries")

    def __init__(self, n: int, rows: int, cols: int, degree: int, entries: dict):
        self.n, self.rows, self.cols, self.degree, self.entries = n, rows, cols, degree, entries

    def entry(self, s: int, j: int) -> dict:
        return self.entries.get((s, j), {})


def symbol(op: CDiffOp, pt: JetPoint) -> SymbolMatrix:
    """Degree-k part of the operator with coefficients evaluated at ``pt``."""
    k = op.order
    entries = {(s, j): cell for s, row in enumerate(op.entries) for j, e in enumerate(row)
               if (cell := {sigma: value for sigma, poly in e.terms.items()
                            if len(sigma) == k and (value := poly.evaluate(pt))})}
    return SymbolMatrix(op.ctx.n, op.rows, op.cols, k, entries)


def graded_symbol_matrix(sym: SymbolMatrix, l: int) -> FiberMap:
    """The degree-graded map S^{k+l} (x) P -> S^l (x) P1 as sparse rows.

    Rows are (s, tau) with |tau| = l, columns (j, mu) with |mu| = k + l;
    the entry is the symbol coefficient at mu minus tau when tau fits
    inside mu.  Terms shift by tau as in the towers: sigma + tau is at the
    graded position ``_shifted`` gives, less those of lower degree.  Below
    the order (l < 0) S^l is 0 and the map has no rows.  Past the bounds of
    ``spencer_cohomology`` it raises ValueError before any table is built.
    """
    _check_graded(sym, l)
    rows = _graded_rows(sym, l)
    return FiberMap(rows=rows, domain_dim=sym.cols * sym_dim(sym.n, sym.degree + l),
                    codomain_dim=len(rows), source_rank=sym.cols,
                    source_order=sym.degree + l, target_rank=sym.rows,
                    target_order=l)


def _check_graded(sym: SymbolMatrix, l: int) -> None:
    """l at most MAX_PROLONGATION, and both sides of the graded map at most MAX_FIBER_DIM."""
    n, k = sym.n, sym.degree
    _check_depth("l", max(l, 0))  # below the order nothing is built
    _check_size(max(sym.cols * sym_dim(n, k + l), sym.rows * sym_dim(n, l)),
                f"the degree-{k + l} graded symbol map")


def _graded_rows(sym: SymbolMatrix, l: int) -> list[dict]:
    """The rows of ``graded_symbol_matrix``, unchecked: ``spencer_cohomology`` bounds them."""
    n, k = sym.n, sym.degree
    width, low = sym_dim(n, k + l), jet_fiber_dim(n, k + l - 1)
    return [{j * width + _shifted(n, l, sigma)[t] - low: value
             for j in range(sym.cols) for sigma, value in sym.entry(s, j).items()}
            for s in range(sym.rows) for t in range(jet_fiber_dim(n, l - 1), jet_fiber_dim(n, l))]


def symbol_kernel_basis(sym: SymbolMatrix, r: int) -> list[dict]:
    """Basis of g^r inside S^r (x) P as sparse ``{column: value}`` rows.

    Below the operator order g^r is the full module; the column numbering is
    that of ``graded_symbol_matrix``, and so are the bounds.  Each row is
    ``Fraction``-valued, 1 at its free column: the view of ``_symbol_kernel``'s int rows.
    """
    _check_graded(sym, r - sym.degree)
    return _fraction_rows(_symbol_kernel(sym, r))


def _symbol_kernel(sym: SymbolMatrix, r: int) -> dict[int, dict[int, int]]:
    """g^r as ``linalg._kernel_rows`` gives it: primitive int rows by free column."""
    return _kernel_rows(_graded_rows(sym, r - sym.degree), sym.cols * sym_dim(sym.n, r))


# ---------------------------------------------------------------------------
# Fiber maps of prolonged operators
# ---------------------------------------------------------------------------


class FiberMap(_Record):
    """Rational matrix of a prolonged operator between jet fibers.

    ``rows`` holds one sparse row ``{column: value}`` per codomain basis
    vector (an all-zero row is ``{}``); ``matrix`` is the dense view.
    """

    __slots__ = ("rows", "domain_dim", "codomain_dim", "source_rank", "source_order",
                 "target_rank", "target_order")

    def __init__(self, rows: list, domain_dim: int, codomain_dim: int, source_rank: int,
                 source_order: int, target_rank: int, target_order: int):
        self.rows, self.domain_dim, self.codomain_dim = rows, domain_dim, codomain_dim
        self.source_rank, self.source_order = source_rank, source_order
        self.target_rank, self.target_order = target_rank, target_order

    @property
    def matrix(self) -> list[list[Fraction]]:
        zero = Fraction(0)
        return [[row.get(c, zero) for c in range(self.domain_dim)] for row in self.rows]

    def rank(self) -> int:
        """Eliminated as ``_Tower.ranks`` eliminates: in its orderly ranking (highest
        graded position first), through the transpose when the map is tall."""
        width = self.domain_dim // max(self.source_rank, 1) or 1
        return rank([{-(c % width) * self.domain_dim - c: v for c, v in row.items()}
                     for row in self.rows])


def _check_fiber_size(op: CDiffOp, k: int, l: int) -> None:
    """Reject the order-(k + l) fiber map of ``op`` before it is built."""
    _check_size(max(op.cols * jet_fiber_dim(op.ctx.n, k + l),
                    op.rows * jet_fiber_dim(op.ctx.n, l)), f"the order-{k + l} fiber map")


class _Tower:
    """The level-l fiber maps, l in ``levels``, of one operator.

    Built for one call, whose sample points share it.  Rows are (tau, s) in
    graded tau order, over the columns (j, mu) of the top level's fiber map
    (any declared order), so level l is a prefix of them.  ``rows(pt)`` gives
    row (tau, s) as ``(scale, {-(graded position of mu) * cols - j: c})``,
    entry (j, mu) being c / scale, by the Leibniz rule at the point:
    D_tau(a D_sigma) is the sum of C(tau, nu) D_nu(a) D_{sigma + rho} over
    nu + rho = tau.  Each nonzero D_nu a, |nu| <= top, is taken once per call,
    on the first ``rows`` call, from the one before it (a zero ends its
    branch) and evaluated once per point (``DiffPoly._ratio``, which reads
    nothing of the point for a constant), all over one lcm.  The nu = () part
    is row s of the operator shifted by tau: with constant coefficients the
    whole row.  The binomial multiples of the rest are added as ints, zero
    sums dropped.  The index tables (``_taus``, ``_positions``, ``_shifted``,
    ``_binomials``) are shared by every tower, keyed by sizes and
    multi-indices only.

    ``lows`` and ``highs`` bound each level's rank without building a row.
    The graded order (degree, then lex on sorted index tuples) is graded lex,
    a monomial order, so the smallest key of row (tau, s) is that of
    a D_{sigma + tau}, a D_sigma being the lead of row s (``leads``), its
    term of greatest (position of sigma, j): no other term's nu = () part
    lands on that column, and every Leibniz term has lower degree.  That
    holds with constant coefficients, and at a point where each lead
    coefficient is nonzero; elsewhere (``u*D_{x,x} + D_x`` at u = 0) a
    derivative of the vanishing lead can lead, and lo is 0.  Rows with
    distinct smallest keys are independent, so lo, the number of distinct
    leads among a level's rows, is at most its rank (Seiler, *Involution*,
    2010, ch. 4-6); it is counted once per point, once per call with constant
    coefficients (whose ranks, once found, are the later points' lo).  hi is
    the number of nonzero rows (``nonzero``), or when fewer that of
    the columns (j, sigma + tau) of the operator's terms over the level's
    taus: every Leibniz term lands on one of them, so hi bounds the rank at
    every point.  ``settled_ranks`` reads the ranks off the caller's lo where
    lo == hi at every level, or where the caller certifies lo
    (``compat.check_formal_exactness`` does, from the complex property); hi
    is counted only where lo falls short of the rows.

    Otherwise ``ranks`` ranks every level with one elimination
    (``linalg._prefix_ranks``) that consumes these rows uncopied
    (``fiber_map`` builds its own): ints with no zero value, each a pivot at
    once when no pivot row before it leads its smallest column.  Column keys
    fall as |mu| rises (an orderly ranking), so the elimination meets the
    highest-order columns first, where the prolonged rows are nearly in
    echelon form and the integers stay small.  The shorter side of the top
    level is eliminated: a wide or square tower row by row, the pivots
    counted at each level's end; a tall one (more rows than nonzero columns,
    an overdetermined system with a large cokernel) through its transpose,
    whose columns are the rows in tower order.  With constant coefficients
    (``constant``) the first point's ranks, settled or eliminated, serve
    every point (a chain samples three points when another tower reads its
    point's values) and the leads are counted without evaluating them.
    """

    def __init__(self, op: CDiffOp, levels):
        self.op = op
        self.widths = {l: jet_fiber_dim(op.ctx.n, l) for l in levels}  # the taus of level l
        self.ends = {l: op.rows * width for l, width in self.widths.items()}
        self.top = max(self.ends)
        self.constant = op.has_constant_coefficients()
        # per row s, (j, sigma, a) for each term a D_sigma of entry (s, j)
        self.table = [[(j, sigma, poly) for j, e in enumerate(row)
                       for sigma, poly in e.terms.items()] for row in op.entries]
        # per nonzero row s, its term of greatest (graded position of sigma, j)
        self.leads = [max(row, key=lambda term: (len(term[1]), term[1], term[0]))
                      for row in self.table if row]
        self.nonzero = {l: len(self.leads) * width for l, width in self.widths.items()}
        self.derived = None  # ((s, j, sigma, nu), D_nu a) for each nonzero D_nu a, nu != ()
        self._ranks = None

    def _derive(self) -> list:
        ctx, derived = self.op.ctx, []
        for s, row in enumerate(self.table):
            for j, sigma, poly in row:
                if poly.nums.keys() <= {1}:
                    continue  # a constant: every derivative vanishes
                found = {(): poly}
                for nu in _taus(ctx.n, self.top)[1:]:
                    if (d := found.get(nu[:-1])) and (d := total_derivative(ctx, nu[-1], d)):
                        found[nu] = d
                derived.extend(((s, j, sigma, nu), d) for nu, d in found.items() if nu)
        return derived

    def rows(self, pt: JetPoint) -> list[tuple[int, dict]]:
        m, cols, n, top = self.op.rows, self.op.cols, self.op.ctx.n, self.top
        if self.derived is None:
            self.derived = self._derive()
        table = [[(j, sigma, v) for j, sigma, poly in row if (v := poly._ratio(pt))[0]]
                 for row in self.table]
        derived = [(term, v) for term, d in self.derived if (v := d._ratio(pt))[0]]
        scale = lcm(*(den for row in table for _, _, (_, den) in row),
                    *(den for _, (_, den) in derived))
        table = [[(j, sigma, num * (scale // den)) for j, sigma, (num, den) in row]
                 for row in table]
        # for each sigma of the operator, the key of mu = sigma + tau at each tau
        shifts = {sigma: [-pos * cols for pos in _shifted(n, top, sigma)]
                  for sigma in {sigma for row in self.table for _, sigma, _ in row}}
        rows = [(scale, {shifts[sigma][t] - j: c for j, sigma, c in entries})
                for t in range(len(_taus(n, top))) for entries in table]
        for (s, j, sigma, nu), (num, den) in derived:
            # D_nu(a) D_{sigma + rho} in row (nu + rho, s), for each rho with |nu + rho| <= top
            r, c = top - len(nu), num * (scale // den)
            for t, b, key in zip(_shifted(n, r, nu), _binomials(n, r, nu), shifts[sigma]):
                _accumulate(rows[t * m + s][1], key - j, b * c)
        return rows

    def lows(self, pt: JetPoint) -> dict[int, int]:
        """lo at each level, at most the rank of its fiber map at ``pt``; for a constant
        tower already ranked in this call, its ranks."""
        if self._ranks is not None and self.constant:
            return self._ranks
        return self._count_leads(pt)

    def _count_leads(self, pt: JetPoint) -> dict[int, int]:
        if not self.constant and not all(poly.evaluate(pt) for _, _, poly in self.leads):
            return dict.fromkeys(self.ends, 0)  # a lead vanishes: no prediction
        return _distinct_shifts(self.op.ctx.n, self.top,
                                {(j, sigma) for j, sigma, _ in self.leads}, self.widths)

    def highs(self, levels) -> dict[int, int]:
        """hi at each of ``levels``: at least the rank of its fiber map at every point."""
        pairs = {(j, sigma) for row in self.table for j, sigma, _ in row}
        columns = _distinct_shifts(self.op.ctx.n, self.top, pairs,
                                   {l: self.widths[l] for l in levels})
        return {l: min(self.nonzero[l], c) for l, c in columns.items()}

    def settled_ranks(self, pt: JetPoint, lows: dict[int, int], certified=()) -> dict[int, int]:
        """The rank of the level-l fiber map at ``pt``, for each level l: ``lows`` (from
        ``lows(pt)``) when every level has lo == hi or is in ``certified`` (levels whose
        lo the caller has shown to be the rank), else ``ranks``.  hi is counted only
        where lo falls short of the nonzero rows."""
        if self._ranks is not None and self.constant:
            return self._ranks
        unsettled = [l for l, lo in lows.items() if lo < self.nonzero[l] and l not in certified]
        if unsettled and any(lows[l] < hi for l, hi in self.highs(unsettled).items()):
            return self.ranks(pt)
        if self.constant:
            self._ranks = lows
        return lows

    def ranks(self, pt: JetPoint) -> dict[int, int]:
        """The rank of the level-l fiber map at ``pt``, for each level l, from one
        elimination (with constant coefficients, unless the ranks are known)."""
        if self._ranks is None or not self.constant:
            rows = [row for _, row in self.rows(pt)]
            self._ranks = dict(zip(self.ends, _prefix_ranks(rows, list(self.ends.values()))))
        return self._ranks


def _distinct_shifts(n: int, top: int, pairs, widths) -> dict[int, int]:
    """For each level l of ``widths`` (l: the number of taus up to level l), the number
    of distinct columns (position of sigma + tau, j) over the (j, sigma) of ``pairs``
    and the taus of that level, top being the tower's."""
    shifts = {}
    for j, sigma in pairs:
        shifts.setdefault(j, []).append(_shifted(n, top, sigma))
    met = [set() for _ in shifts]
    out, start = {}, 0
    for l in sorted(widths):
        stop = widths[l]
        for seen, group in zip(met, shifts.values()):
            seen.update(*(shifted[start:stop] for shifted in group))
        out[l], start = sum(map(len, met)), stop
    return out


def fiber_map(op: CDiffOp, l: int, pt: JetPoint,
              declared_order: int | None = None) -> FiberMap:
    """The prolonged operator as a map of jet fibers at a point.

    Maps the order-(k+l) fiber on the source to the order-l fiber on the
    target, k being the (declared) operator order.  The point must cover
    the operator's coefficients and their first l total derivatives.  The
    rows are a level-l prolongation tower's, built for this call, s-major,
    each entry a Fraction at column j * width + (graded position of mu).
    """
    k = op.order if declared_order is None else declared_order
    if k < op.order:
        raise ValueError(f"declared order {k} below actual order {op.order}")
    needed = op.point_order(l)
    if pt.order_bound < needed:
        raise PointError(
            f"point order {pt.order_bound} insufficient; need {needed}")
    _check_fiber_size(op, k, l)
    width = jet_fiber_dim(op.ctx.n, k + l)
    rows = [{j * width + pos: Fraction(c, scale)
             for key, c in row.items() for pos, j in [divmod(-key, op.cols)]}
            for scale, row in _Tower(op, (l,)).rows(pt)]
    rows = [row for s in range(op.rows) for row in rows[s::op.rows]]
    return FiberMap(rows=rows, domain_dim=op.cols * width,
                    codomain_dim=len(rows), source_rank=op.cols, source_order=k + l,
                    target_rank=op.rows, target_order=l)


# ---------------------------------------------------------------------------
# Delta maps
# ---------------------------------------------------------------------------


def delta_map(n: int, rank_p: int, r: int, s: int) -> FiberMap:
    """Matrix of delta: Lambda^s (x) S^r (x) P -> Lambda^{s+1} (x) S^{r-1} (x) P.

    Symmetric factors use the shift model (component at rho of the i-th
    contraction is the component at rho + i), under which the square of the
    map vanishes identically.  A side past MAX_FIBER_DIM raises ValueError
    before anything is built.
    """
    if r < 1:
        raise ValueError("delta needs symmetric degree r >= 1")
    if not 0 <= s < n:
        raise ValueError(f"exterior degree {s} out of range 0..{n - 1}")
    for i, d in ((s, r), (s + 1, r - 1)):
        _check_size(comb(n, i) * rank_p * sym_dim(n, d),
                    f"Lambda^{i} (x) S^{d} (x) P in dimension {n}")
    # the columns are the images of the basis vectors of the whole source
    unit = [{c: Fraction(1)} for c in range(rank_p * sym_dim(n, r))]
    images = _delta_of_subspace(n, rank_p, r, s, unit)
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

    ``basis`` (sparse rows, int or Fraction) spans a subspace of
    S^r (x) P; the subspace of Lambda^s (x) S^r (x) P it generates has one
    copy per increasing s-tuple.  Returns the image vectors as sparse rows of
    the basis's values, ready for a rank computation.
    """
    if r == 0:
        return []
    width, low, lowerings = sym_dim(n, r), sym_dim(n, r - 1), _lowerings(n, r)
    images = []
    for wedges in _wedge_table(n, s):
        for vec in basis:
            out: dict = {}
            for pos, value in vec.items():
                comp, sym_i = divmod(pos, width)
                lowered = lowerings[sym_i]
                for i, t, sign in wedges:
                    if i in lowered:
                        _accumulate(out, (t * rank_p + comp) * low + lowered[i], sign * value)
            images.append(out)
    return images


# ---------------------------------------------------------------------------
# Cohomology tables and involutivity
# ---------------------------------------------------------------------------


class SpencerReport(_Record):
    """Delta-cohomology dimensions of an operator, by level and slot."""

    __slots__ = ("order", "l_max", "n", "dims", "warnings")

    def __init__(self, order: int, l_max: int, n: int, dims: list, warnings: list | None = None):
        self.order, self.l_max, self.n, self.dims = order, l_max, n, dims
        self.warnings = [] if warnings is None else warnings

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


class InvolutivityResult(_Record):
    __slots__ = ("involutive", "l_max", "failure", "report")

    def __init__(self, involutive: bool, l_max: int, failure: tuple | None,
                 report: SpencerReport):
        self.involutive, self.l_max, self.failure, self.report = involutive, l_max, failure, report


def _dims_table(sym: SymbolMatrix, rank_p: int, l_max: int, n: int):
    """One cohomology table plus the tuple of every rank used to build it.

    dims[l][i] is dim Lambda^i (x) g^{k+l-i} less the ranks of delta out of
    slot i and into it.  The rank tuple orders symbol-map ranks before the
    delta ranks they feed (``delta_rank`` reads them first), so its
    lexicographic maximum over sample points is the generic profile.  Delta
    is eliminated only for 2 <= i < n (see the module docstring).
    """
    k = sym.degree
    kernels: dict[int, list] = {}
    profile = []

    def g_basis(r: int) -> list:
        if r not in kernels:
            kernels[r] = list(_symbol_kernel(sym, r).values())
            profile.append(rank_p * sym_dim(n, r) - len(kernels[r]))
        return kernels[r]

    def delta_rank(r: int, i: int) -> int:
        """The rank of delta on Lambda^i (x) g^r, appended to the profile."""
        basis = g_basis(r)
        if r == 0 or i == n:
            value = 0  # no symmetric degree to lower, or Lambda^{n+1} = 0
        elif i == 0:
            value = len(basis)  # injective
        elif i == 1:
            # H^1 = 0: delta's kernel is the image of g^{r+1}, the prolongation of g^r
            value = n * len(basis) - len(g_basis(r + 1))
        else:
            value = rank(_delta_of_subspace(n, rank_p, r, i, basis))
        profile.append(value)
        return value

    dims = []
    for l in range(l_max + 1):
        row, image = [], 0
        for i in range(min(l, n) + 1):
            r = k + l - i
            out = delta_rank(r, i)
            value = len(g_basis(r)) * comb(n, i) - out - image
            assert value >= 0, "image not contained in kernel (internal error)"
            row.append(value if k + l else 0)  # constants: resolved by the augmentation
            image = out
        dims.append(row + [0] * (n - min(l, n)))  # slots i > l lie outside the complex
    return dims, tuple(profile)


def spencer_cohomology(op: CDiffOp, l_max: int, pt: JetPoint | None = None,
                       seed: int = 0) -> SpencerReport:
    """Delta-cohomology dimensions dims[l][i] for l <= l_max, i <= n.

    With no explicit point, coefficients are frozen at three seeded random
    points; ranks are taken at the sample maximizing them and a warning is
    recorded if the samples disagree (a non-generic draw or genuinely
    variable rank).  When the symbol's coefficients (the top-order ones, all
    that ``symbol`` evaluates) are constant, the first sample reads no value,
    so the policy takes that one alone.
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


class TwoLineResult(_Record):
    __slots__ = ("k", "p", "sign", "nonzero", "poly", "ctx")

    def __init__(self, k: int, p: int, sign: int, nonzero: bool, poly: DiffPoly,
                 ctx: JetContext):
        self.k, self.p, self.sign, self.nonzero = k, p, sign, nonzero
        self.poly, self.ctx = poly, ctx


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
        counts = Counter(sigma)
        body_parts = []
        if abs(value) != 1 or not sigma:
            body_parts.append(str(abs(value)))
        for i in sorted(counts):
            name = f"xi_{ctx.indep[i]}"
            body_parts.append(name if counts[i] == 1 else f"{name}^{counts[i]}")
        terms.append((1 if value > 0 else -1, "*".join(body_parts)))
    return _join_signed(terms)
