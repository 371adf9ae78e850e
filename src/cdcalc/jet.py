"""Jet-space contexts, total derivatives, and horizontal forms.

A ``JetContext`` declares the coordinate chart: independent and dependent
variable names, parameters, and an optional evolution rule u^j_t = f_j that
restricts the calculus to internal coordinates (x, t, u^j, u^j_{x..x}).
Total derivatives and the horizontal differential act on the exact
polynomials of :mod:`cdcalc.expr`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial
from math import comb

from .expr import (
    INDEP, JET, MAX_POINT_DENOMINATOR, PARAM, Coord, DiffPoly, ParseError,
    _accumulate, _lower, _over_common_denominator, _parse_integers, _parse_rational,
    _poly, _rational, _raise, _sum_products, format_coord, format_poly, parse_coord, parse_expr,
)


def _names(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(value.split())
    return tuple(value)


class JetContext:
    """Declarations for one computation: variables, parameters, mode.

    In evolution mode there are exactly two independent variables named
    ``x`` and ``t``; each dependent variable u^j carries a right-hand side
    f_j in internal coordinates, and the time derivative acts by
    substituting D_x^i(f_j) for u^j with i trailing x's.
    """

    def __init__(self, indep, dep, params=(), evolution_rhs=None):
        self.indep = _names(indep)
        self.dep = _names(dep)
        self.params = _names(params)
        names = self.indep + self.dep + self.params
        if len(set(names)) != len(names):
            raise ValueError("variable and parameter names must be pairwise distinct")
        if not self.indep or not self.dep:
            raise ValueError("need at least one independent and one dependent variable")
        self.indep_index = {nm: i for i, nm in enumerate(self.indep)}
        self.dep_index = {nm: j for j, nm in enumerate(self.dep)}
        self.param_index = {nm: i for i, nm in enumerate(self.params)}
        self.evolution_rhs = None
        if evolution_rhs is not None:
            if self.indep != ("x", "t"):
                raise ValueError("evolution mode requires independent variables (x, t)")
            rhs = tuple(evolution_rhs)
            if len(rhs) != len(self.dep):
                raise ValueError("one evolution right-hand side per dependent variable")
            for f in rhs:
                _check_internal(f)
            self.evolution_rhs = rhs
        # total-derivative tables: c -> c lifted by x_i, and per u^j D_x^r(f_j) by _along
        self._lifts = tuple({} for _ in self.indep)
        self._rhs_dx = tuple(_table(f) for f in self.evolution_rhs or ())

    # -- construction ----------------------------------------------------

    @staticmethod
    def free(indep, dep, params=()) -> "JetContext":
        return JetContext(indep, dep, params)

    @staticmethod
    def evolution(dep, rhs_texts, params=()) -> "JetContext":
        """Evolution context over (x, t); right-hand sides given as text."""
        base = JetContext(("x", "t"), dep, params)
        rhs = tuple(base.parse(text) for text in rhs_texts)
        return JetContext(("x", "t"), dep, params, evolution_rhs=rhs)

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.indep)

    @property
    def m(self) -> int:
        return len(self.dep)

    @property
    def is_evolution(self) -> bool:
        return self.evolution_rhs is not None

    def __eq__(self, other):
        if not isinstance(other, JetContext):
            return NotImplemented
        return (self.indep, self.dep, self.params, self.evolution_rhs) == \
               (other.indep, other.dep, other.params, other.evolution_rhs)

    def __repr__(self):
        mode = "evolution" if self.is_evolution else "free"
        return f"JetContext({'/'.join(self.indep)}; {'/'.join(self.dep)}; {mode})"

    # -- coordinates -------------------------------------------------------

    def indep_coord(self, i) -> Coord:
        return Coord(INDEP, self._indep_idx(i))

    def jet_coord(self, dep, sigma=()) -> Coord:
        j = dep if isinstance(dep, int) else self.dep_index[dep]
        return Coord(JET, j, (self._indep_idx(i) for i in sigma))

    def param_coord(self, name) -> Coord:
        idx = name if isinstance(name, int) else self.param_index[name]
        return Coord(PARAM, idx)

    def jet_coord_checked(self, dep_name: str, sigma: tuple, off: int) -> Coord:
        """Used by the parser; rejects non-internal jets in evolution mode."""
        if self.is_evolution and any(i != 0 for i in sigma):
            raise ParseError(
                f"{dep_name}_... with t-derivatives is not an internal coordinate "
                "in evolution mode", off)
        return Coord(JET, self.dep_index[dep_name], sigma)

    def _indep_idx(self, i) -> int:
        if isinstance(i, str):
            if i not in self.indep_index:
                raise ValueError(f"unknown independent variable {i!r}")
            return self.indep_index[i]
        if not 0 <= i < self.n:
            raise ValueError(f"independent index {i} out of range")
        return i

    # -- conveniences --------------------------------------------------------

    def parse(self, text: str) -> DiffPoly:
        return parse_expr(text, self)

    def format(self, p: DiffPoly) -> str:
        return format_poly(p, self)


def _check_internal(f: DiffPoly) -> None:
    for c in f.coords():
        if c.kind == JET and any(i != 0 for i in c.sigma):
            raise ValueError("evolution right-hand side must use internal "
                             "coordinates only (x, t, u, u_x, u_xx, ...)")


# ---------------------------------------------------------------------------
# Total derivatives
# ---------------------------------------------------------------------------

def total_derivative(ctx: JetContext, i, f: DiffPoly) -> DiffPoly:
    """The i-th total derivative of ``f``.

    Free mode: D_i = d/dx_i + sum over jets of u^j_{sigma+i} d/du^j_sigma.
    Evolution mode: D_x acts the same way on the internal coordinates; D_t
    substitutes D_x^r(f_j) for the slot of u^j with r trailing x's.
    """
    idx = ctx._indep_idx(i)
    if ctx.is_evolution and idx == 1:
        return _evolution_dt(ctx, f)
    # one pass over the numerators: each term is lifted coordinate by coordinate
    x = Coord(INDEP, idx)
    lifts = ctx._lifts[idx]
    out: dict = {}
    for mono, coeff in f.nums.items():
        for pos, (c, e) in enumerate(mono):
            if c[0] == JET:
                lifted = lifts.get(c)
                if lifted is None:
                    lifted = lifts[c] = Coord(JET, c[1], c[2] + (idx,))
                m = _raise(_lower(mono, pos, e), lifted)
            elif c == x:
                m = _lower(mono, pos, e)
            else:
                continue
            if s := out.get(m, 0) + (coeff * e if e > 1 else coeff):
                out[m] = s
            else:
                del out[m]
    return _poly(out, f.den)


def _evolution_dt(ctx: JetContext, f: DiffPoly) -> DiffPoly:
    """D_t in evolution mode: d/dt plus D_x^r(f_j) times d/du^j_{x..x}."""
    t = Coord(INDEP, 1)
    partials: dict = {}
    for mono, coeff in f.nums.items():
        for pos, (c, e) in enumerate(mono):
            if c[0] == JET or c == t:
                # lowering one coordinate maps distinct monomials apart
                partials.setdefault(c, {})[_lower(mono, pos, e)] = coeff * e
    one = DiffPoly.const(1)
    dx = partial(total_derivative, ctx)
    return _sum_products([
        (_poly(part, f.den), one if c == t else _along(ctx._rhs_dx[c[1]], c[2], dx))
        for c, part in partials.items()])


def _table(value):
    """A prefix table for ``_along`` holding ``value`` at the empty multi-index."""
    return (value, {})


def _along(table, sigma: tuple, step):
    """The value at ``sigma``, building each missing prefix once from the one before it.

    ``table`` is a trie from ``_table``: a node is ``(value, {i: child})``,
    so a walk costs one lookup per index.  ``step(i, value)`` is the value
    one index further along, such as D_i applied to it.  Iterative: no
    length bound.  A walk made only once needs no table: step along sigma.
    """
    for i in sigma:
        children = table[1]
        child = children.get(i)
        if child is None:
            child = children[i] = (step(i, table[0]), {})
        table = child
    return table[0]


def total_derivative_sigma(ctx: JetContext, sigma, f: DiffPoly) -> DiffPoly:
    """Apply D_sigma = D_{i1} ... D_{ir} (total derivatives commute)."""
    out = f
    for i in sigma:
        out = total_derivative(ctx, i, out)
    return out


# ---------------------------------------------------------------------------
# Horizontal forms
# ---------------------------------------------------------------------------

def increasing_tuples(n: int, k: int) -> list[tuple[int, ...]]:
    """All strictly increasing k-tuples from range(n), lexicographic."""
    return list(itertools.combinations(range(n), k))


class HorizontalForm:
    """Exterior form in the dx_i with DiffPoly coefficients.

    Coefficients are keyed by strictly increasing index tuples; zero
    coefficients are never stored, so the zero form of any degree has an
    empty coefficient map.
    """

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: dict | None = None):
        if not 0 <= degree <= n:
            raise ValueError(f"form degree {degree} out of range 0..{n}")
        self.n = n
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for key, poly in coeffs.items():
                key = tuple(key)
                if len(key) != degree or list(key) != sorted(set(key)):
                    raise ValueError(f"bad index tuple {key} for degree {degree}")
                if poly:
                    self.coeffs[key] = poly

    @staticmethod
    def zero(n: int, degree: int) -> "HorizontalForm":
        return HorizontalForm(n, degree)

    @staticmethod
    def function(n: int, poly: DiffPoly) -> "HorizontalForm":
        return HorizontalForm(n, 0, {(): poly})

    @staticmethod
    def basis(n: int, indices) -> "HorizontalForm":
        """dx_{i1} ^ ... ^ dx_{ik} for strictly increasing indices."""
        key = tuple(indices)
        return HorizontalForm(n, len(key), {key: DiffPoly.const(1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, HorizontalForm):
            return NotImplemented
        return (self.n, self.degree, self.coeffs) == (other.n, other.degree, other.coeffs)

    __hash__ = None

    def __add__(self, other: "HorizontalForm") -> "HorizontalForm":
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("can only add forms of the same degree")
        out = dict(self.coeffs)
        for key, poly in other.coeffs.items():
            _accumulate(out, key, poly)
        return HorizontalForm(self.n, self.degree, out)

    def __neg__(self):
        return HorizontalForm(self.n, self.degree,
                              {k: -p for k, p in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "HorizontalForm":
        factor = factor if isinstance(factor, DiffPoly) else DiffPoly.const(factor)
        return HorizontalForm(self.n, self.degree,
                              {k: factor * p for k, p in self.coeffs.items()})

    def __repr__(self):
        return f"HorizontalForm(n={self.n}, degree={self.degree}, {len(self.coeffs)} terms)"


def _merge_sign(left: tuple, right: tuple):
    """Sign of sorting the concatenation of two increasing tuples.

    Returns (None, None) when the tuples share an index (the wedge dies).
    """
    if set(left) & set(right):
        return None, None
    inversions = sum(1 for a in left for b in right if b < a)
    return tuple(sorted(left + right)), -1 if inversions % 2 else 1


def wedge(a: HorizontalForm, b: HorizontalForm) -> HorizontalForm:
    """Exterior product; degrees beyond n collapse to the zero form."""
    if a.n != b.n:
        raise ValueError("forms live over different numbers of variables")
    n = a.n
    deg = a.degree + b.degree
    if deg > n:
        return HorizontalForm.zero(n, n)
    acc: dict = {}
    for ka, pa in a.coeffs.items():
        for kb, pb in b.coeffs.items():
            key, sign = _merge_sign(ka, kb)
            if key is None:
                continue
            term = pa * pb
            _accumulate(acc, key, term if sign > 0 else -term)
    return HorizontalForm(n, deg, acc)


def dbar(ctx: JetContext, omega: HorizontalForm) -> HorizontalForm:
    """Horizontal differential: coefficients differentiated by D_i, then
    dx_i wedged in front with the permutation sign."""
    n = ctx.n
    if omega.n != n:
        raise ValueError("form does not match the context")
    if omega.degree >= n:
        return HorizontalForm.zero(n, n)
    acc: dict = {}
    for key, poly in omega.coeffs.items():
        for i in range(n):
            if i in key:
                continue
            df = total_derivative(ctx, i, poly)
            if not df:
                continue
            newkey, sign = _merge_sign((i,), key)
            _accumulate(acc, newkey, df if sign > 0 else -df)
    return HorizontalForm(n, omega.degree + 1, acc)


def format_form(omega: HorizontalForm, ctx: JetContext) -> str:
    if omega.is_zero():
        return "0"
    pieces = []
    for key in sorted(omega.coeffs):
        body = format_poly(omega.coeffs[key], ctx)
        dx = "^".join(f"d{ctx.indep[i]}" for i in key) or "1"
        pieces.append(f"({body}) {dx}" if key else body)
    return " + ".join(pieces)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------

class PointError(ValueError):
    """A jet point is missing a needed value or is of insufficient order."""


class JetPoint:
    """Exact rational assignment to every coordinate up to a jet order.

    ``values`` must cover the independents, the parameters, and every jet
    coordinate with |sigma| <= order_bound (internal coordinates only, in
    evolution mode).  Lookups beyond the bound raise PointError.  ``scaled``
    is ``(den, numerators)``, the values over their common denominator, for
    ``DiffPoly.evaluate``; None when that denominator exceeds
    ``MAX_POINT_DENOMINATOR``.
    """

    def __init__(self, ctx: JetContext, order_bound: int, values: dict):
        self.ctx = ctx
        self.order_bound = order_bound
        self.values = {coord: _rational(v) for coord, v in values.items()}
        for coord in _point_coords(ctx, order_bound):
            if coord not in self.values:
                raise PointError(
                    f"point is missing {format_coord(coord, ctx)}")
        self.scaled = _over_common_denominator(self.values, MAX_POINT_DENOMINATOR)

    def value(self, coord: Coord) -> Fraction:
        try:
            return self.values[coord]
        except KeyError:
            pass
        if coord.kind == JET and len(coord.sigma) > self.order_bound:
            raise PointError(
                f"{format_coord(coord, self.ctx)} exceeds the point's "
                f"order bound {self.order_bound}")
        raise PointError(f"{format_coord(coord, self.ctx)} unassigned")

    def __repr__(self):
        return f"JetPoint(order<={self.order_bound}, {len(self.values)} values)"


def _point_coords(ctx: JetContext, order_bound: int):
    for i in range(ctx.n):
        yield Coord(INDEP, i)
    for i in range(len(ctx.params)):
        yield Coord(PARAM, i)
    for j in range(ctx.m):
        if ctx.is_evolution:
            for r in range(order_bound + 1):
                yield Coord(JET, j, (0,) * r)
        else:
            for r in range(order_bound + 1):
                for sigma in itertools.combinations_with_replacement(range(ctx.n), r):
                    yield Coord(JET, j, sigma)


# Bounds on what a rank computation may build, set from a timed sweep (see
# the README).  They cap size, not time: exact elimination with nonconstant
# coefficients can be slow well inside them.
MAX_PROLONGATION = 15  # prolongation depth: coker's k1, l_max
MAX_FIBER_DIM = 2000  # coordinates of a point, a jet fiber or Lambda^i (x) S^r (x) P


def _check_depth(name: str, value: int, low: int = 0) -> None:
    if not low <= value <= MAX_PROLONGATION:
        raise ValueError(f"{name} must be in {low}..{MAX_PROLONGATION}, got {value}")


def _check_size(dim: int, what: str) -> None:
    """Reject, before it is built, a space of over MAX_FIBER_DIM coordinates."""
    if dim > MAX_FIBER_DIM:
        raise ValueError(f"{what} has {dim} coordinates, more than {MAX_FIBER_DIM}")


def random_point(ctx: JetContext, order_bound: int, seed: int = 0) -> JetPoint:
    """Seeded random point: numerators in +-1..9, denominators in 1..4."""
    per_dep = order_bound + 1 if ctx.is_evolution else comb(ctx.n + order_bound, ctx.n)
    _check_size(ctx.m * per_dep, f"a point of jet order {order_bound}")
    rng = random.Random(1000003 * seed + 7)
    values = {}
    for coord in _point_coords(ctx, order_bound):
        num = rng.randint(1, 9) * rng.choice((1, -1))
        den = rng.randint(1, 4)
        values[coord] = Fraction(num, den)
    return JetPoint(ctx, order_bound, values)


def generic_points(ctx: JetContext, order_bound: int, seed: int = 0,
                   count: int = 3) -> list[JetPoint]:
    """Independent seeded samples for the generic-point rank policy."""
    return [random_point(ctx, order_bound, seed * count + k) for k in range(count)]


_DISAGREEMENT = ("rank profiles disagree between sample points; using the maximal "
                 "profile (non-generic sample or variable rank)")


def _at_generic_points(ctx: JetContext, needed_order: int, pt, seed: int, compute):
    """The sample-point policy shared by every rank computation.

    ``compute(point)`` returns ``(result, rank_profile)``.  It runs at the
    explicit point ``pt`` (which must cover ``needed_order``) or, when ``pt``
    is None, at each of the seeded ``generic_points``.  Returns the result
    with the lexicographically maximal profile and the list of warnings: one
    when the samples' profiles disagree.
    """
    if pt is not None:
        if pt.order_bound < needed_order:
            raise PointError(
                f"point order {pt.order_bound} insufficient; need {needed_order}")
        points = [pt]
    else:
        points = generic_points(ctx, needed_order, seed)
    runs = [compute(point) for point in points]
    result, _ = max(runs, key=lambda run: run[1])
    disagree = len({profile for _, profile in runs}) > 1
    return result, [_DISAGREEMENT] if disagree else []


def parse_point_file(text: str, ctx: JetContext, order_bound: int) -> JetPoint:
    """Point file: one ``coord = rational`` per line, '#' comments."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'coord = rational'")
        lhs, rhs = line.split("=", 1)
        coord = parse_coord(lhs.strip(), ctx)
        values[coord] = _parse_rational(rhs, f"line {lineno}")
    return JetPoint(ctx, order_bound, values)


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

class Problem:
    """Parsed problem description.

    ``ctx`` is the working context (evolution mode when declared) and
    ``ctx_free`` the free-mode context with the same names.  ``equations``
    holds the system components F_s as free-mode polynomials; for an
    evolution declaration these default to u^j_t - f_j.  ``metric`` is the
    tuple of diagonal entries when a metric statement was present.
    """

    def __init__(self, ctx, ctx_free, equations, metric):
        self.ctx = ctx
        self.ctx_free = ctx_free
        self.equations = equations
        self.metric = metric


def parse_problem(text: str) -> Problem:
    indep: list[str] = []
    dep: list[str] = []
    params: list[str] = []
    equations_src: list[str] = []
    evolution_src: list[tuple[str, str]] = []
    metric = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "independent":
            indep.extend(rest.split())
        elif head == "dependent":
            dep.extend(rest.split())
        elif head == "parameter":
            params.extend(rest.split())
        elif head == "equation":
            equations_src.append(rest)
        elif head == "evolution":
            name, eq, rhs = rest.partition("=")
            if not eq:
                raise ValueError(f"line {lineno}: expected 'evolution u = expr'")
            evolution_src.append((name.strip(), rhs.strip()))
        elif head == "metric":
            metric = _parse_metric(rest, lineno)
        else:
            raise ValueError(f"line {lineno}: unknown statement {head!r}")

    ctx_free = JetContext(indep, dep, params)
    if equations_src and evolution_src:
        raise ValueError("use either 'equation' or 'evolution' statements, not both")

    if evolution_src:
        by_name = dict(evolution_src)
        missing = [nm for nm in dep if nm not in by_name]
        if missing or len(by_name) != len(evolution_src):
            raise ValueError("need exactly one evolution statement per dependent variable")
        rhs = tuple(ctx_free.parse(by_name[nm]) for nm in dep)
        ctx = JetContext(indep, dep, params, evolution_rhs=rhs)
        equations = [DiffPoly.var(ctx_free.jet_coord(j, ("t",))) - rhs[jdx]
                     for jdx, j in enumerate(dep)]
    else:
        ctx = ctx_free
        equations = [ctx_free.parse(src) for src in equations_src]
    return Problem(ctx, ctx_free, equations, metric)


def _parse_metric(rest: str, lineno: int):
    if not (rest.startswith("diag(") and rest.endswith(")")):
        raise ValueError(f"line {lineno}: metric must be 'diag(e1,e2,...)'")
    entries = _parse_integers(rest[5:-1], f"line {lineno}: metric")
    if any(e not in (1, -1) for e in entries):
        raise ValueError(f"line {lineno}: metric entries must be +1 or -1")
    return entries
