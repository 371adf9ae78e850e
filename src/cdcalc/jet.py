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
from bisect import bisect, insort
from fractions import Fraction
from functools import cache, cached_property, partial
from math import comb, lcm

from .expr import (
    _COORDS, _FACTORS, INDEP, JET, MAX_POINT_DENOMINATOR, PARAM, Coord, DiffPoly, ParseError,
    _accumulate, _as_poly, _coord_id, _lowered, _mul_into, _over_common_denominator,
    _parse_integers, _parse_rational, _poly, _rational, _replaced, format_coord, format_poly,
    parse_coord, parse_expr,
)


def _names(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return tuple(value.split())
    return tuple(value)


class _Record:
    """A result record: its fields are its ``__slots__``, set by its own ``__init__``.

    Records compare field by field within one class, print as
    ``Name(field=value, ...)`` and are unhashable unless a subclass says so.
    """

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


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
        # per u^j, the table of D_x^r(f_j) that _along builds for evolution-mode D_t
        self._rhs_dx = tuple(_table(f) for f in self.evolution_rhs or ())
        # evolution-mode D_t: monomial -> its int terms over _dt_scale (total_derivative)
        self._dt = None if self.evolution_rhs is None else {}
        self._dt_scale = lcm(*(f.den for f in self.evolution_rhs or ()))

    def __reduce__(self):
        # rebuilt from the declarations: the D_t table's keys are local to one process
        return JetContext, (self.indep, self.dep, self.params, self.evolution_rhs)

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
        coord = Coord(JET, j, (self._indep_idx(i) for i in sigma))
        if self.is_evolution and any(coord.sigma):
            raise ValueError(f"{format_coord(coord, self)} has t-derivatives: "
                             "not an internal coordinate in evolution mode")
        return coord

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
    substitutes D_x^r(f_j) for the slot of u^j with r trailing x's, and a jet
    with t-derivatives, not being an internal coordinate, is a ValueError.
    One pass of ``_derivative_into`` over the numerators, then one gcd.
    """
    idx = i if type(i) is int and 0 <= i < len(ctx.indep) else ctx._indep_idx(i)
    out: dict = {}
    return _poly(out, f.den * _derivative_into(ctx, idx, f.nums, out))


def _derivative_into(ctx: JetContext, i: int, nums: dict, out: dict) -> int:
    """Add the int numerators of D_i of ``nums`` into ``out``; return the scale they are over.

    The terms of D_i of ``nums / den`` are over ``den`` times the returned
    scale: ``ctx._dt_scale`` for evolution-mode D_t, 1 otherwise.  Each
    monomial's int terms come from a table filled as monomials are met, the
    global ``_DERIVATIVES[i]``, or for evolution-mode D_t the context's own
    table.  Zero sums leave ``out``.  Every total derivative of the package,
    of a polynomial or of an operator's coefficients, is this one loop.
    """
    dt = i == 1 and ctx._dt is not None
    table = ctx._dt if dt else _DERIVATIVES.setdefault(i, {})
    for mono, coeff in nums.items():
        if (terms := table.get(mono)) is None:
            terms = table[mono] = _monomial_dt(ctx, mono) if dt else _monomial_derivative(mono, i)
        for m, e in terms:
            if s := out.get(m, 0) + coeff * e:
                out[m] = s
            else:
                del out[m]
    return ctx._dt_scale if dt else 1


# Per direction i, monomial -> the ((monomial', multiplicity), ...) terms of
# its D_i, filled as monomials are met.  Ids, hence monomials, mean the same
# in every context of one process, so these tables are global; they live for
# the whole process and grow with every monomial differentiated.
# Evolution-mode D_t depends on the right-hand sides: each such context keeps
# its own table, which lives as long as the context (and is not pickled with it).
# ``_derivative_into`` reads them for ``total_derivative`` and for compose and
# adjoint, which keep int numerators through a whole chain of derivatives and
# reduce each output coefficient with one gcd.
_DERIVATIVES: dict = {}

# Per direction i, coordinate id -> what D_i makes of that coordinate: the id
# of the jet one index further, -1 for x_i itself, None for anything else.
# Process-wide like the ids, and bounded by them: at most one entry per
# coordinate id and direction.
_LIFTS: dict = {}


def _monomial_derivative(mono: int, i: int) -> tuple:
    """The terms of D_i of ``mono``, each distinct coordinate lifted once through ``_LIFTS``."""
    lifts = _LIFTS.setdefault(i, {})
    ids = _FACTORS[mono]
    terms = []
    prev = None
    for pos, c in enumerate(ids):
        if c == prev:
            continue
        prev = c
        if c in lifts:
            lift = lifts[c]
        else:
            kind, index, sigma = _COORDS[c]
            if kind == JET:
                sigma = list(sigma)
                insort(sigma, i)
                # sorted already: built as a tuple, past the sort in Coord.__new__
                lift = _coord_id(tuple.__new__(Coord, (JET, index, tuple(sigma))))
            else:
                lift = -1 if kind == INDEP and index == i else None
            lifts[c] = lift
        if lift is None:
            continue
        m = _lowered(mono, ids, pos) if lift < 0 else _replaced(mono, ids, pos, lift)
        terms.append((m, ids.count(c)))
    return tuple(terms)


def _monomial_dt(ctx: JetContext, mono: int) -> tuple:
    """The int terms of evolution-mode D_t of ``mono`` over ``ctx._dt_scale``.

    Each distinct coordinate is lowered once and multiplied by what D_t makes
    of it: 1 for t, D_x^r(f_j) from ``ctx._rhs_dx`` for u^j_{x^r}.  Products
    can meet, so the terms are summed in one dict.
    """
    dx = partial(total_derivative, ctx)
    ids = _FACTORS[mono]
    out: dict = {}
    prev = None
    for pos, c in enumerate(ids):
        if c == prev:
            continue
        prev = c
        kind, index, sigma = coord = _COORDS[c]
        if kind == JET:
            if any(sigma):
                raise ValueError(f"{format_coord(coord, ctx)} has t-derivatives: "
                                 "not an internal coordinate in evolution mode")
            g = _along(ctx._rhs_dx[index], sigma, dx)
        elif kind == INDEP and index == 1:
            g = DiffPoly.const(1)
        else:
            continue
        _mul_into(out, {_lowered(mono, ids, pos): ids.count(c)}, g.nums,
                  ctx._dt_scale // g.den)
    return tuple(out.items())


def _table(value):
    """A prefix table for ``_along`` holding ``value`` at the empty multi-index."""
    return (value, {})


def _along(table, sigma, step):
    """The value at ``sigma``; see ``_walk``."""
    return _walk(table, sigma, step)[0]


def _walk(table, sigma, step):
    """The node at ``sigma``, building each missing prefix once from the one before it.

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
    return table


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
        factor = _as_poly(factor)
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


@cache
def _wedge_table(n: int, k: int) -> tuple:
    """For each I of ``increasing_tuples(n, k)``, the triples (i, position of
    I + {i} in ``increasing_tuples(n, k + 1)``, (-1)^(indices of I below i))
    of dx_i ^ dx_I, i ascending over range(n) less I.  Callers check sizes first."""
    targets = {key: t for t, key in enumerate(increasing_tuples(n, k + 1))}
    return tuple(tuple((i, targets[tuple(sorted(key + (i,)))], -1 if bisect(key, i) % 2 else 1)
                       for i in range(n) if i not in key)
                 for key in increasing_tuples(n, k))


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
    dx_i wedged in front with the permutation sign.  The sign comes from
    ``_merge_sign``, not ``_wedge_table``: this stays an independent check
    of ``ops.dbar_operator``, which reads the table."""
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
    is ``(den, numerators)``, the values over their common denominator keyed
    by coordinate id, for ``DiffPoly.evaluate``; None when that denominator
    exceeds ``MAX_POINT_DENOMINATOR``.  It is built on first read.  A point
    from ``random_point`` draws its ``values`` on first read too: a
    computation that evaluates only constants never draws them, and
    ``_has_values`` tells the sample policy whether anything did.
    """

    def __init__(self, ctx: JetContext, order_bound: int, values: dict):
        self.ctx = ctx
        self.order_bound = order_bound
        self.values = {coord: _rational(v) for coord, v in values.items()}
        for coord in _point_coords(ctx, order_bound):
            if coord not in self.values:
                raise PointError(
                    f"point is missing {format_coord(coord, ctx)}")

    @cached_property
    def scaled(self) -> tuple[int, dict] | None:
        return _over_common_denominator(
            {_coord_id(c): v for c, v in self.values.items()}, MAX_POINT_DENOMINATOR)

    def _has_values(self) -> bool:
        """Whether the values are at hand: given, or drawn by a read."""
        return "values" in vars(self)

    def __reduce__(self):
        # rebuilt from the values: ``scaled`` is keyed by ids local to one process
        return JetPoint, (self.ctx, self.order_bound, self.values)

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


class _DrawnPoint(JetPoint):
    """A ``random_point`` whose values are drawn on first read, then kept.

    Until then ``_has_values`` is False.  Pickled as the plain ``JetPoint``
    of its values (``JetPoint.__reduce__``).
    """

    def __init__(self, ctx: JetContext, order_bound: int, seed: int):
        self.ctx = ctx
        self.order_bound = order_bound
        self.seed = seed

    @cached_property
    def values(self) -> dict:
        return _draw(self.ctx, self.order_bound, self.seed)


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
# the README).  They cap size, not time; the slowest accepted requests timed
# take about 0.25 s (the cokernel of rank 867 at k1 = 13, the x y z system at
# k1 = 15), the n = 4 Laplacian's Spencer table at l_max = 10 half as long, and
# nonconstant coefficients stay within seconds since towers eliminate highest
# order first, and tall towers through their transpose.
MAX_PROLONGATION = 15  # prolongation depth: coker's k1, l_max
MAX_FIBER_DIM = 2000  # coordinates of a point, a jet fiber or Lambda^i (x) S^r (x) P


def _check_depth(name: str, value: int, low: int = 0) -> None:
    if not low <= value <= MAX_PROLONGATION:
        raise ValueError(f"{name} must be in {low}..{MAX_PROLONGATION}, got {value}")


def _check_size(dim: int, what: str) -> None:
    """Reject, before it is built, a space of over MAX_FIBER_DIM coordinates."""
    if dim > MAX_FIBER_DIM:
        raise ValueError(f"{what} has {dim} coordinates, more than {MAX_FIBER_DIM}")


def _check_point_size(ctx: JetContext, order_bound: int) -> None:
    """Reject, before it is drawn, a point of over MAX_FIBER_DIM coordinates."""
    per_dep = order_bound + 1 if ctx.is_evolution else comb(ctx.n + order_bound, ctx.n)
    _check_size(ctx.m * per_dep, f"a point of jet order {order_bound}")


def random_point(ctx: JetContext, order_bound: int, seed: int = 0) -> JetPoint:
    """Seeded random point: numerators in +-1..9, denominators in 1..4.

    The size is checked here (``generic_points`` checks it once for its three
    samples); the values are drawn on first read.
    """
    _check_point_size(ctx, order_bound)
    return _DrawnPoint(ctx, order_bound, seed)


def _draw(ctx: JetContext, order_bound: int, seed: int) -> dict:
    """The values of ``random_point``, in ``_point_coords`` order from one seeded
    stream: each is ``randint(1, 9) * choice((1, -1)) / randint(1, 4)``."""
    rng = random.Random(1000003 * seed + 7)
    return {coord: Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4))
            for coord in _point_coords(ctx, order_bound)}


def generic_points(ctx: JetContext, order_bound: int, seed: int = 0) -> list[JetPoint]:
    """The three seeded samples of the generic-point rank policy, seeds 3 * seed + k;
    the size is checked once for all three."""
    _check_point_size(ctx, order_bound)
    return [_DrawnPoint(ctx, order_bound, 3 * seed + k) for k in range(3)]


_DISAGREEMENT = ("rank profiles disagree between sample points; using the maximal "
                 "profile (non-generic sample or variable rank)")


def _at_generic_points(ctx: JetContext, needed_order: int, pt, seed: int, compute):
    """The sample-point policy shared by every rank computation.

    ``compute(point)`` returns ``(result, rank_profile)``.  It runs at the
    explicit point ``pt`` (which must cover ``needed_order``) or, when ``pt``
    is None, at the first of the seeded ``generic_points``, and at the other
    two only when that run read the point's values.  Random samples only
    guard against a draw on the zero set of a nonzero polynomial minor
    (Schwartz, J. ACM 27, 1980); a run that reads no value (a sample's values
    are drawn on first read, ``random_point``) gives the same result at every
    point, so one sample is exact.  Returns the result with the
    lexicographically maximal profile and the list of warnings: one when the
    samples' profiles disagree.
    """
    if pt is not None:
        if pt.order_bound < needed_order:
            raise PointError(
                f"point order {pt.order_bound} insufficient; need {needed_order}")
        runs = [compute(pt)]
    else:
        first, *rest = generic_points(ctx, needed_order, seed)
        runs = [compute(first)]
        if first._has_values():
            runs.extend(map(compute, rest))
    result, _ = max(runs, key=lambda run: run[1])
    disagree = len({profile for _, profile in runs}) > 1
    return result, [_DISAGREEMENT] if disagree else []


def _statements(text: str) -> list[tuple[int, str]]:
    """(line number, statement) for each line with text left once a '#' comment is cut."""
    return [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
            if (line := raw.split("#", 1)[0].strip())]


_DECLARED = ("independent", "dependent", "parameter")  # JetContext's argument order


def _declare(line: str, names: dict) -> tuple[str, str] | None:
    """Extend ``names[head]`` by a declaration's names and give None; give any
    other statement as (head, rest), split at its first run of whitespace."""
    head, *rest = line.split(None, 1)
    rest = rest[0] if rest else ""
    if head not in names:
        return head, rest
    names[head].extend(rest.split())
    return None


def parse_point_file(text: str, ctx: JetContext, order_bound: int) -> JetPoint:
    """Point file: one ``coord = rational`` per line, '#' comments.

    Each name is looked up in a table of the context's coordinate names
    (``_coord_names``), which holds ``u_{x,t}`` and, when every independent
    name is one character, ``u_xt``, up to the highest jet order whose
    coordinates are no more than the file's statements (files often name jets
    past ``order_bound``).  Any other spelling (``u_{t,x}``, ``u_{x, t}``)
    and every malformed name go to ``parse_coord``, which reads them as it
    reads them in expressions and raises its errors.  A coordinate given
    twice is an error.
    """
    statements = _statements(text)
    names = _coord_names(ctx, len(statements))
    values = {}
    for lineno, line in statements:
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'coord = rational'")
        lhs, rhs = line.split("=", 1)
        lhs = lhs.strip()
        coord = names.get(lhs)
        if coord is None:
            coord = parse_coord(lhs, ctx)
        if coord in values:
            raise ValueError(f"line {lineno}: {lhs} is assigned twice")
        values[coord] = _parse_rational(rhs, f"line {lineno}")
    return JetPoint(ctx, order_bound, values)


def _coord_names(ctx: JetContext, limit: int) -> dict:
    """Name -> Coord for at most ``limit`` of the coordinates a point assigns.

    Jets go order by order while the count stays within ``limit`` and an
    order adds any.  Empty unless every declared name is a single
    identifier token, since only then does ``parse_coord`` read these
    names back as these coordinates.
    """
    names = ctx.indep + ctx.params
    size = len(names)
    if size > limit or not all(nm[:1].isalpha() and nm.isalnum() for nm in names + ctx.dep):
        return {}
    table = {nm: Coord(INDEP, i) for i, nm in enumerate(ctx.indep)}
    table.update((nm, Coord(PARAM, i)) for i, nm in enumerate(ctx.params))
    short = all(len(nm) == 1 for nm in ctx.indep)
    for r in itertools.count():
        sigmas = ([(0,) * r] if ctx.is_evolution
                  else list(itertools.combinations_with_replacement(range(ctx.n), r)))
        size += ctx.m * len(sigmas)
        if not sigmas or size > limit:
            return table
        for sigma in sigmas:
            spelled = [ctx.indep[i] for i in sigma]
            for j, u in enumerate(ctx.dep):
                coord = Coord(JET, j, sigma)
                if not sigma:
                    table[u] = coord
                    continue
                table[f"{u}_{{{','.join(spelled)}}}"] = coord
                if short:
                    table[f"{u}_{''.join(spelled)}"] = coord


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
    names = {word: [] for word in _DECLARED}
    equations_src: list[str] = []
    evolution_src: list[tuple[str, str]] = []
    metric = None

    for lineno, line in _statements(text):
        head, rest = _declare(line, names) or (None, "")
        if head == "equation":
            equations_src.append(rest)
        elif head == "evolution":
            name, eq, rhs = rest.partition("=")
            if not eq:
                raise ValueError(f"line {lineno}: expected 'evolution u = expr'")
            evolution_src.append((name.strip(), rhs.strip()))
        elif head == "metric":
            if metric is not None:
                raise ValueError(f"line {lineno}: a second 'metric' statement")
            metric = _parse_metric(rest, lineno)
        elif head is not None:
            raise ValueError(f"line {lineno}: unknown statement {head!r}")

    indep, dep, params = names.values()
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
