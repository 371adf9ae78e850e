"""Hodge star over constant diagonal metrics and the p-form gauge data.

The metric is restricted to diagonal entries of +1/-1 so the star operator
and every adjoint stays inside exact rational arithmetic; this covers the
Euclidean and Lorentzian signatures of interest.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .expr import DiffPoly, _accumulate, _rational
from .jet import (
    HorizontalForm, JetContext, _Record, _check_size, _merge_sign, _wedge_table, increasing_tuples,
)
from .linalg import rank
from .ops import CDiffOp, ScalarCDiffOp


class MetricError(ValueError):
    """Unsupported metric input."""


class Metric(_Record):
    """Constant diagonal metric with entries +1/-1; frozen and hashable."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        if not entries:
            raise MetricError("metric needs at least one diagonal entry")
        if any(type(e) is not int or e not in (1, -1) for e in entries):
            raise MetricError(
                "only diagonal entries +1/-1 are supported (keeps the star "
                "operator rational)")
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __reduce__(self):
        return Metric, (self.entries,)

    @staticmethod
    def diag(entries) -> "Metric":
        return Metric(tuple(entries))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def index(self) -> int:
        """Count of negative diagonal entries."""
        return sum(1 for e in self.entries if e < 0)

    def product(self, indices) -> int:
        out = 1
        for i in indices:
            out *= self.entries[i]
        return out


def star_basis(metric: Metric, indices: tuple, orientation: int = 1):
    """Star of a basis form dx_I: returns (complement tuple, rational sign).

    Defined by alpha ^ star(beta) = <alpha, beta> vol with
    vol = orientation * dx_1 ^ ... ^ dx_n.
    """
    n = metric.n
    complement = tuple(i for i in range(n) if i not in indices)
    _, eps = _merge_sign(indices, complement)
    return complement, Fraction(orientation * metric.product(indices) * eps)


def hodge_star(metric: Metric, omega: HorizontalForm,
               orientation: int = 1) -> HorizontalForm:
    """Hodge star on a horizontal form, coefficient by coefficient."""
    if orientation not in (1, -1):
        raise MetricError("orientation must be +1 or -1")
    n = metric.n
    if omega.n != n:
        raise MetricError("form and metric have different dimensions")
    coeffs: dict = {}
    for key, poly in omega.coeffs.items():
        comp, sign = star_basis(metric, key, orientation)
        _accumulate(coeffs, comp, poly if sign == 1 else sign * poly)
    return HorizontalForm(n, n - omega.degree, coeffs)


def star_operator(ctx: JetContext, metric: Metric, q: int,
                  orientation: int = 1) -> CDiffOp:
    """The star on degree-q form components as an order-0 operator matrix."""
    n = metric.n
    if ctx.n != n:
        raise MetricError("context and metric have different dimensions")
    _check_size(comb(n, q), f"Lambda^{q} in dimension {n}")
    sources = increasing_tuples(n, q)
    targets = increasing_tuples(n, n - q)
    tpos = {key: i for i, key in enumerate(targets)}
    zero = ScalarCDiffOp()  # entries are never mutated, so the zeros share one
    entries = [[zero] * len(sources) for _ in targets]
    for c, key in enumerate(sources):
        comp, sign = star_basis(metric, key, orientation)
        entries[tpos[comp]][c] = ScalarCDiffOp({(): DiffPoly.const(sign)})
    return CDiffOp(ctx, entries)


# ---------------------------------------------------------------------------
# The wedge/adjoint surjectivity check
# ---------------------------------------------------------------------------


class EpiCheck(_Record):
    __slots__ = ("surjective", "rank", "dim", "degree")  # degree: target exterior degree

    def __init__(self, surjective: bool, rank: int, dim: int, degree: int):
        self.surjective, self.rank, self.dim, self.degree = surjective, rank, dim, degree


def epi_check(n: int, p: int, metric: Metric, xi) -> EpiCheck:
    """Joint surjectivity of wedging by xi and its metric adjoint.

    Builds the combined map into Lambda^m for m = n - p - 1: wedge by xi
    from Lambda^{m-1} alongside the metric adjoint of the wedge from
    Lambda^{m+1}, and reports whether the two images fill Lambda^m by exact
    rank.  (The same splitting holds in every degree; this is the degree the
    compatibility argument consumes.)
    """
    if not 1 <= p < n - 1:
        raise ValueError(f"need 1 <= p < n-1, got p={p}, n={n}")
    m = n - p - 1
    # Lambda^m has at least n coordinates, so n is checked before C(n, k) is computed
    _check_size(n, f"Lambda^1 in dimension {n}")
    for k in (m - 1, m, m + 1):
        _check_size(comb(n, k), f"Lambda^{k} in dimension {n}")
    if metric.n != n:
        raise MetricError("metric dimension does not match n")
    xi = [_rational(v) for v in xi]
    if len(xi) != n:
        raise ValueError(f"covector must have {n} components")
    if all(v == 0 for v in xi):
        raise ValueError("covector must be nonzero (degenerate input)")

    dim, offset = comb(n, m), comb(n, m - 1)
    # row I of Lambda^m: wedge by xi from Lambda^{m-1} in the first columns, then
    # the adjoint [A*]_{I,J} = g_I g_J [A]_{J,I} = g_i [A]_{J,I} of the wedge from
    # Lambda^m to Lambda^{m+1} (diagonal +-1 metrics, J = I + {i})
    combined = [{} for _ in range(dim)]
    for c, wedges in enumerate(_wedge_table(n, m - 1)):
        for i, t, sign in wedges:
            if xi[i]:
                combined[t][c] = sign * xi[i]
    for c, wedges in enumerate(_wedge_table(n, m)):
        for i, t, sign in wedges:
            if xi[i]:
                combined[c][offset + t] = metric.entries[i] * sign * xi[i]
    r = rank(combined)
    return EpiCheck(surjective=(r == dim), rank=r, dim=dim, degree=m)


# ---------------------------------------------------------------------------
# The two-generator dimension table
# ---------------------------------------------------------------------------


class E1Table(_Record):
    """Sparse table of unit dimensions at bidegrees (i, q), q <= n-2.

    Generated by the free graded-commutative algebra on one generator of
    bidegree (0, n-p-1) and one of bidegree (1, n-p-1): parity is total
    degree mod 2, even generators admit all powers, odd generators square
    to zero.  A monomial w1^a w2^b sits at (i, q) = (b, (a+b)(n-p-1)).
    """

    __slots__ = ("n", "p", "entries")

    def __init__(self, n: int, p: int, entries: dict):
        self.n, self.p, self.entries = n, p, entries

    def dim(self, i: int, q: int) -> int:
        return self.entries.get((i, q), 0)

    def triples(self) -> list[tuple[int, int, int]]:
        return sorted((i, q, d) for (i, q), d in self.entries.items())

    def positions(self) -> set:
        return set(self.entries)


def e1_table(n: int, p: int) -> E1Table:
    """Enumerate the generator monomials surviving the degree cut q <= n-2."""
    if not 1 <= p < n - 1:
        raise ValueError(f"need 1 <= p < n-1, got p={p}, n={n}")
    _check_size(n, f"Lambda^1 in dimension {n}")
    d = n - p - 1
    q_max = n - 2
    w1_odd = d % 2 == 1          # parity of (0, d) generator
    w2_odd = (d + 1) % 2 == 1    # parity of (1, d) generator
    entries: dict = {}
    for a in itertools.count():
        if a * d > q_max or (w1_odd and a > 1):
            break
        for b in itertools.count():
            if (a + b) * d > q_max or (w2_odd and b > 1):
                break
            entries[(b, (a + b) * d)] = 1
    assert entries.get((0, 0)) == 1
    return E1Table(n=n, p=p, entries=entries)
