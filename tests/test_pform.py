import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

import cdcalc.jet
import cdcalc.pform
from cdcalc import (
    DiffPoly, HorizontalForm, JetContext, Metric, MetricError, dbar_operator,
    e1_table, epi_check, hodge_star, star_operator, wedge,
)

from conftest import sympy_rank


def basis(n, indices):
    return HorizontalForm.basis(n, indices)


def test_metric_validation():
    g = Metric.diag([-1, 1, 1, 1])
    assert g.index == 1 and g.n == 4 and g.entries == (-1, 1, 1, 1)
    # only the ints +1 and -1: no entry is truncated or kept as a float
    for bad in ([2, 1], [], [1.5, -1.9, 1], [1.0, -1.0], [Fraction(-1)], [True, 1], ["1"]):
        with pytest.raises(MetricError):
            Metric.diag(bad)


def test_star_examples_n2():
    g = Metric.diag([1, 1])
    assert hodge_star(g, basis(2, (0,))) == basis(2, (1,))
    assert hodge_star(g, basis(2, (1,))) == -basis(2, (0,))
    one = HorizontalForm.function(2, DiffPoly.const(1))
    assert hodge_star(g, one) == basis(2, (0, 1))


def test_star_volume_lorentzian():
    g = Metric.diag([-1, 1, 1, 1])
    vol = basis(4, (0, 1, 2, 3))
    got = hodge_star(g, vol)
    assert got.degree == 0 and got.coeffs[()] == DiffPoly.const(-1)


def test_star_star_sign_law():
    for n in range(1, 5):
        for sig in ([1] * n, [-1] + [1] * (n - 1)):
            g = Metric.diag(sig)
            for k in range(n + 1):
                for indices in combinations(range(n), k):
                    b = basis(n, indices)
                    ss = hodge_star(g, hodge_star(g, b))
                    sign = (-1) ** (k * (n - k) + g.index)
                    assert ss == (b if sign == 1 else -b), (n, sig, indices)


def test_star_defining_property():
    # alpha ^ star(beta) = <alpha, beta> vol on all basis pairs, n <= 4
    for n in range(1, 5):
        for sig in ([1] * n, [-1] + [1] * (n - 1)):
            g = Metric.diag(sig)
            vol = basis(n, tuple(range(n)))
            for k in range(n + 1):
                for a_idx in combinations(range(n), k):
                    for b_idx in combinations(range(n), k):
                        lhs = wedge(basis(n, a_idx), hodge_star(g, basis(n, b_idx)))
                        if a_idx == b_idx:
                            inner = g.product(a_idx)
                            want = vol if inner == 1 else -vol
                            assert lhs == want
                        else:
                            assert lhs.is_zero()


def test_star_orientation_reversal():
    g = Metric.diag([1, 1])
    plus = hodge_star(g, basis(2, (0,)), orientation=1)
    minus = hodge_star(g, basis(2, (0,)), orientation=-1)
    assert minus == -plus


def test_star_operator_matches_pointwise():
    ctx = JetContext.free("x y z w", "u")
    g = Metric.diag([1, 1, -1, 1])
    from cdcalc import increasing_tuples
    for q in range(5):
        op = star_operator(ctx, g, q)
        keys = increasing_tuples(4, q)
        for pos, key in enumerate(keys):
            comps = [DiffPoly.const(1 if i == pos else 0) for i in range(len(keys))]
            out = op(comps)
            direct = hodge_star(g, basis(4, key))
            tkeys = increasing_tuples(4, 4 - q)
            for tkey, poly in zip(tkeys, out):
                assert direct.coeffs.get(tkey, DiffPoly.zero()) == poly


def test_star_squared_as_operator():
    ctx = JetContext.free("x y z w", "u")
    g = Metric.diag([1, 1, 1, 1])
    ss = star_operator(ctx, g, 2) @ star_operator(ctx, g, 2)
    from cdcalc import CDiffOp
    assert ss == CDiffOp.identity(ctx, 6)  # k=2, n=4, index 0: identity


def test_epi_check_euclidean():
    result = epi_check(4, 1, Metric.diag([1, 1, 1, 1]), [1, 0, 0, 0])
    assert result.surjective
    assert result.rank == 6 and result.dim == 6


def test_epi_check_lorentzian_non_null():
    result = epi_check(4, 1, Metric.diag([-1, 1, 1, 1]), [2, 1, 0, 0])
    assert result.surjective and result.rank == 6


def test_epi_check_null_covector_fails():
    result = epi_check(4, 1, Metric.diag([-1, 1, 1, 1]), [1, 1, 0, 0])
    assert not result.surjective
    assert result.rank < result.dim


def test_epi_check_zero_covector_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        epi_check(4, 1, Metric.diag([1, 1, 1, 1]), [0, 0, 0, 0])


def test_epi_check_takes_exact_covectors_only():
    g = Metric.diag([1, 1, 1, 1])
    exact = epi_check(4, 1, g, [Fraction(1, 10), Fraction(1, 3), 0, 2])
    assert exact.surjective and exact.rank == 6
    # a float or a string is not read as a rational, as DiffPoly.const refuses them
    for bad in (0.1, "1/3"):
        with pytest.raises(TypeError, match="must be int or Fraction"):
            epi_check(4, 1, g, [bad, 1, 0, 0])


def test_epi_check_range_validation():
    with pytest.raises(ValueError):
        epi_check(4, 3, Metric.diag([1, 1, 1, 1]), [1, 0, 0, 0])


def test_epi_check_rank_bounded():
    for p in (1, 2):
        result = epi_check(4, p, Metric.diag([1, 1, 1, 1]), [1, -2, 0, 3])
        assert result.rank <= result.dim
        assert result.surjective


def test_epi_check_non_null_sweep():
    rng = random.Random(0)
    for _ in range(30):
        n = rng.choice([3, 4, 5])
        p = rng.randint(1, n - 2)
        sig = [1] * n if rng.random() < 0.5 else [-1] + [1] * (n - 1)
        g = Metric.diag(sig)
        while True:
            xi = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            if sum(s * x * x for s, x in zip(sig, xi)) != 0:
                break
        assert epi_check(n, p, g, xi).surjective, (n, p, sig, xi)


def test_e1_table_golden_positions():
    assert e1_table(4, 1).positions() == {(0, 0), (0, 2), (1, 2)}
    assert e1_table(6, 3).positions() == {(0, 0), (0, 2), (1, 2), (0, 4), (1, 4)}
    assert e1_table(8, 4).positions() == {(0, 0), (0, 3), (1, 3), (1, 6), (2, 6)}


def test_e1_table_structure():
    for (n, p) in [(4, 1), (5, 2), (6, 3), (7, 2), (8, 4)]:
        table = e1_table(n, p)
        assert table.dim(0, 0) == 1
        assert all(d == 1 for (_, _), d in table.entries.items())
        assert all(q <= n - 2 for (_, q) in table.entries)
        d = n - p - 1
        # two unit entries per admissible level q = l*d >= 1: the dot pattern
        levels = {}
        for (i, q) in table.entries:
            if q >= 1:
                levels.setdefault(q, []).append(i)
        for q, cols in levels.items():
            assert len(cols) == 2
            if d % 2 == 0:
                assert sorted(cols) == [0, 1]
            else:
                l = q // d
                assert sorted(cols) == [l - 1, l]


def test_e1_table_triples_sorted():
    triples = e1_table(4, 1).triples()
    assert triples == sorted(triples)
    assert triples[0] == (0, 0, 1)


def test_e1_table_range_validation():
    with pytest.raises(ValueError):
        e1_table(4, 0)
    with pytest.raises(ValueError):
        e1_table(4, 3)


def _refuse(*args):
    raise AssertionError("a form space was enumerated past its bound")


def test_form_spaces_are_bounded_before_they_are_built(monkeypatch):
    # each Lambda^k counts against jet.MAX_FIBER_DIM = 2000 like a jet fiber:
    # C(13, 6) = 1716 and C(14, 4) = 1001 are accepted, C(14, 7) = 3432 is not
    assert epi_check(13, 6, Metric.diag([1] * 13), [1] + [0] * 12).rank == 1716
    ctx14 = JetContext.free(" ".join(f"x{i}" for i in range(14)), "u")
    g14 = Metric.diag([1] * 14)
    assert star_operator(ctx14, g14, 4).rows == 1001
    assert e1_table(2000, 1998).dim(1998, 1998) == 1
    # d-bar counts both sides: C(63, 2) = 1953 targets are accepted, C(64, 2) = 2016 not
    ctx63, ctx64 = (JetContext.free(" ".join(f"x{i}" for i in range(n)), "u") for n in (63, 64))
    grad_of_1_forms = dbar_operator(ctx63, 1)
    assert (grad_of_1_forms.rows, grad_of_1_forms.cols) == (1953, 63)
    # past the bound nothing is enumerated: neither a basis of forms nor a
    # table entry, however large n is; the wedge table enumerates in jet, and
    # is emptied first so that no entry is read from an earlier call
    cdcalc.jet._wedge_table.cache_clear()
    monkeypatch.setattr(cdcalc.pform, "increasing_tuples", _refuse)
    monkeypatch.setattr(cdcalc.jet, "increasing_tuples", _refuse)
    monkeypatch.setattr(cdcalc.pform, "itertools", SimpleNamespace(count=_refuse))
    cases = ((lambda: epi_check(30, 15, Metric.diag([1] * 30), [1] + [0] * 29),
              "Lambda^13 in dimension 30 has 119759850 coordinates"),
             (lambda: epi_check(14, 6, g14, [1] + [0] * 13),
              "Lambda^6 in dimension 14 has 3003 coordinates"),
             (lambda: epi_check(10 ** 9, 5 * 10 ** 8, Metric.diag([1]), [1]),
              "Lambda^1 in dimension 1000000000 has 1000000000 coordinates"),
             (lambda: star_operator(ctx14, g14, 7),
              "Lambda^7 in dimension 14 has 3432 coordinates"),
             (lambda: e1_table(2001, 1), "Lambda^1 in dimension 2001 has 2001 coordinates"),
             (lambda: e1_table(300000, 299998),
              "Lambda^1 in dimension 300000 has 300000 coordinates"),
             (lambda: dbar_operator(ctx64, 1), "Lambda^2 in dimension 64 has 2016 coordinates"),
             (lambda: dbar_operator(ctx14, 4), "Lambda^5 in dimension 14 has 2002 coordinates"),
             (lambda: dbar_operator(ctx14, 7), "Lambda^7 in dimension 14 has 3432 coordinates"))
    for call, message in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"{message}, more than 2000"


def _wedge_dense(n, xi, k):
    """Dense matrix of dx_J -> xi ^ dx_J from Lambda^k to Lambda^{k+1}, the
    sign counting the indices of J that dx_i passes."""
    sources = list(combinations(range(n), k))
    targets = list(combinations(range(n), k + 1))
    matrix = [[Fraction(0)] * len(sources) for _ in targets]
    for c, key in enumerate(sources):
        for i in range(n):
            if i not in key:
                sign = (-1) ** sum(1 for j in key if j < i)
                matrix[targets.index(tuple(sorted(key + (i,))))][c] += sign * xi[i]
    return matrix


def test_epi_check_rank_against_sympy():
    pytest.importorskip("sympy")
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(3, 6)
        p = rng.randint(1, n - 2)
        sig = [rng.choice((1, -1)) for _ in range(n)]
        xi = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.7
              else Fraction(0) for _ in range(n)]
        if rng.random() < 0.3:
            # a null covector when the metric allows one: xi_a = xi_b on a +/- pair
            if 1 in sig and -1 in sig:
                xi = [Fraction(0)] * n
                xi[sig.index(1)] = xi[sig.index(-1)] = Fraction(rng.randint(1, 3))
        if not any(xi):
            xi[rng.randrange(n)] = Fraction(1)
        m = n - p - 1
        metric = Metric.diag(sig)
        wedge_in = _wedge_dense(n, xi, m - 1)
        wedge_up = _wedge_dense(n, xi, m)
        mids = list(combinations(range(n), m))
        highs = list(combinations(range(n), m + 1))
        combined = [wedge_in[a] + [metric.product(mid) * metric.product(high)
                                   * wedge_up[b][a] for b, high in enumerate(highs)]
                    for a, mid in enumerate(mids)]
        result = epi_check(n, p, metric, xi)
        assert result.rank == sympy_rank(combined), (n, p, sig, xi)
        assert result.dim == len(mids)
        assert result.surjective == (result.rank == result.dim)
