from fractions import Fraction

import pytest

from cdcalc import (
    CDiffOp, DiffPoly, JetContext, MatrixForm, covering_substitute,
    format_matrix_form, mc_residual, parse_matrix_forms, total_derivative,
)


@pytest.fixture
def kdv_ctx():
    return JetContext.evolution("u", ["u*u_x + u_{x,x,x}"], params="lam")


def sl2_matrices(ctx):
    P = ctx.parse
    a1 = [[P("0"), P("-(lam + u)")],
          [P("1/6"), P("0")]]
    a2 = [[P("-1/6*u_x"), P("-u_{x,x} - 1/3*u^2 + 1/3*lam*u + 2/3*lam^2")],
          [P("1/18*u - 1/9*lam"), P("1/6*u_x")]]
    return a1, a2


def test_kdv_family_is_flat(kdv_ctx):
    a1, a2 = sl2_matrices(kdv_ctx)
    omega = MatrixForm.connection(kdv_ctx, [a1, a2])
    assert mc_residual(kdv_ctx, omega).is_zero()


def test_zero_form_residual(kdv_ctx):
    omega = MatrixForm.zero(kdv_ctx, 2, 1)
    assert mc_residual(kdv_ctx, omega).is_zero()


def test_perturbing_any_entry_breaks_flatness(kdv_ctx):
    bump = DiffPoly.const(Fraction(1, 5))
    for mat_idx in (0, 1):
        for r in range(2):
            for c in range(2):
                a1, a2 = sl2_matrices(kdv_ctx)
                (a1, a2)[mat_idx][r][c] = (a1, a2)[mat_idx][r][c] + bump
                omega = MatrixForm.connection(kdv_ctx, [a1, a2])
                assert not mc_residual(kdv_ctx, omega).is_zero(), (mat_idx, r, c)


def test_entry_change_sixth_to_fifth(kdv_ctx):
    a1, a2 = sl2_matrices(kdv_ctx)
    a1[1][0] = kdv_ctx.parse("1/5")
    omega = MatrixForm.connection(kdv_ctx, [a1, a2])
    residual = mc_residual(kdv_ctx, omega)
    assert not residual.is_zero()
    assert format_matrix_form(residual) != ["0"]


def test_residual_requires_evolution_mode():
    free = JetContext.free("x t", "u")
    omega = MatrixForm.zero(free, 2, 1)
    with pytest.raises(ValueError, match="evolution"):
        mc_residual(free, omega)


def test_residual_scaling_split(kdv_ctx):
    # residual(c*omega) = c * (derivative part) + c^2 * (bracket part)
    a1, a2 = sl2_matrices(kdv_ctx)
    omega = MatrixForm.connection(kdv_ctx, [a1, a2])
    zero = [[DiffPoly.zero()] * 2 for _ in range(2)]
    deriv_part = mc_residual(
        kdv_ctx, MatrixForm.connection(kdv_ctx, [a1, zero]))
    # isolate: residual(omega) = D_x A2 - D_t A1 + [A1, A2]; with A2 = 0 the
    # bracket and D_x parts vanish, leaving -D_t A1
    for c in (Fraction(2), Fraction(-3, 2)):
        sa1 = [[c * e for e in row] for row in a1]
        sa2 = [[c * e for e in row] for row in a2]
        scaled = mc_residual(kdv_ctx, MatrixForm.connection(kdv_ctx, [sa1, sa2]))
        base = mc_residual(kdv_ctx, omega).matrix_at((0, 1))
        lin = deriv_part.matrix_at((0, 1))
        got = scaled.matrix_at((0, 1))
        # base = lin_total + bracket where lin_total is the c-linear part
        # reconstruct: got should equal c*lin_total + c^2*bracket
        lin_total = _linear_part(kdv_ctx, a1, a2)
        bracket = _sub(base, lin_total)
        want = _add(_scale(lin_total, c), _scale(bracket, c * c))
        assert got == want


def _linear_part(ctx, a1, a2):
    """D_x A2 - D_t A1, entry by entry."""
    return _sub([[total_derivative(ctx, 0, e) for e in row] for row in a2],
                [[total_derivative(ctx, 1, e) for e in row] for row in a1])


def _add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _scale(a, c):
    return [[c * x for x in row] for row in a]


def test_equal_matrices_have_zero_bracket(kdv_ctx):
    a1, _ = sl2_matrices(kdv_ctx)
    omega = MatrixForm.connection(kdv_ctx, [a1, a1])
    residual = mc_residual(kdv_ctx, omega).matrix_at((0, 1))
    want = _linear_part(kdv_ctx, a1, a1)
    assert residual == want


def test_covering_substitute_zero_form(kdv_ctx):
    dx = CDiffOp.total(kdv_ctx, "x")
    out = covering_substitute(dx, MatrixForm.zero(kdv_ctx, 2, 1))
    want = CDiffOp(kdv_ctx, [[dx.entries[0][0] if i == j else
                              CDiffOp.zero(kdv_ctx, 1, 1).entries[0][0]
                              for j in range(4)] for i in range(4)])
    assert out == want


def test_covering_substitute_constant_binomial(kdv_ctx):
    # D_xx with constant A1: D^2 + 2 ad(A1) D + ad(A1)^2
    P = kdv_ctx.parse
    a1 = [[P("0"), P("1")], [P("2"), P("0")]]
    zero = [[DiffPoly.zero()] * 2 for _ in range(2)]
    omega = MatrixForm.connection(kdv_ctx, [a1, zero])
    dxx = CDiffOp.total(kdv_ctx, "x", "x")
    got = covering_substitute(dxx, omega)
    bx = covering_substitute(CDiffOp.total(kdv_ctx, "x"), omega)
    assert got == bx @ bx


def test_flat_covering_commutes(kdv_ctx):
    a1, a2 = sl2_matrices(kdv_ctx)
    omega = MatrixForm.connection(kdv_ctx, [a1, a2])
    bx = covering_substitute(CDiffOp.total(kdv_ctx, "x"), omega)
    bt = covering_substitute(CDiffOp.total(kdv_ctx, "t"), omega)
    assert ((bx @ bt) - (bt @ bx)).is_zero()


def test_parse_matrix_forms(kdv_ctx):
    text = """
    A x
    0 ; -(lam + u)
    1/6 ; 0
    A t
    -1/6*u_x ; -u_{x,x} - 1/3*u^2 + 1/3*lam*u + 2/3*lam^2
    1/18*u - 1/9*lam ; 1/6*u_x
    """
    omega = parse_matrix_forms(text, kdv_ctx)
    a1, a2 = sl2_matrices(kdv_ctx)
    assert omega == MatrixForm.connection(kdv_ctx, [a1, a2])


def test_parse_matrix_forms_rejects_ragged(kdv_ctx):
    with pytest.raises(ValueError):
        parse_matrix_forms("A x\n0 ; 1\n2\n", kdv_ctx)



def test_parse_matrix_forms_rejects_a_second_block(kdv_ctx):
    # read last-wins, the zero block for x would hide A_x = [[u, 0], [0, 0]]
    # and the residual would read zero
    first, zero_x, zero_t = "A x\nu ; 0\n0 ; 0\n", "A x\n0 ; 0\n0 ; 0\n", "A t\n0 ; 0\n0 ; 0\n"
    with pytest.raises(ValueError) as err:
        parse_matrix_forms(first + zero_x + zero_t, kdv_ctx)
    assert str(err.value) == "line 4: a second matrix for 'x'"
    assert not mc_residual(kdv_ctx, parse_matrix_forms(first + zero_t, kdv_ctx)).is_zero()
