"""Matrix-valued horizontal forms and zero-curvature checks.

A flat connection form over an evolution equation is a degree-1 matrix form
A1 dx + A2 dt whose curvature residual D_x A2 - D_t A1 + [A1, A2] vanishes
identically.  The 2-form evaluation convention here pairs the bracket term
as [omega(X), omega(Y)]; it is fixed once and used consistently.
"""

from __future__ import annotations

from .expr import DiffPoly, _accumulate, format_poly
from .jet import JetContext, _along, _statements, _table, total_derivative
from .ops import CDiffOp, ScalarCDiffOp


def _zero_matrix(d: int):
    return [[DiffPoly.zero() for _ in range(d)] for _ in range(d)]


class MatrixForm:
    """Exterior form in the dx_i whose coefficients are square DiffPoly matrices."""

    __slots__ = ("ctx", "size", "degree", "coeffs")

    def __init__(self, ctx: JetContext, size: int, degree: int,
                 coeffs: dict | None = None):
        if not 0 <= degree <= ctx.n:
            raise ValueError(f"form degree {degree} out of range 0..{ctx.n}")
        self.ctx = ctx
        self.size = size
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for key, matrix in coeffs.items():
                key = tuple(key)
                if len(key) != degree or list(key) != sorted(set(key)):
                    raise ValueError(f"bad index tuple {key} for degree {degree}")
                if len(matrix) != size or any(len(row) != size for row in matrix):
                    raise ValueError(f"coefficient of {key} is not {size}x{size}")
                if any(e for row in matrix for e in row):
                    self.coeffs[key] = [list(row) for row in matrix]

    @staticmethod
    def zero(ctx: JetContext, size: int, degree: int) -> "MatrixForm":
        return MatrixForm(ctx, size, degree)

    @staticmethod
    def connection(ctx: JetContext, matrices) -> "MatrixForm":
        """Degree-1 form sum_i A_i dx_i from a list of n square matrices."""
        mats = list(matrices)
        if len(mats) != ctx.n:
            raise ValueError(f"need one matrix per independent variable ({ctx.n})")
        size = len(mats[0])
        return MatrixForm(ctx, size, 1,
                          {(i,): m for i, m in enumerate(mats)})

    def matrix_at(self, key):
        return self.coeffs.get(tuple(key), _zero_matrix(self.size))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        return (self.ctx == other.ctx and self.size == other.size
                and self.degree == other.degree and self.coeffs == other.coeffs)

    __hash__ = None

    def __repr__(self):
        return (f"MatrixForm({self.size}x{self.size}, degree {self.degree}, "
                f"{len(self.coeffs)} terms)")


def mc_residual(ctx: JetContext, omega: MatrixForm) -> MatrixForm:
    """Curvature residual (D_x A2 - D_t A1 + [A1, A2]) dx^dt.

    Zero residual certifies a zero-curvature representation over the
    evolution equation carried by ``ctx``.
    """
    if not ctx.is_evolution:
        raise ValueError("the residual is computed over an evolution equation")
    if omega.degree != 1:
        raise ValueError("connection form must have degree 1")
    if omega.ctx != ctx:
        raise ValueError("form does not match the context")
    a1 = omega.matrix_at((0,))
    a2 = omega.matrix_at((1,))
    d = omega.size
    residual = [[total_derivative(ctx, 0, a2[r][c]) - total_derivative(ctx, 1, a1[r][c])
                 + sum(a1[r][k] * a2[k][c] - a2[r][k] * a1[k][c] for k in range(d))
                 for c in range(d)] for r in range(d)]
    return MatrixForm(ctx, d, 2, {(0, 1): residual})


def _ad_entries(a, d: int) -> dict:
    """Nonzero entries {(row, col): poly} of M -> A M - M A on row-major
    flattened d x d matrices."""
    out: dict = {}
    for p in range(d):
        for q in range(d):
            row = p * d + q
            for r in range(d):
                _accumulate(out, (row, r * d + q), a[p][r])
            for s in range(d):
                _accumulate(out, (row, p * d + s), -a[s][q])
    return out


def covering_substitute(op: CDiffOp, omega: MatrixForm) -> CDiffOp:
    """Replace every D_i in a scalar operator by D_i + ad(A_i).

    The result acts on d x d matrix values, flattened row-major into d^2
    components; for the zero form it is the original operator acting
    diagonally.
    """
    if op.rows != 1 or op.cols != 1:
        raise ValueError("covering substitution expects a 1x1 operator")
    if omega.degree != 1:
        raise ValueError("connection form must have degree 1")
    ctx = op.ctx
    if omega.ctx != ctx:
        raise ValueError("operator and form live over different contexts")
    d = omega.size
    dim = d * d

    blocks = []
    for i in range(ctx.n):
        ad = _ad_entries(omega.matrix_at((i,)), d)
        blocks.append(CDiffOp(ctx, [[ScalarCDiffOp({(i,): DiffPoly.const(int(r == c)),
                                                     (): ad.get((r, c), DiffPoly.zero())})
                                      for c in range(dim)] for r in range(dim)]))
    # B_{s1} ... B_{sr}: each product is its prefix's times one block on the right
    products = _table(CDiffOp.identity(ctx, dim))
    total = CDiffOp.zero(ctx, dim, dim)
    for sigma, coeff in op.entries[0][0].terms.items():
        product = _along(products, sigma, lambda i, prefix: prefix @ blocks[i])
        total = total + product.scale(coeff)
    return total


# ---------------------------------------------------------------------------
# Matrix-form files
# ---------------------------------------------------------------------------

def parse_matrix_forms(text: str, ctx: JetContext) -> MatrixForm:
    """At most one block per name: 'A <indep-name>', then d rows of d ';'-separated entries."""
    blocks: dict[int, list] = {}
    current: list | None = None
    for lineno, line in _statements(text):
        if line.startswith("A ") or line == "A":
            name = line[1:].strip()
            if name not in ctx.indep_index:
                raise ValueError(
                    f"line {lineno}: unknown independent variable {name!r}")
            if ctx.indep_index[name] in blocks:
                raise ValueError(f"line {lineno}: a second matrix for {name!r}")
            current = []
            blocks[ctx.indep_index[name]] = current
            continue
        if current is None:
            raise ValueError(f"line {lineno}: expected an 'A <name>' header first")
        current.append([ctx.parse(cell.strip()) for cell in line.split(";")])
    if not blocks:
        raise ValueError("no matrices found")
    sizes = {len(rows) for rows in blocks.values()}
    sizes |= {len(row) for rows in blocks.values() for row in rows}
    if len(sizes) != 1:
        raise ValueError("matrices must all be square and of equal size")
    d = sizes.pop()
    mats = [blocks.get(i, _zero_matrix(d)) for i in range(ctx.n)]
    return MatrixForm.connection(ctx, mats)


def format_matrix_form(omega: MatrixForm) -> list[str]:
    """Entry-per-line rendering of the nonzero coefficients."""
    ctx = omega.ctx
    lines = []
    for key in sorted(omega.coeffs):
        dx = "^".join(f"d{ctx.indep[i]}" for i in key) or "1"
        matrix = omega.coeffs[key]
        for r, row in enumerate(matrix):
            for c, entry in enumerate(row):
                if not entry.is_zero():
                    lines.append(f"[{dx}]({r + 1},{c + 1}): {format_poly(entry, ctx)}")
    return lines or ["0"]
