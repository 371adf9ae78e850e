"""Formal-exactness checks of operator complexes at a point.

A complex is a chain of operators whose consecutive compositions vanish
symbolically.  Exactness is verified on prolonged jet fibers by exact rank
arithmetic; verdicts are always qualified by the tested prolongation range
and the sample point.
"""

from __future__ import annotations

import warnings
from itertools import product

from .expr import _INTEGER
from .jet import (
    _DECLARED, JetContext, JetPoint, _Record, _at_generic_points, _check_depth, _declare,
    _statements,
)
from .ops import CDiffOp, parse_scalar_op
from .spencer import _Tower, _check_fiber_size, jet_fiber_dim


class OperatorComplex:
    """P0 -> P1 -> P2 -> ... with declared orders.

    Adjacent shapes must compose and every consecutive composition must be
    the zero operator (checked symbolically at construction).  Declared
    orders default to the actual operator orders and may exceed them.
    """

    def __init__(self, operators, orders=None):
        self.operators = list(operators)
        if not self.operators:
            raise ValueError("a complex needs at least one operator")
        ctx = self.operators[0].ctx
        for op in self.operators:
            if op.ctx != ctx:
                raise ValueError("complex operators live over different contexts")
        for a, b in zip(self.operators, self.operators[1:]):
            if b.cols != a.rows:
                raise ValueError(
                    f"adjacent shapes do not chain: {a.rows}x{a.cols} then "
                    f"{b.rows}x{b.cols}")
            if not (b @ a).is_zero():
                raise ValueError("not a complex: consecutive composition is nonzero")
        if orders is None:
            self.orders = [op.order for op in self.operators]
        else:
            self.orders = [int(k) for k in orders]
            if len(self.orders) != len(self.operators):
                raise ValueError("one declared order per operator")
            for op, k in zip(self.operators, self.orders):
                if k < op.order:
                    raise ValueError(
                        f"declared order {k} below actual order {op.order}")
        self.ctx = ctx

    @property
    def module_ranks(self) -> list[int]:
        return [self.operators[0].cols] + [op.rows for op in self.operators]

    def __len__(self):
        return len(self.operators)

    def required_point_order(self, l_max: int) -> int:
        """Jet order a sample point needs for exactness checks up to ``l_max``."""
        needed = 0
        for idx in range(len(self.operators) - 1):
            needed = max(needed,
                         self.operators[idx].point_order(self.orders[idx + 1] + l_max),
                         self.operators[idx + 1].point_order(l_max))
        return needed


class PositionCheck(_Record):
    """Exactness data at one interior position and prolongation level.

    ``dims`` are the (domain, middle, codomain) fiber dimensions and
    ``ranks`` the (incoming, outgoing) ranks.
    """

    __slots__ = ("position", "l", "dims", "ranks", "defect")

    def __init__(self, position: int, l: int, dims: tuple, ranks: tuple, defect: int):
        self.position, self.l, self.dims, self.ranks, self.defect = position, l, dims, ranks, defect

    @property
    def exact(self) -> bool:
        return self.defect == 0


class ExactnessReport(_Record):
    __slots__ = ("l_max", "checks", "warnings")

    def __init__(self, l_max: int, checks: list, warnings: list | None = None):
        self.l_max, self.checks, self.warnings = l_max, checks, [] if warnings is None else warnings

    @property
    def all_exact(self) -> bool:
        return all(c.exact for c in self.checks)

    @property
    def first_defect(self):
        for c in self.checks:
            if not c.exact:
                return (c.position, c.l)
        return None


def check_formal_exactness(cplx: OperatorComplex, l_max: int,
                           pt: JetPoint | None = None,
                           seed: int = 0) -> ExactnessReport:
    """Rank-verify exactness at every interior position for l <= l_max.

    At position i the prolonged fibers are chained as
    order (k_i + k_{i+1} + l) -> order (k_{i+1} + l) -> order l,
    and the defect is dim ker(outgoing) - rank(incoming), which is
    nonnegative by the complex property.  Each operator's prolongation
    tower is built once per call, never kept between calls (only the index
    tables the towers share outlive it), and ranked at each sample only at
    the levels of its two roles.  A rank is read off the tower's lead bounds
    (``spencer._Tower``) where lo == hi, or where the complex certifies it:
    the image of the incoming map lies in the kernel of the outgoing one, so
    rank_in + rank_out is at most the middle fiber's dimension, and where
    lo_in + lo_out reaches it both ranks are their lo and the defect is 0.
    A tower that an uncertified position needs at an unsettled level is
    eliminated once per sample, at all its levels; so a defect is found by
    an elimination or by settled bounds.  With no explicit point the policy
    takes one sample when its run reads no value (constant coefficients, or
    varying ones whose constant leads settle every rank, as KdV's) and three
    otherwise.
    """
    ops, orders = cplx.operators, cplx.orders
    if len(ops) < 2:
        raise ValueError("exactness needs at least two operators")
    _check_depth("l_max", l_max)
    n = cplx.ctx.n
    towers, positions = [], []  # built by the first sample, for this call

    def roles(idx, l):
        _check_fiber_size(ops[idx], orders[idx], orders[idx + 1] + l)
        _check_fiber_size(ops[idx + 1], orders[idx + 1], l)

    def run(point):
        if not towers:
            levels = [set() for _ in ops]
            for idx in range(len(ops) - 1):
                try:  # fibers grow with l: scan the levels only if the largest fails
                    roles(idx, l_max)
                except ValueError:
                    for l in range(l_max):
                        roles(idx, l)
                    raise
                levels[idx].update(range(orders[idx + 1], orders[idx + 1] + l_max + 1))
                levels[idx + 1].update(range(l_max + 1))
            towers.extend(map(_Tower, ops, levels))
            for idx, l in product(range(len(ops) - 1), range(l_max + 1)):
                middle = orders[idx + 1] + l
                dims = (ops[idx].cols * jet_fiber_dim(n, orders[idx] + middle),
                        ops[idx + 1].cols * jet_fiber_dim(n, middle),
                        ops[idx + 1].rows * jet_fiber_dim(n, l))
                if ops[idx].rows * jet_fiber_dim(n, middle) != dims[1]:
                    raise AssertionError("fiber dimensions out of step")
                positions.append((idx, l, middle, dims))
        # lo_in + lo_out == the middle fiber's dimension certifies both lo
        lows = [tower.lows(point) for tower in towers]
        certified = [set() for _ in towers]
        for idx, l, middle, dims in positions:
            if lows[idx][middle] + lows[idx + 1][l] == dims[1]:
                certified[idx].add(middle)
                certified[idx + 1].add(l)
        ranks = [tower.settled_ranks(point, lo, levels)
                 for tower, lo, levels in zip(towers, lows, certified)]
        checks = []
        for idx, l, middle, dims in positions:
            pair = (ranks[idx][middle], ranks[idx + 1][l])
            defect = (dims[1] - pair[1]) - pair[0]
            assert defect >= 0, "image not contained in kernel"
            checks.append(PositionCheck(idx + 1, l, dims, pair, defect))
        return checks, tuple(r for c in checks for r in c.ranks)

    checks, notes = _at_generic_points(
        cplx.ctx, cplx.required_point_order(l_max), pt, seed, run)
    return ExactnessReport(l_max=l_max, checks=checks, warnings=notes)


def cokernel_rank(op: CDiffOp, k1: int, pt: JetPoint | None = None,
                  seed: int = 0) -> int:
    """Fiber rank of the cokernel of the k1-fold prolongation at a point.

    This is the rank of the next module in the compatibility construction;
    zero means the complex terminates here.  The order-0 fiber map must be
    surjective (checked, not normalized away).  A disagreement between the
    policy's samples is reported as a RuntimeWarning; a run that reads no
    value of its point takes one sample, since every sample gives the same
    ranks.  One prolongation tower, built for this call alone, gives
    the ranks at levels 0 and k1 at each sample: read off its lead bounds
    (``spencer._Tower``) where lo == hi at both, else from one elimination.
    """
    _check_depth("prolongation depth k1", k1, low=1)
    towers = []

    def run(point):
        if not towers:
            _check_fiber_size(op, op.order, 0)
            _check_fiber_size(op, op.order, k1)
            towers.append(_Tower(op, (0, k1)))
        ranks = towers[0].settled_ranks(point, towers[0].lows(point))
        if ranks[0] != op.rows:
            raise ValueError(
                "order-0 fiber map is not surjective; renormalize the target "
                "module before the cokernel construction")
        return ranks[k1], (ranks[k1],)

    best, notes = _at_generic_points(op.ctx, op.point_order(k1), pt, seed, run)
    for message in notes:
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return op.rows * jet_fiber_dim(op.ctx.n, k1) - best


class KlineReport(_Record):
    """Predicted vanishing ranges for a length-k compatibility complex."""

    __slots__ = ("k", "n")

    def __init__(self, k: int, n: int):
        self.k, self.n = k, n

    @property
    def e1_bound(self) -> int:
        return self.n - self.k

    def lines(self) -> list[str]:
        return [
            f"k: {self.k}",
            f"n: {self.n}",
            f"E1 vanishing: E1^{{p,q}} = 0 for p > 0 and q <= {self.e1_bound}",
            f"C-cohomology vanishing: H^i = 0 for i >= {self.k}",
        ]

    def as_dict(self) -> dict:
        return {"k": self.k, "n": self.n, "e1_zero_for_q_le": self.e1_bound,
                "c_cohomology_zero_for_i_ge": self.k}


def kline_report(k: int, n: int) -> KlineReport:
    """Pure formula evaluation of the vanishing ranges for complex length k."""
    if k < 2:
        raise ValueError("complex length k must be at least 2")
    if n < 1:
        raise ValueError("dimension n must be at least 1")
    return KlineReport(k=k, n=n)


# ---------------------------------------------------------------------------
# Complex description files
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> OperatorComplex:
    """File format: declaration lines, then blocks

        operator <cols> -> <rows> [order <k>]
        <rows lines of cols entries separated by ';'>

    Entries use the operator-literal grammar; '#' starts a comment.
    """
    lines = [line for _, line in _statements(text)]
    names = {word: [] for word in _DECLARED}
    pos = 0
    while pos < len(lines) and not lines[pos].startswith("operator"):
        statement = _declare(lines[pos], names)
        if statement is not None:
            raise ValueError(f"unexpected statement before operators: {statement[0]!r}")
        pos += 1
    ctx = JetContext(names["independent"], names["dependent"] or ("u",), names["parameter"])

    operators = []
    orders = []
    while pos < len(lines):
        header = lines[pos].split()  # "operator c -> r [order k]"
        if header[0] in _DECLARED:
            raise ValueError(f"declaration after the operators: {lines[pos]!r}")
        numbers = header[1::2]
        if header[0::2] not in (["operator", "->"], ["operator", "->", "order"]) \
                or len(header) % 2 or not all(map(_INTEGER.fullmatch, numbers)) \
                or min(map(int, numbers[:2])) < 1:
            raise ValueError(f"bad operator header: {lines[pos]!r}")
        cols, rows, *declared = map(int, numbers)
        pos += 1
        if pos + rows > len(lines):
            raise ValueError("operator block is missing matrix rows")
        matrix = []
        for r in range(rows):
            cells = [cell.strip() for cell in lines[pos + r].split(";")]
            if len(cells) != cols:
                raise ValueError(
                    f"operator row has {len(cells)} entries, expected {cols}")
            matrix.append([parse_scalar_op(cell, ctx) for cell in cells])
        pos += rows
        op = CDiffOp(ctx, matrix)
        operators.append(op)
        orders.append(declared[0] if declared else op.order)
    return OperatorComplex(operators, orders)
