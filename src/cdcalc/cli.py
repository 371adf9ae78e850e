"""Command-line front end.

Reports are line-oriented ``key: value`` text (or JSON with the same keys
under --json); identical arguments, files, and seed produce byte-identical
output.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from fractions import Fraction

from .compat import check_formal_exactness, cokernel_rank, kline_report, parse_complex
from .expr import EvaluationError, ParseError, format_poly
from .jet import PointError, parse_point_file, parse_problem, random_point
from .ops import adjoint as op_adjoint, format_operator, linearize
from .pform import Metric, MetricError, e1_table, epi_check
from .spencer import (
    format_symbol_entry, is_involutive, spencer_cohomology, symbol,
    two_line_polynomial,
)
from .zcr import format_matrix_form, mc_residual, parse_matrix_forms


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _emit(lines: list[str], data: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))


def _linearization(path: str):
    """The free-mode context of a problem file and the linearization of its system."""
    problem = parse_problem(_read(path))
    if not problem.equations:
        raise ValueError(f"{path} declares no equation or evolution statements")
    return problem.ctx_free, linearize(problem.ctx_free, problem.equations)


def _point_for(args, ctx, needed_order: int):
    """Explicit point file, or None to engage the seeded three-point policy."""
    if getattr(args, "point", None):
        return parse_point_file(_read(args.point), ctx, needed_order)
    return None


def _operator_report(op, title: str) -> tuple[list[str], dict]:
    matrix_lines = format_operator(op).splitlines()
    lines = [f"operator: {title}",
             f"rows: {op.rows}",
             f"cols: {op.cols}",
             f"order: {op.order}",
             "matrix:"]
    lines.extend(matrix_lines)
    data = {"operator": title, "rows": op.rows, "cols": op.cols,
            "order": op.order,
            "matrix": [[cell for cell in row.split(" ; ")] for row in matrix_lines]}
    return lines, data


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_linearize(args) -> int:
    _, op = _linearization(args.problem)
    lines, data = _operator_report(op, "linearization")
    _emit(lines, data, args.json)
    return 0


def _cmd_adjoint(args) -> int:
    _, op = _linearization(args.problem)
    lines, data = _operator_report(op_adjoint(op), "adjoint of linearization")
    _emit(lines, data, args.json)
    return 0


def _cmd_symbol(args) -> int:
    ctx, op = _linearization(args.problem)
    pt = _point_for(args, ctx, op.coefficient_jet_order())
    if pt is None:
        pt = random_point(ctx, op.coefficient_jet_order(), 3 * args.seed)
    sym = symbol(op, pt)
    entry_strs = [[format_symbol_entry(sym.entry(s, j), ctx)
                   for j in range(sym.cols)] for s in range(sym.rows)]
    lines = [f"degree: {sym.degree}", f"rows: {sym.rows}", f"cols: {sym.cols}",
             "matrix:"]
    lines.extend(" ; ".join(row) for row in entry_strs)
    _emit(lines, {"degree": sym.degree, "rows": sym.rows, "cols": sym.cols,
                  "matrix": entry_strs}, args.json)
    return 0


def _spencer_lines(report) -> tuple[list[str], dict]:
    header = "l\\i " + " ".join(f"{i:>3}" for i in range(len(report.dims[0])))
    lines = [f"operator order: {report.order}",
             f"l_max: {report.l_max}",
             "dims:", header]
    for l, row in enumerate(report.dims):
        lines.append(f"{l:>3} " + " ".join(f"{v:>3}" for v in row))
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    lines.extend(report.machine_lines())
    data = {f"dims.{l}.{i}": v for l, row in enumerate(report.dims)
            for i, v in enumerate(row)}
    data["involutive_up_to"] = report.involutive_up_to
    data["operator_order"] = report.order
    data["warnings"] = list(report.warnings)
    return lines, data


def _cmd_spencer(args) -> int:
    ctx, op = _linearization(args.problem)
    pt = _point_for(args, ctx, op.coefficient_jet_order())
    report = spencer_cohomology(op, args.l_max, pt=pt, seed=args.seed)
    lines, data = _spencer_lines(report)
    _emit(lines, data, args.json)
    return 0


def _cmd_involutive(args) -> int:
    ctx, op = _linearization(args.problem)
    pt = _point_for(args, ctx, op.coefficient_jet_order())
    result = is_involutive(op, args.l_max, pt=pt, seed=args.seed)
    if result.involutive:
        lines = [f"involutive_up_to: {result.l_max}"]
        data = {"involutive_up_to": result.l_max, "failure": None}
    else:
        l, i = result.failure
        lines = ["involutive_up_to: None", f"failure_at: l={l} i={i}",
                 f"dim: {result.report.dims[l][i]}"]
        data = {"involutive_up_to": None, "failure": {"l": l, "i": i},
                "dim": result.report.dims[l][i]}
    for warning in result.report.warnings:
        lines.append(f"warning: {warning}")
    _emit(lines, data, args.json)
    return 0


def _cmd_exactness(args) -> int:
    cplx = parse_complex(_read(args.complex))
    pt = None
    if args.point:
        pt = parse_point_file(_read(args.point), cplx.ctx,
                              cplx.required_point_order(args.l_max))
    report = check_formal_exactness(cplx, args.l_max, pt=pt, seed=args.seed)
    lines = [f"l_max: {report.l_max}", f"positions: {len(cplx.operators) - 1}"]
    rows = []
    for c in report.checks:
        verdict = "exact" if c.exact else "NOT exact"
        lines.append(
            f"position {c.position} l={c.l}: dims {c.dims[0]} -> {c.dims[1]} -> "
            f"{c.dims[2]}, ranks {c.ranks[0]} {c.ranks[1]}, defect {c.defect}, "
            f"{verdict}")
        rows.append({"position": c.position, "l": c.l, "dims": list(c.dims),
                     "ranks": list(c.ranks), "defect": c.defect,
                     "exact": c.exact})
    lines.append(f"all_exact: {'yes' if report.all_exact else 'no'} "
                 f"(tested l <= {report.l_max})")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    _emit(lines, {"l_max": report.l_max, "checks": rows,
                  "all_exact": report.all_exact,
                  "warnings": list(report.warnings)}, args.json)
    return 0


def _cmd_coker(args) -> int:
    ctx, op = _linearization(args.problem)
    pt = _point_for(args, ctx, op.coefficient_jet_order() + args.k1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = cokernel_rank(op, args.k1, pt=pt, seed=args.seed)
    notes = [str(w.message) for w in caught]
    lines = [f"k1: {args.k1}", f"cokernel_rank: {value}"]
    lines.extend(f"warning: {note}" for note in notes)
    data = {"k1": args.k1, "cokernel_rank": value}
    if notes:
        data["warnings"] = notes
    _emit(lines, data, args.json)
    return 0


def _cmd_kline(args) -> int:
    report = kline_report(args.k, args.n)
    _emit(report.lines(), report.as_dict(), args.json)
    return 0


def _cmd_zcr(args) -> int:
    problem = parse_problem(_read(args.problem))
    if not problem.ctx.is_evolution:
        raise ValueError("zcr needs an evolution-mode problem file")
    omega = parse_matrix_forms(_read(args.forms), problem.ctx)
    residual = mc_residual(problem.ctx, omega)
    if residual.is_zero():
        lines = ["residual: 0 (zero-curvature representation verified)"]
        data = {"residual_zero": True, "entries": []}
    else:
        entries = format_matrix_form(residual)
        lines = ["residual: nonzero"] + entries
        data = {"residual_zero": False, "entries": entries}
    _emit(lines, data, args.json)
    return 0


def _cmd_two_line(args) -> int:
    result = two_line_polynomial(args.k, args.p, args.sign)
    poly_str = format_poly(result.poly, result.ctx)
    lines = [f"k: {result.k}", f"p: {result.p}",
             f"sign: {'+' if result.sign > 0 else '-'}",
             f"nonzero: {'true' if result.nonzero else 'false'}",
             f"polynomial: {poly_str}"]
    _emit(lines, {"k": result.k, "p": result.p,
                  "sign": "+" if result.sign > 0 else "-",
                  "nonzero": result.nonzero, "polynomial": poly_str}, args.json)
    return 0


def _parse_metric_arg(text: str) -> Metric:
    text = text.strip()
    if text.startswith("diag(") and text.endswith(")"):
        text = text[5:-1]
    return Metric.diag(int(tok) for tok in text.split(","))


def _cmd_pform_epi(args) -> int:
    metric = _parse_metric_arg(args.metric)
    xi = [Fraction(tok.strip()) for tok in args.xi.split(",")]
    result = epi_check(args.n, args.p, metric, xi)
    lines = [f"surjective: {'true' if result.surjective else 'false'}",
             f"rank: {result.rank}",
             f"dim: {result.dim}",
             f"target_degree: {result.degree}"]
    _emit(lines, {"surjective": result.surjective, "rank": result.rank,
                  "dim": result.dim, "target_degree": result.degree}, args.json)
    return 0


def _cmd_pform_table(args) -> int:
    table = e1_table(args.n, args.p)
    triples = table.triples()
    lines = [f"n: {table.n}", f"p: {table.p}", "entries (i, q, dim):"]
    lines.extend(f"({i}, {q}, {d})" for i, q, d in triples)
    _emit(lines, {"n": table.n, "p": table.p,
                  "entries": [list(t) for t in triples]}, args.json)
    return 0


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sub, points: bool = True):
    sub.add_argument("--json", action="store_true", help="structured output")
    if points:
        sub.add_argument("--seed", type=int, default=0,
                         help="seed for the three-point generic policy (default 0)")
        sub.add_argument("--point", help="explicit point file (coord = rational)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdcalc",
        description="Exact operator calculus on jet spaces")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("linearize", help="universal linearization of a system")
    p.add_argument("problem")
    _add_common(p, points=False)
    p.set_defaults(func=_cmd_linearize)

    p = subs.add_parser("adjoint", help="adjoint of the linearization")
    p.add_argument("problem")
    _add_common(p, points=False)
    p.set_defaults(func=_cmd_adjoint)

    p = subs.add_parser("symbol", help="top-order symbol at a point")
    p.add_argument("problem")
    _add_common(p)
    p.set_defaults(func=_cmd_symbol)

    p = subs.add_parser("spencer", help="delta-cohomology dimension table")
    p.add_argument("problem")
    p.add_argument("--l-max", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_spencer)

    p = subs.add_parser("involutive", help="involutivity over the tested range")
    p.add_argument("problem")
    p.add_argument("--l-max", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_involutive)

    p = subs.add_parser("exactness", help="formal exactness of a complex file")
    p.add_argument("complex")
    p.add_argument("--l-max", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_exactness)

    p = subs.add_parser("coker", help="cokernel rank of the prolonged linearization")
    p.add_argument("problem")
    p.add_argument("--k1", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=_cmd_coker)

    p = subs.add_parser("kline", help="vanishing ranges for a length-k complex")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, points=False)
    p.set_defaults(func=_cmd_kline)

    p = subs.add_parser("zcr", help="zero-curvature residual of a connection form")
    p.add_argument("problem")
    p.add_argument("--forms", required=True)
    _add_common(p, points=False)
    p.set_defaults(func=_cmd_zcr)

    p = subs.add_parser("two-line", help="power-sum vs k-th-power expansion")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--sign", choices=["+", "-"], required=True)
    _add_common(p, points=False)
    p.set_defaults(func=_cmd_two_line)

    p = subs.add_parser("pform-epi", help="wedge/adjoint surjectivity check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--metric", required=True, help='e.g. "diag(1,1,1,1)"')
    p.add_argument("--xi", required=True,
                   help='e.g. "1,0,0,0"; write --xi=-1,0,0,0 when the first '
                        'component is negative')
    _add_common(p, points=False)
    p.set_defaults(func=_cmd_pform_epi)

    p = subs.add_parser("pform-table", help="unit-dimension table for p-forms")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    _add_common(p, points=False)
    p.set_defaults(func=_cmd_pform_table)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, EvaluationError, PointError, MetricError, ValueError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console()
