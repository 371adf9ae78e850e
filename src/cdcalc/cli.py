"""Command-line front end.

Reports are line-oriented ``key: value`` text (or JSON with the same keys
under --json); identical arguments, files, and seed produce byte-identical
output.  Exit codes: 0 success, 1 domain error, 2 usage error.

Every ``run`` call in a process parses with one shared parser, built by
``build_parser`` on the first call: argparse makes a new namespace per
parse and lays help out when it prints it, so a call leaves nothing behind
for the next, and a batch of calls pays for the parser once.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .compat import check_formal_exactness, cokernel_rank, kline_report, parse_complex
from .expr import EvaluationError, ParseError, _parse_integers, _parse_rational, format_poly
from .jet import PointError, generic_points, parse_point_file, parse_problem
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


def _linearization(path: str):
    """The free-mode context of a problem file and the linearization of its system."""
    problem = parse_problem(_read(path))
    if not problem.equations:
        raise ValueError(f"{path} declares no equation or evolution statements")
    return problem.ctx_free, linearize(problem.ctx_free, problem.equations)


def _point_for(args, ctx, needed_order: int):
    """Explicit point file, or None to engage the seeded sample-point policy."""
    if args.point:
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
# Subcommands: each returns its report as text lines and as JSON data
# ---------------------------------------------------------------------------

def _cmd_linearize(args):
    return _operator_report(_linearization(args.problem)[1], "linearization")


def _cmd_adjoint(args):
    _, op = _linearization(args.problem)
    return _operator_report(op_adjoint(op), "adjoint of linearization")


def _cmd_symbol(args):
    ctx, op = _linearization(args.problem)
    order = op.coefficient_jet_order()
    pt = _point_for(args, ctx, order) or generic_points(ctx, order, args.seed)[0]
    sym = symbol(op, pt)
    entry_strs = [[format_symbol_entry(sym.entry(s, j), ctx)
                   for j in range(sym.cols)] for s in range(sym.rows)]
    lines = [f"degree: {sym.degree}", f"rows: {sym.rows}", f"cols: {sym.cols}",
             "matrix:"]
    lines.extend(" ; ".join(row) for row in entry_strs)
    return lines, {"degree": sym.degree, "rows": sym.rows, "cols": sym.cols,
                   "matrix": entry_strs}


def _cmd_spencer(args):
    ctx, op = _linearization(args.problem)
    pt = _point_for(args, ctx, op.coefficient_jet_order())
    report = spencer_cohomology(op, args.l_max, pt=pt, seed=args.seed)
    header = "l\\i " + " ".join(f"{i:>3}" for i in range(len(report.dims[0])))
    lines = [f"operator order: {report.order}",
             f"l_max: {report.l_max}",
             "dims:", header]
    for l, row in enumerate(report.dims):
        lines.append(f"{l:>3} " + " ".join(f"{v:>3}" for v in row))
    lines.extend(f"warning: {warning}" for warning in report.warnings)
    lines.extend(report.machine_lines())
    data = {f"dims.{l}.{i}": v for l, row in enumerate(report.dims)
            for i, v in enumerate(row)}
    data["involutive_up_to"] = report.involutive_up_to
    data["operator_order"] = report.order
    data["warnings"] = list(report.warnings)
    return lines, data


def _cmd_involutive(args):
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
    lines.extend(f"warning: {warning}" for warning in result.report.warnings)
    return lines, data


def _cmd_exactness(args):
    cplx = parse_complex(_read(args.complex))
    pt = _point_for(args, cplx.ctx, cplx.required_point_order(args.l_max))
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
    lines.extend(f"warning: {warning}" for warning in report.warnings)
    return lines, {"l_max": report.l_max, "checks": rows,
                   "all_exact": report.all_exact,
                   "warnings": list(report.warnings)}


def _cmd_coker(args):
    ctx, op = _linearization(args.problem)
    pt = _point_for(args, ctx, op.point_order(args.k1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = cokernel_rank(op, args.k1, pt=pt, seed=args.seed)
    notes = [str(w.message) for w in caught]
    lines = [f"k1: {args.k1}", f"cokernel_rank: {value}"]
    lines.extend(f"warning: {note}" for note in notes)
    data = {"k1": args.k1, "cokernel_rank": value}
    if notes:
        data["warnings"] = notes
    return lines, data


def _cmd_kline(args):
    report = kline_report(args.k, args.n)
    return report.lines(), report.as_dict()


def _cmd_zcr(args):
    problem = parse_problem(_read(args.problem))
    if not problem.ctx.is_evolution:
        raise ValueError("zcr needs an evolution-mode problem file")
    omega = parse_matrix_forms(_read(args.forms), problem.ctx)
    residual = mc_residual(problem.ctx, omega)
    if residual.is_zero():
        return (["residual: 0 (zero-curvature representation verified)"],
                {"residual_zero": True, "entries": []})
    entries = format_matrix_form(residual)
    return ["residual: nonzero"] + entries, {"residual_zero": False, "entries": entries}


def _cmd_two_line(args):
    result = two_line_polynomial(args.k, args.p, args.sign)
    poly_str = format_poly(result.poly, result.ctx)
    sign = "+" if result.sign > 0 else "-"
    lines = [f"k: {result.k}", f"p: {result.p}", f"sign: {sign}",
             f"nonzero: {'true' if result.nonzero else 'false'}",
             f"polynomial: {poly_str}"]
    return lines, {"k": result.k, "p": result.p, "sign": sign,
                   "nonzero": result.nonzero, "polynomial": poly_str}


def _parse_metric_arg(text: str) -> Metric:
    text = text.strip()
    if text.startswith("diag(") and text.endswith(")"):
        text = text[5:-1]
    return Metric.diag(_parse_integers(text, "--metric:"))


def _cmd_pform_epi(args):
    metric = _parse_metric_arg(args.metric)
    xi = [_parse_rational(tok, "--xi") for tok in args.xi.split(",")]
    result = epi_check(args.n, args.p, metric, xi)
    lines = [f"surjective: {'true' if result.surjective else 'false'}",
             f"rank: {result.rank}",
             f"dim: {result.dim}",
             f"target_degree: {result.degree}"]
    return lines, {"surjective": result.surjective, "rank": result.rank,
                   "dim": result.dim, "target_degree": result.degree}


def _cmd_pform_table(args):
    table = e1_table(args.n, args.p)
    triples = table.triples()
    lines = [f"n: {table.n}", f"p: {table.p}", "entries (i, q, dim):"]
    lines.extend(f"({i}, {q}, {d})" for i, q, d in triples)
    return lines, {"n": table.n, "p": table.p,
                   "entries": [list(t) for t in triples]}


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _arg(*names, **options):
    return names, options


_PROBLEM = _arg("problem")
_L_MAX = _arg("--l-max", type=int, default=2)
_N = _arg("--n", type=int, required=True)
_P = _arg("--p", type=int, required=True)

# name, help, handler, own arguments, whether it takes --seed/--point
_SUBCOMMANDS = (
    ("linearize", "universal linearization of a system", _cmd_linearize,
     [_PROBLEM], False),
    ("adjoint", "adjoint of the linearization", _cmd_adjoint, [_PROBLEM], False),
    ("symbol", "top-order symbol at a point", _cmd_symbol, [_PROBLEM], True),
    ("spencer", "delta-cohomology dimension table", _cmd_spencer,
     [_PROBLEM, _L_MAX], True),
    ("involutive", "involutivity over the tested range", _cmd_involutive,
     [_PROBLEM, _L_MAX], True),
    ("exactness", "formal exactness of a complex file", _cmd_exactness,
     [_arg("complex"), _L_MAX], True),
    ("coker", "cokernel rank of the prolonged linearization", _cmd_coker,
     [_PROBLEM, _arg("--k1", type=int, default=1)], True),
    ("kline", "vanishing ranges for a length-k complex", _cmd_kline,
     [_arg("--k", type=int, required=True), _N], False),
    ("zcr", "zero-curvature residual of a connection form", _cmd_zcr,
     [_PROBLEM, _arg("--forms", required=True)], False),
    ("two-line", "power-sum vs k-th-power expansion", _cmd_two_line,
     [_arg("--k", type=int, required=True), _P,
      _arg("--sign", choices=["+", "-"], required=True)], False),
    ("pform-epi", "wedge/adjoint surjectivity check", _cmd_pform_epi,
     [_N, _P, _arg("--metric", required=True, help='e.g. "diag(1,1,1,1)"'),
      _arg("--xi", required=True,
           help='e.g. "1,0,0,0"; write --xi=-1,0,0,0 when the first '
                'component is negative')], False),
    ("pform-table", "unit-dimension table for p-forms", _cmd_pform_table,
     [_N, _P], False),
)


def build_parser() -> argparse.ArgumentParser:
    """A new parser of its own for each call; ``run`` keeps the first it builds."""
    parser = argparse.ArgumentParser(
        prog="cdcalc",
        description="Exact operator calculus on jet spaces")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments, points in _SUBCOMMANDS:
        sub = subs.add_parser(name, help=help_text)
        for names, options in arguments:
            sub.add_argument(*names, **options)
        sub.add_argument("--json", action="store_true", help="structured output")
        if points:
            sub.add_argument("--seed", type=int, default=0,
                             help="seed for the generic sample points (default 0)")
            sub.add_argument("--point", help="explicit point file (coord = rational)")
        sub.set_defaults(func=handler)
    return parser


_PARSER = None  # the parser every run() call shares, built on first use


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        lines, data = args.func(args)
    except (ParseError, EvaluationError, PointError, MetricError, ValueError,
            ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(data, sort_keys=True, indent=2) if args.json else "\n".join(lines))
    return 0


def console() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console()
