"""Malformed input files end in ParseError/ValueError, never a traceback.

Lines of texts drawn from the words of every file format go to the five
readers (problem, complex, point, forms and operator-matrix texts) and,
written to files, through ``cli.run``.  Derandomized, so each run draws the
same examples.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cdcalc import (
    JetContext, parse_complex, parse_matrix_forms, parse_operator_matrix, parse_point_file,
    parse_problem,
)
from cdcalc.cli import run

KDV = str(Path(__file__).resolve().parent.parent / "demos" / "data" / "kdv.prob")

_FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=40,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

_WORDS = ["independent", "dependent", "parameter", "equation", "evolution", "metric",
          "operator", "order", "->", "A", "x", "t", "u", "v", "lam", "u_x", "u_{x,t}", "u_xt",
          "u_{t,x}", "D_{x}", "D_{x,t}", "diag(1,-1)", "diag(1,", "(", ")", "=", ";", "#",
          "+", "-", "*", "^", "/", "0", "1", "2", "-1", "1/2", "1/0", "-1.25", "1e3", "1_0",
          "\u0661"]
_GOLDEN = Path(__file__).resolve().parent / "golden"
_KDV_HEAD = "independent x t\ndependent u\nparameter lam\n"
_KDV = parse_problem(Path(KDV).read_text())

# kind -> (whole texts a file may start with, lines of that format)
_FORMATS = {
    "problem": (["", _KDV_HEAD, Path(KDV).read_text()], [
        "independent x t", "dependent u v", "parameter lam", "equation u_t - u*u_x",
        "evolution u = u*u_x + u_{x,x,x}", "metric diag(1,-1)", "# a comment"]),
    "complex": (["", _KDV_HEAD, Path(KDV).with_name("derham2.cplx").read_text()], [
        "independent x t", "dependent u", "operator 1 -> 2 order 1", "operator 2 -> 1",
        "operator 1 -> 1", "D_{x}", "D_{t}", "-D_{t} ; D_{x}", "0 ; 0", "u*D_{x} + lam"]),
    "point": (["", (_GOLDEN / "kdv.point").read_text()], [
        "x = 1", "t = 2", "lam = 0", "u = 3", "u_x = -1/2", "u_t = 5", "u_xx = 1",
        "u_{x,t} = 2", "u_xxx = 7/3", "v = 1.5"]),
    "forms": (["", Path(KDV).with_name("kdv_sl2.forms").read_text()], [
        "A x", "A t", "0 ; -(lam + u)", "1/6 ; 0", "u ; 0", "0 ; u_x", "u", "0"]),
    "operator-matrix": ([""], [
        "D_{x} ; 0", "u*D_{t} ; D_{x}", "D_{t} - u*D_{x}", "1/2 ; v*D_{x,t} + 1", "0"]),
}


def _texts(kind):
    """A start of the format, then lines of it, some with words of any format mixed in."""
    starts, lines = _FORMATS[kind]
    line = st.one_of(st.sampled_from(lines),
                     st.lists(st.sampled_from(_WORDS + lines), min_size=1, max_size=4)
                     .map(" ".join))
    return st.builds(lambda start, body: start + "\n".join(body),
                     st.sampled_from(starts), st.lists(line, max_size=7))


_FREE = JetContext.free("x t", "u v", "lam")

_READERS = {
    "problem": parse_problem,
    "complex": parse_complex,
    "point": lambda text: parse_point_file(text, _KDV.ctx_free, 1),
    "forms": lambda text: parse_matrix_forms(text, _KDV.ctx),
    "operator-matrix": lambda text: parse_operator_matrix(text, _FREE),
}


@pytest.mark.parametrize("kind", sorted(_READERS))
@_FUZZ
@given(data=st.data())
def test_readers_raise_only_value_errors(kind, data):
    text = data.draw(_texts(kind))
    try:
        _READERS[kind](text)
    except ValueError:  # ParseError and PointError included
        pass


_COMMANDS = {
    "problem": lambda path: ["linearize", path],
    "complex": lambda path: ["exactness", path, "--l-max", "1"],
    "forms": lambda path: ["zcr", KDV, "--forms", path],
    "point": lambda path: ["symbol", KDV, "--point", path],
}


@pytest.mark.parametrize("kind", sorted(_COMMANDS))
@_FUZZ
@given(data=st.data())
def test_cli_reads_any_file_to_an_exit_code(kind, data, tmp_path):
    text = data.draw(_texts(kind))
    path = tmp_path / f"fuzz.{kind}"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(_COMMANDS[kind](str(path)))
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
