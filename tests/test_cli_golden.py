"""Byte-for-byte CLI output on the demo inputs.

Each case runs ``cdcalc.cli.run`` from the repository root with relative
paths and ``COLUMNS=80`` and compares stdout, stderr and the exit code with
``tests/golden/<case>.json``, with colour switched off (``NO_COLOR``, no
``FORCE_COLOR`` or ``PYTHON_COLORS``).  The ``help-*`` cases hold argparse's
layout as Python 3.11 prints it; other versions may lay help out
differently.  Regenerate the files (only when an output is meant to change)
with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import cdcalc.cli
from cdcalc.cli import build_parser, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

KDV = "demos/data/kdv.prob"
POINT = "tests/golden/kdv.point"
SPELLINGS = "tests/golden/kdv-spellings.point"
SPLIT = "tests/golden/uxx-utt.prob"
THREE = "tests/golden/three-equations.prob"  # overdetermined: a tall tower
XYZ = "tests/golden/xyz.prob"  # one equation: a wide tower
DIAG3 = "tests/golden/diag3.prob"  # cohomology at (2, 2) and at the top degree (4, 3)

_COMMANDS = {
    "linearize": ["linearize", KDV],
    "adjoint": ["adjoint", KDV],
    "symbol": ["symbol", KDV],
    "symbol-seed": ["symbol", KDV, "--seed", "4"],
    "symbol-point": ["symbol", KDV, "--point", POINT],
    "spencer": ["spencer", KDV, "--l-max", "2"],
    "spencer-point": ["spencer", KDV, "--l-max", "1", "--point", POINT],
    "spencer-diag3": ["spencer", DIAG3, "--l-max", "4"],
    "involutive": ["involutive", KDV, "--l-max", "3", "--seed", "2"],
    "involutive-failure": ["involutive", SPLIT],
    "exactness-derham": ["exactness", "demos/data/derham2.cplx", "--l-max", "2"],
    "exactness-maxwell": ["exactness", "demos/data/maxwell4.cplx", "--l-max", "1"],
    "coker": ["coker", KDV, "--k1", "1"],
    "coker-point": ["coker", KDV, "--k1", "1", "--point", POINT],
    "spencer-point-spellings": ["spencer", KDV, "--l-max", "1", "--point", SPELLINGS],
    "coker-point-spellings": ["coker", KDV, "--k1", "1", "--point", SPELLINGS],
    "coker-three-equations": ["coker", THREE, "--k1", "4"],
    "coker-xyz": ["coker", XYZ, "--k1", "4"],
    "kline": ["kline", "--k", "3", "--n", "4"],
    "zcr": ["zcr", KDV, "--forms", "demos/data/kdv_sl2.forms"],
    "two-line": ["two-line", "--k", "3", "--p", "2", "--sign", "+"],
    "two-line-minus": ["two-line", "--k", "1", "--p", "2", "--sign", "-"],
    "pform-epi": ["pform-epi", "--n", "4", "--p", "1",
                  "--metric", "diag(1,1,1,-1)", "--xi=-1,1/2,0,3"],
    "pform-table": ["pform-table", "--n", "6", "--p", "2"],
}

CASES = {}
for _name, _argv in _COMMANDS.items():
    CASES[_name] = _argv
    CASES[_name + "-json"] = _argv + ["--json"]
CASES["help"] = ["--help"]
for _sub in ("linearize", "adjoint", "symbol", "spencer", "involutive", "exactness",
             "coker", "kline", "zcr", "two-line", "pform-epi", "pform-table"):
    CASES[f"help-{_sub}"] = [_sub, "--help"]
CASES["usage-no-command"] = []
CASES["usage-missing-argument"] = ["two-line", "--k", "2"]
CASES["error-missing-file"] = ["linearize", "demos/data/no-such-file.prob"]
CASES["error-point-name"] = ["symbol", KDV, "--point", "tests/golden/kdv-bad.point"]
CASES["error-point-line"] = ["symbol", KDV, "--point", "tests/golden/kdv-no-equals.point"]
CASES["error-complex-header"] = ["exactness", "tests/golden/bad-header.cplx"]
CASES["error-complex-row"] = ["exactness", "tests/golden/bad-row.cplx"]
CASES["error-forms-headless"] = ["zcr", KDV, "--forms", "tests/golden/headless.forms"]


_SET_ENV = {"COLUMNS": "80", "NO_COLOR": "1"}
_CLEARED_ENV = ("FORCE_COLOR", "PYTHON_COLORS")


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return {"argv": list(argv), "exit_code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden_env(monkeypatch):
    monkeypatch.chdir(ROOT)
    for name, value in _SET_ENV.items():
        monkeypatch.setenv(name, value)
    for name in _CLEARED_ENV:
        monkeypatch.delenv(name, raising=False)


def _golden(case):
    return json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, monkeypatch):
    _golden_env(monkeypatch)
    assert _invoke(CASES[case]) == _golden(case)


def test_point_spellings_give_the_same_reports(monkeypatch):
    # kdv-spellings.point holds kdv.point's values under other spellings
    _golden_env(monkeypatch)
    for case in ("spencer-point", "coker-point", "spencer-point-json", "coker-point-json"):
        spelled = _golden(case.replace("-point", "-point-spellings"))
        assert spelled["stdout"] == _golden(case)["stdout"]


def test_one_parser_serves_every_case_in_any_order(monkeypatch):
    # run() keeps the parser it builds first; here it is built under a
    # narrower terminal, and every case then runs through it in one process
    _golden_env(monkeypatch)
    monkeypatch.setattr(cdcalc.cli, "_PARSER", None)
    monkeypatch.setenv("COLUMNS", "20")
    assert _invoke(["kline", "--k", "2", "--n", "3"])["exit_code"] == 0
    shared = cdcalc.cli._PARSER
    monkeypatch.setenv("COLUMNS", "80")
    order = sorted(CASES)
    random.Random(12).shuffle(order)
    codes = []
    for case in order:
        record = _invoke(CASES[case])
        assert record == _golden(case), case
        codes.append((record["exit_code"], "--help" in CASES[case]))
    assert cdcalc.cli._PARSER is shared
    # usage errors and help both come before some valid call
    last_valid = max(i for i, (code, helps) in enumerate(codes) if code == 0 and not helps)
    assert (2, False) in codes[:last_valid] and (0, True) in codes[:last_valid]


def test_build_parser_gives_a_parser_of_its_own(monkeypatch):
    _golden_env(monkeypatch)
    run(["kline", "--k", "2", "--n", "3"])
    own = build_parser()
    assert own is not build_parser() and own is not cdcalc.cli._PARSER
    own.add_argument("--extra")
    assert own.parse_args(["--extra", "1", "kline", "--k", "2", "--n", "3"]).extra == "1"
    assert _invoke(["--extra", "1", "kline", "--k", "2", "--n", "3"])["exit_code"] == 2
    for case in ("help", "kline", "usage-no-command"):
        assert _invoke(CASES[case]) == _golden(case)


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ.update(_SET_ENV)
    for name in _CLEARED_ENV:
        os.environ.pop(name, None)
    for name, argv in sorted(CASES.items()):
        record = _invoke(argv)
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(f"{name}: exit {record['exit_code']}")
