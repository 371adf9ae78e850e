import io
import itertools
import json
import time
from contextlib import redirect_stdout, redirect_stderr
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

import cdcalc.jet
from cdcalc import JetContext
from cdcalc.cli import run

from conftest import split_samples

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

KDV_PROB = str(DATA / "kdv.prob")
KDV_FORMS = str(DATA / "kdv_sl2.forms")
DERHAM = str(DATA / "derham2.cplx")
MAXWELL = str(DATA / "maxwell4.cplx")


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_linearize_golden():
    code, out, _ = invoke("linearize", KDV_PROB)
    assert code == 0
    assert "order: 3" in out
    assert "-u_x - u*D_{x} + D_{t} - D_{x,x,x}" in out


def test_adjoint_golden():
    code, out, _ = invoke("adjoint", KDV_PROB)
    assert code == 0
    assert "u*D_{x} - D_{t} + D_{x,x,x}" in out


def test_linearize_round_trip():
    from cdcalc import parse_operator_matrix, parse_problem, linearize
    code, out, _ = invoke("linearize", KDV_PROB)
    matrix_text = out.split("matrix:\n", 1)[1]
    prob = parse_problem(Path(KDV_PROB).read_text())
    op = linearize(prob.ctx_free, prob.equations)
    assert parse_operator_matrix(matrix_text, prob.ctx_free) == op


def test_symbol_command():
    code, out, _ = invoke("symbol", KDV_PROB)
    assert code == 0
    assert "-xi_x^3" in out


def test_symbol_builds_only_the_first_sample(tmp_path, monkeypatch):
    """The default point is generic sample seed * 3, the first of three, and only its
    values are drawn."""
    prob = tmp_path / "varying.prob"
    prob.write_text("independent x t\ndependent u\nevolution u = u^2*u_{x,x,x}\n")
    pt_file = tmp_path / "pt"
    seeds = []
    real = cdcalc.jet._draw

    def recorded(ctx, order_bound, seed):
        seeds.append(seed)
        values = real(ctx, order_bound, seed)
        pt_file.write_text("".join(f"{cdcalc.jet.format_coord(c, ctx)} = {v}\n"
                                   for c, v in values.items()))
        return values

    monkeypatch.setattr(cdcalc.jet, "_draw", recorded)
    code, out, _ = invoke("symbol", str(prob), "--seed", "5")
    assert code == 0 and seeds == [15]
    monkeypatch.undo()
    assert invoke("symbol", str(prob), "--point", str(pt_file)) == (0, out, "")


def test_spencer_and_involutive():
    code, out, _ = invoke("spencer", KDV_PROB, "--l-max", "2")
    assert code == 0
    assert "involutive_up_to: 2" in out
    code, out, _ = invoke("involutive", KDV_PROB, "--l-max", "3")
    assert code == 0
    assert "involutive_up_to: 3" in out


def test_exactness_command():
    code, out, _ = invoke("exactness", DERHAM, "--l-max", "2")
    assert code == 0
    assert "dims 6 -> 6 -> 1, ranks 5 1, defect 0, exact" in out
    assert "all_exact: yes (tested l <= 2)" in out


def test_coker_command():
    code, out, _ = invoke("coker", KDV_PROB, "--k1", "1")
    assert code == 0
    assert "cokernel_rank: 0" in out and "warning" not in out
    code, out, _ = invoke("coker", KDV_PROB, "--k1", "1", "--json")
    assert json.loads(out) == {"k1": 1, "cokernel_rank": 0}


def test_coker_reports_sample_disagreement(tmp_path, monkeypatch):
    prob = tmp_path / "split.prob"
    prob.write_text("independent x t\ndependent u\n"
                    "equation u_t + x*u - u\nequation x*u_x - u_x + u\n")
    samples = split_samples(JetContext.free("x t", "u"), 1)
    monkeypatch.setattr(cdcalc.jet, "generic_points", lambda *args, **kwargs: samples)
    message = ("rank profiles disagree between sample points; using the maximal "
               "profile (non-generic sample or variable rank)")
    code, out, err = invoke("coker", str(prob), "--k1", "1")
    assert code == 0 and err == ""
    assert out.splitlines() == ["k1: 1", "cokernel_rank: 0", f"warning: {message}"]
    code, out, _ = invoke("coker", str(prob), "--k1", "1", "--json")
    assert json.loads(out) == {"k1": 1, "cokernel_rank": 0, "warnings": [message]}


def test_kline_command():
    code, out, _ = invoke("kline", "--k", "2", "--n", "2")
    assert code == 0
    assert "E1 vanishing: E1^{p,q} = 0 for p > 0 and q <= 0" in out
    assert "C-cohomology vanishing: H^i = 0 for i >= 2" in out


def test_kline_dimension_is_domain_checked():
    for n in ("-5", "0"):
        code, out, err = invoke("kline", "--k", "2", "--n", n)
        assert (code, out, err) == (1, "", "error: dimension n must be at least 1\n")
    code, out, _ = invoke("kline", "--k", "2", "--n", "1")
    assert code == 0 and "q <= -1" in out


def test_zcr_command():
    code, out, _ = invoke("zcr", KDV_PROB, "--forms", KDV_FORMS)
    assert code == 0
    assert out.strip() == "residual: 0 (zero-curvature representation verified)"


def test_zcr_perturbed_reports_entries(tmp_path):
    text = Path(KDV_FORMS).read_text().replace("1/6 ; 0", "1/5 ; 0")
    forms = tmp_path / "bad.forms"
    forms.write_text(text)
    code, out, _ = invoke("zcr", KDV_PROB, "--forms", str(forms))
    assert code == 0
    assert "residual: nonzero" in out


def test_two_line_command():
    code, out, _ = invoke("two-line", "--k", "3", "--p", "2", "--sign", "+")
    assert code == 0
    assert "nonzero: true" in out
    assert "polynomial:" in out
    code, out, _ = invoke("two-line", "--k", "1", "--p", "2", "--sign", "-")
    assert "nonzero: false" in out


def test_pform_commands():
    code, out, _ = invoke("pform-epi", "--n", "4", "--p", "1",
                          "--metric", "diag(1,1,1,1)", "--xi", "1,0,0,0")
    assert code == 0
    assert "surjective: true" in out and "rank: 6" in out
    code, out, _ = invoke("pform-table", "--n", "4", "--p", "1")
    assert code == 0
    assert "(0, 0, 1)" in out and "(1, 2, 1)" in out


def test_json_mode_is_structured():
    code, out, _ = invoke("pform-table", "--n", "4", "--p", "1", "--json")
    data = json.loads(out)
    assert data["entries"] == [[0, 0, 1], [0, 2, 1], [1, 2, 1]]
    code, out, _ = invoke("kline", "--k", "2", "--n", "4", "--json")
    assert json.loads(out)["e1_zero_for_q_le"] == 2


def test_determinism_byte_identical():
    for argv in (
        ("linearize", KDV_PROB),
        ("spencer", KDV_PROB, "--l-max", "2", "--seed", "5"),
        ("exactness", DERHAM, "--l-max", "1", "--seed", "3"),
        ("zcr", KDV_PROB, "--forms", KDV_FORMS),
        ("pform-table", "--n", "6", "--p", "3", "--json"),
    ):
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second
        assert first[0] == 0


def test_explicit_point_file(tmp_path):
    point = tmp_path / "pt.point"
    point.write_text(
        "x = 1\nt = 2\nlam = 0\nu = 3\nu_x = -1/2\nu_t = 5\n"
        "u_xx = 1\nu_{x,t} = 2\nu_tt = -3\n"
        "u_xxx = 1\nu_{x,x,t} = 1\nu_{x,t,t} = 1\nu_ttt = 1\n"
        "u_xxxx = 1\nu_{x,x,x,t} = 1\nu_{x,x,t,t} = 1\nu_{x,t,t,t} = 1\nu_tttt = 1\n")
    code, out, _ = invoke("symbol", KDV_PROB, "--point", str(point))
    assert code == 0 and "-xi_x^3" in out
    code, out, _ = invoke("coker", KDV_PROB, "--k1", "1", "--point", str(point))
    assert code == 0 and "cokernel_rank: 0" in out
    code, out, _ = invoke("spencer", KDV_PROB, "--l-max", "1", "--point", str(point))
    assert code == 0 and "involutive_up_to: 1" in out


def test_insufficient_point_file_is_domain_error(tmp_path):
    point = tmp_path / "pt.point"
    point.write_text("x = 1\nt = 2\nlam = 0\nu = 3\n")
    code, _, err = invoke("coker", KDV_PROB, "--k1", "1", "--point", str(point))
    assert code == 1
    assert "error:" in err


def test_domain_error_exit_1(tmp_path):
    bad = tmp_path / "bad.prob"
    bad.write_text("independent x t\ndependent u\nequation u_t - w\n")
    code, out, err = invoke("linearize", str(bad))
    assert code == 1
    assert "error:" in err


def test_deeply_nested_input_is_domain_error(tmp_path):
    bad = tmp_path / "deep.prob"
    for body in ("-" * 5000 + "u_x", "(" * 3000 + "u_x" + ")" * 3000):
        bad.write_text(f"independent x t\ndependent u\nequation {body}\n")
        code, out, err = invoke("linearize", str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: expression nested deeper than")
        assert "Traceback" not in err


def test_huge_exponent_is_domain_error(tmp_path):
    bad = tmp_path / "power.prob"
    bad.write_text("independent x t\ndependent u\nequation u_t - (u+1)^1000000\n")
    code, out, err = invoke("linearize", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: exponent 1000000 exceeds")
    assert "Traceback" not in err
    bad.write_text("independent x t\ndependent u\nequation u_t - ((u+1)^64)^64\n")
    code, out, err = invoke("linearize", str(bad))
    assert (code, out, err) == \
        (1, "", "error: power of total degree 4096 exceeds 64 at offset 17\n")


def test_expanding_input_is_domain_error(tmp_path):
    # 39 characters that would expand to C(69, 5) terms, and a product of 24
    # binomials (2^24 terms): both refused at the multiply that passes the bound
    jets = [c for r in range(7) for c in itertools.combinations_with_replacement("xt", r)]
    product = "*".join(f"(u_{{{','.join(c)}}} + 1)" if c else "(u + 1)" for c in jets[:24])
    stars = [i for i, c in enumerate(product) if c == "*"]
    bad = tmp_path / "expanding.prob"
    for body, err_want in (
            ("(u + u_x + u_t + u_xx + u_xt + u_tt)^64",
             "error: product of 1287 by 1287 terms exceeds 20000 term products at offset 37\n"),
            (product, "error: product of 16384 by 2 terms exceeds 20000 term products "
                      f"at offset {stars[13]}\n")):
        bad.write_text(f"independent x t\ndependent u\nequation {body}\n")
        start = time.perf_counter()
        assert invoke("linearize", str(bad)) == (1, "", err_want)
        assert time.perf_counter() - start < 1


def test_long_integer_literal_is_domain_error(tmp_path):
    bad = tmp_path / "literal.prob"
    bad.write_text("independent x t\ndependent u\nequation u_t - " + "7" * 5000 + "*u\n")
    code, out, err = invoke("linearize", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error: integer literal longer than 1000 digits at offset 6")
    assert "Traceback" not in err and "set_int_max_str_digits" not in err


def test_two_line_size_is_bounded():
    code, out, err = invoke("two-line", "--k", "400", "--p", "4", "--sign", "+")
    assert code == 1 and out == ""
    assert err == "error: k = 400 exceeds 64\n"
    code, out, err = invoke("two-line", "--k", "30", "--p", "4", "--sign", "-")
    assert code == 1 and out == ""
    assert err == "error: (t1 + ... + t4)^30 has more than 2000 terms\n"


def test_missing_file_exit_1():
    code, _, err = invoke("linearize", "no-such-file.prob")
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_2():
    code, _, _ = invoke("no-such-command")
    assert code == 2
    code, _, _ = invoke("two-line", "--k", "2")
    assert code == 2


def test_negative_prolongation_is_domain_error():
    for argv in (("spencer", KDV_PROB, "--l-max", "-1"),
                 ("involutive", KDV_PROB, "--l-max", "-1"),
                 ("exactness", DERHAM, "--l-max", "-1")):
        code, out, err = invoke(*argv)
        assert (code, out, err) == (1, "", "error: l_max must be in 0..15, got -1\n")


def test_oversized_prolongation_is_domain_error(tmp_path):
    big = tmp_path / "big.cplx"
    big.write_text(Path(DERHAM).read_text().replace("operator 1 -> 2 order 1",
                                                    "operator 1 -> 2 order 100000"))
    cases = ((("spencer", KDV_PROB, "--l-max", "100000"),
              "l_max must be in 0..15, got 100000"),
             (("involutive", KDV_PROB, "--l-max", "16"), "l_max must be in 0..15, got 16"),
             (("coker", KDV_PROB, "--k1", "100000"),
              "prolongation depth k1 must be in 1..15, got 100000"),
             (("exactness", str(big)),
              "the order-100001 fiber map has 5000250003 coordinates, more than 2000"),
             (("exactness", MAXWELL, "--l-max", "6"),
              "the order-9 fiber map has 2860 coordinates, more than 2000"))
    for argv, message in cases:
        code, out, err = invoke(*argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_oversized_pform_requests_are_domain_errors():
    # rejected before any form space is built: without the bound the first
    # ran out of memory and the second printed 600003 lines
    ones, xi = ",".join(["1"] * 30), ",".join(["1"] + ["0"] * 29)
    cases = ((("pform-epi", "--n", "30", "--p", "15", "--metric", f"diag({ones})",
               f"--xi={xi}"), "Lambda^13 in dimension 30 has 119759850 coordinates"),
             (("pform-table", "--n", "300000", "--p", "299998"),
              "Lambda^1 in dimension 300000 has 300000 coordinates"))
    for argv, message in cases:
        start = time.perf_counter()
        code, out, err = invoke(*argv)
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (1, "", f"error: {message}, more than 2000\n")


def test_non_ascii_digit_is_domain_error(tmp_path):
    bad = tmp_path / "digit.prob"
    bad.write_text("independent x t\ndependent u\nequation u_t - 2²*u\n", encoding="utf-8")
    code, out, err = invoke("linearize", str(bad))
    assert (code, out, err) == (1, "", "error: unexpected character '²' at offset 7\n")


def test_metric_entries_are_domain_checked():
    message = "error: --metric: entries must be integers of at most 1000 digits\n"
    for entry in ("\u0661", "7" * 5000, "1.0", "1_1", ""):
        code, out, err = invoke("pform-epi", "--n", "4", "--p", "1", "--metric",
                                f"diag(1,{entry},1,1)", "--xi", "1,0,0,0")
        assert (code, out, err) == (1, "", message)
    code, out, err = invoke("pform-epi", "--n", "4", "--p", "1", "--metric",
                            "diag(-1, +1, 1,1)", "--xi", "1,0,0,0")
    assert code == 0 and err == ""


def test_unbounded_rationals_are_domain_errors(tmp_path):
    point = tmp_path / "pt.point"
    cases = (("7" * 5000, "value longer than 1000 digits"),
             ("1e999999999999", "expected an integer, p/q or plain decimal"))
    for value, message in cases:
        point.write_text(f"x = 1\nt = 2\nlam = 0\nu = {value}\n")
        code, out, err = invoke("symbol", KDV_PROB, "--point", str(point))
        assert (code, out, err) == (1, "", f"error: line 4: {message}\n")
        code, out, err = invoke("pform-epi", "--n", "4", "--p", "1",
                                "--metric", "diag(1,1,1,1)", f"--xi={value},0,0,0")
        assert (code, out, err) == (1, "", f"error: --xi: {message}\n")


# integers in and out of range, past any bound, and past int()'s 4300 digits
_INTEGERS = st.one_of(
    st.integers(-3, 40).map(str), st.integers(-10 ** 30, 10 ** 30).map(str),
    st.sampled_from([str(10 ** 4299), str(-10 ** 4299), "9" * 4301]))
_VALUES = st.one_of(st.integers(-1, 8).map(str), _INTEGERS, st.text(max_size=12))
_DRAWN = {
    "--metric": st.one_of(_VALUES, st.lists(st.sampled_from(["1", "-1", "+1", "2", "0"]),
                                            max_size=6).map(lambda v: f"diag({','.join(v)})")),
    "--xi": st.one_of(_VALUES, st.lists(st.sampled_from(["0", "1", "-1/2", "3.5", "1/0"]),
                                        min_size=1, max_size=6).map(",".join)),
    "--sign": st.one_of(_VALUES, st.sampled_from(["+", "-"])),
}
# subcommand: (file argument, options drawn); Maxwell is left out for time
_FUZZED = {
    "symbol": (KDV_PROB, ("--seed",)),
    "spencer": (KDV_PROB, ("--l-max", "--seed")),
    "involutive": (KDV_PROB, ("--l-max", "--seed")),
    "coker": (KDV_PROB, ("--k1", "--seed")),
    "exactness": (DERHAM, ("--l-max", "--seed")),
    "kline": (None, ("--k", "--n")),
    "two-line": (None, ("--k", "--p", "--sign")),
    "pform-epi": (None, ("--n", "--p", "--metric", "--xi")),
    "pform-table": (None, ("--n", "--p")),
}


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_fuzzed_arguments_end_in_an_exit_code(data):
    # no exception escapes run(); a domain error is one "error:" line and no output
    command = data.draw(st.sampled_from(sorted(_FUZZED)), label="command")
    path, options = _FUZZED[command]
    argv = [command] + ([path] if path else []) + data.draw(st.sampled_from([[], ["--json"]]))
    for option in options:
        value = data.draw(_DRAWN.get(option, _VALUES), label=option)
        argv += data.draw(st.sampled_from([[f"{option}={value}"], [option, value]]))
    code, out, err = invoke(*argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    elif code == 0:
        assert err == ""
