"""Tests of the benchmark itself: every check rejects a planted wrong answer.

Wrong answers are planted with fakes patched over cdcalc functions for the
duration of one test; nothing under src/ is edited.
"""

import json
import shutil
import subprocess
import sys

import pytest

import inputs
import worker
import workloads
from conftest import BENCH, ROOT, run_and_check, subset
from tracer import Tracer, layer_metrics

SYMBOLIC_IDS = {"free-00", "free-01", "free-02", "green-00", "kdv-00"}
CHAIN_IDS = {"derham2-point-8-0", "derham3-point-2-0", "broken2-policy-4-0",
             "maxwell-lorentz-point-1-0"}
COKER_IDS = {"coker-grad2-0", "coker-kdv-0", "coker-wave-lorentz-2-0"}
EXACTNESS_IDS = CHAIN_IDS | COKER_IDS


def cli_ids(expects):
    return {c["id"] for c in inputs.cli_spec(0)["calls"] if c["expect"] in expects}


# -- the checks pass on the program as it is ---------------------------------

@pytest.mark.parametrize("workload, ids", [
    ("symbolic", SYMBOLIC_IDS), ("exactness", EXACTNESS_IDS),
    ("cli", None)])
def test_checks_accept_correct_outputs(workload, ids, tmp_path):
    built = subset(workload, 3, ids, tmp_path)
    if workload == "cli":  # the malformed item fails until the parser is mended
        built["items"] = [c for c in built["items"] if c["expect"] != "error"]
    _, failures = run_and_check(workload, built)
    assert failures == []


# -- planted wrong answers ---------------------------------------------------

def test_symbolic_rejects_flipped_adjoint_sign(patch_everywhere, tmp_path):
    built = subset("symbolic", 1, SYMBOLIC_IDS, tmp_path)
    patch_everywhere("cdcalc.ops", "adjoint", lambda orig: lambda op: -orig(op))
    _, failures = run_and_check("symbolic", built)
    assert any("adjoint(a @ b)" in f for f in failures)
    assert any("Green remainder" in f for f in failures)


def test_symbolic_rejects_wrong_composition(tmp_path, monkeypatch):
    import cdcalc

    built = subset("symbolic", 1, {"kdv-00"}, tmp_path)
    matmul = cdcalc.CDiffOp.__matmul__
    monkeypatch.setattr(cdcalc.CDiffOp, "__matmul__",
                        lambda a, b: matmul(a, b) + cdcalc.CDiffOp.identity(a.ctx, a.rows))
    _, failures = run_and_check("symbolic", built)
    assert any("(a @ b)(v) != a(b(v))" in f for f in failures)


def test_exactness_rejects_rank_off_by_one(patch_everywhere, tmp_path):
    built = subset("exactness", 2, CHAIN_IDS, tmp_path)
    patch_everywhere("cdcalc.linalg", "rank",
                     lambda orig: lambda m: max(orig(m) - 1, 0))
    _, failures = run_and_check("exactness", built)
    assert sum("defect" in f for f in failures) >= len(CHAIN_IDS)


def test_exactness_rejects_cokernel_off_by_one(patch_everywhere, tmp_path):
    built = subset("exactness", 2, COKER_IDS, tmp_path)
    patch_everywhere("cdcalc.compat", "cokernel_rank",
                     lambda orig: lambda *a, **k: orig(*a, **k) + 1)
    _, failures = run_and_check("exactness", built)
    calls = sum(len(item["calls"]) for item in built["items"])
    assert sum("closed form" in f for f in failures) == calls


def test_exactness_sympy_recheck_catches_a_bad_rank(tmp_path, monkeypatch):
    built = subset("exactness", 2, {"derham3-point-3-0"}, tmp_path)
    wl = workloads.WORKLOADS["exactness"]
    outputs = [wl.run(item) for item in built["items"]]
    # the report is self-consistent but its ranks disagree with the matrices
    for c in outputs[0][0].checks:
        c.ranks = (c.ranks[0] + 1, c.ranks[1] - 1)
    monkeypatch.setattr(wl, "SAMPLED_RANKS", 1000)
    failures = wl.check(built, outputs, workloads.check_rng(0))
    assert any("sympy gives" in f for f in failures)


def test_exactness_rejects_wrong_dims(tmp_path):
    built = subset("exactness", 2, {"derham2-point-8-0"}, tmp_path)
    wl = workloads.WORKLOADS["exactness"]
    outputs = [wl.run(item) for item in built["items"]]
    c = outputs[0][0].checks[-1]
    c.dims = (c.dims[0] + 1, c.dims[1], c.dims[2])
    assert any("closed form" in f for f in wl.check(built, outputs, workloads.check_rng(0)))


def test_cli_rejects_changed_output_byte(patch_everywhere, tmp_path):
    built = subset("cli", 5, cli_ids({"kline", "pform-table", "two-line"}), tmp_path)
    calls = {}

    def make_fake(orig):
        def fake(argv):
            key = tuple(argv)
            calls[key] = calls.get(key, 0) + 1
            code = orig(argv)
            if calls[key] == 2:
                print(" ")
            return code
        return fake

    patch_everywhere("cdcalc.cli", "run", make_fake)
    _, failures = run_and_check("cli", built)
    assert any("different bytes" in f for f in failures)


def test_cli_rejects_wrong_known_answers(patch_everywhere, tmp_path):
    built = subset("cli", 5, cli_ids({"kline", "kdv-linearization", "two-line"}),
                   tmp_path)
    patch_everywhere("cdcalc.compat", "kline_report",
                     lambda orig: lambda k, n: orig(k, n + 1))
    patch_everywhere("cdcalc.ops", "linearize",
                     lambda orig: lambda ctx, comps: orig(ctx, comps).scale(2))
    patch_everywhere("cdcalc.spencer", "two_line_polynomial",
                     lambda orig: lambda k, p, s: orig(k, p, "+" if s == "-" else "-"))
    _, failures = run_and_check("cli", built)
    assert any("kline ranges" in f for f in failures)
    assert any("hand derivation" in f for f in failures)
    assert any("sympy expansion" in f for f in failures)
    assert any("nonzero" in f for f in failures)


def test_cli_rejects_wrong_linearization(patch_everywhere, tmp_path):
    built = subset("cli", 6, cli_ids({"linearization", "adjoint"}), tmp_path)
    patch_everywhere("cdcalc.expr", "format_poly",
                     lambda orig: lambda p, ctx: orig(p + 1, ctx))
    _, failures = run_and_check("cli", built)
    assert any("sympy linearization" in f for f in failures)


def test_malformed_item_fails_until_mended(tmp_path, monkeypatch):
    built = subset("cli", 7, cli_ids({"error"}), tmp_path)
    wl = workloads.WORKLOADS["cli"]
    rounds, _ = worker.timed_list(wl, built, 2, None)
    assert all(isinstance(o, RecursionError) for outs in rounds for o in outs)
    result = worker.check("cli", wl, built, rounds, 7)
    assert result["failed"] == 2 and result["failures"] == []
    # a mended program answers with exit code 1 and an error line ...
    monkeypatch.setattr(wl, "run", lambda item: (1, "", "error: too deeply nested\n"))
    rounds, _ = worker.timed_list(wl, built, 1, None)
    assert worker.check("cli", wl, built, rounds, 7)["failed"] == 0
    # ... and exit code 0 is a wrong answer, not a pass
    assert wl.check(built, [(0, "", "")], workloads.check_rng(0))


# -- tracing -----------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them():
    import cdcalc
    import cdcalc.cli

    originals = (cdcalc.linalg.rank, cdcalc.ops.total_derivative)
    tracer = Tracer().install()
    try:
        for fn in (cdcalc.spencer.rank, cdcalc.pform.rank, cdcalc.linalg.rank,
                   cdcalc.ops.total_derivative, cdcalc.zcr.total_derivative,
                   cdcalc.total_derivative, cdcalc.cli.op_adjoint,
                   cdcalc.DiffPoly.__add__, cdcalc.DiffPoly.__radd__):
            assert hasattr(fn, "__wrapped__"), fn
        assert cdcalc.spencer.rank is cdcalc.pform.rank
    finally:
        tracer.uninstall()
    assert (cdcalc.linalg.rank, cdcalc.ops.total_derivative) == originals
    assert cdcalc.spencer.rank is originals[0]
    assert not hasattr(cdcalc.DiffPoly.__add__, "__wrapped__")


@pytest.mark.parametrize("workload, ids", [
    ("symbolic", SYMBOLIC_IDS), ("exactness", EXACTNESS_IDS),
    ("cli", None)])
def test_traced_run_gives_the_same_outputs(workload, ids, tmp_path):
    wl = workloads.WORKLOADS[workload]
    built = subset(workload, 8, ids, tmp_path)
    plain, _ = worker.timed_list(wl, built, 1, None)
    tracer = Tracer().install()
    try:
        traced, _ = worker.timed_list(wl, built, 1, tracer)
    finally:
        tracer.uninstall()
    untraced = worker.check(workload, wl, built, plain, 8)
    with_trace = worker.check(workload, wl, built, traced, 8)
    assert untraced["digest"] == with_trace["digest"]
    assert untraced["failures"] == with_trace["failures"] == []
    totals = tracer.totals()
    assert totals and all(r["self_s"] <= r["total_s"] + 1e-9 for r in totals.values())
    metrics = layer_metrics(totals)
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert set(metrics) == names
    key = {"symbolic": "ops.adjoint.calls", "exactness": "linalg.rank.calls",
           "cli": "cli.run.calls"}[workload]
    assert metrics[key][0] > 0


# -- inputs and the command --------------------------------------------------

def test_inputs_follow_the_seed_but_keep_their_shape():
    for spec in (inputs.symbolic_spec, inputs.exactness_spec, inputs.cli_spec):
        assert spec(1) == spec(1)
        assert spec(1) != spec(2)
    a, b = inputs.symbolic_spec(1)["items"], inputs.symbolic_spec(2)["items"]
    assert [i["id"] for i in a] == [i["id"] for i in b]
    assert [i["a"].count("D_") for i in a if i["kind"] == "free"] == \
        [i["a"].count("D_") for i in b if i["kind"] == "free"]
    calls = [inputs.cli_spec(s)["calls"] for s in (1, 2)]
    assert [c["expect"] for c in calls[0]] == [c["expect"] for c in calls[1]]


def test_command_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
