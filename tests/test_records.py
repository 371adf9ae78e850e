"""Result records: construction, equality, repr, hashing, and what ``import cdcalc`` loads."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cdcalc import (
    DiffPoly, E1Table, EpiCheck, ExactnessReport, FiberMap, InvolutivityResult, JetContext,
    KlineReport, Metric, MetricError, PositionCheck, SpencerReport, SymbolMatrix, TwoLineResult,
)

_CTX = JetContext.free("x t", "u")
_REPORT = SpencerReport(2, 1, 2, [[0, 1], [0, 0]])

# each record's fields in order, with one value apiece
_RECORDS = {
    PositionCheck: dict(position=1, l=0, dims=(1, 2, 3), ranks=(1, 1), defect=0),
    ExactnessReport: dict(l_max=2, checks=[], warnings=["note"]),
    KlineReport: dict(k=2, n=4),
    Metric: dict(entries=(1, -1)),
    EpiCheck: dict(surjective=True, rank=3, dim=3, degree=1),
    E1Table: dict(n=4, p=1, entries={(0, 2): 1}),
    SymbolMatrix: dict(n=2, rows=1, cols=1, degree=1, entries={(0, 0): {(0,): Fraction(1)}}),
    FiberMap: dict(rows=[{0: Fraction(1)}], domain_dim=2, codomain_dim=1, source_rank=1,
                   source_order=1, target_rank=1, target_order=0),
    SpencerReport: dict(order=2, l_max=1, n=2, dims=[[0, 1]], warnings=[]),
    InvolutivityResult: dict(involutive=False, l_max=1, failure=(0, 1), report=_REPORT),
    TwoLineResult: dict(k=2, p=2, sign=-1, nonzero=True, poly=DiffPoly.const(2), ctx=_CTX),
}


@pytest.mark.parametrize("cls", _RECORDS, ids=lambda cls: cls.__name__)
def test_records_build_compare_and_print_like_dataclasses(cls):
    fields = _RECORDS[cls]
    by_keyword, by_position = cls(**fields), cls(*fields.values())
    assert by_keyword == by_position and not by_keyword != by_position
    assert [getattr(by_keyword, name) for name in fields] == list(fields.values())
    body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(by_keyword) == f"{cls.__name__}({body})"
    assert pickle.loads(pickle.dumps(by_keyword)) == by_keyword
    assert not hasattr(by_keyword, "__dict__")
    # equal only field by field, and only within one class
    assert by_keyword != tuple(fields.values()) and by_keyword != object()
    if cls is not Metric:  # Metric's one field is validated and hashed: see its own test
        for name in fields:
            other = cls(**{**fields, name: object()})
            assert other != by_keyword and by_keyword != other
        with pytest.raises(TypeError, match="unhashable"):
            hash(by_keyword)


def test_position_check_repr_matches_the_dataclass_text():
    check = PositionCheck(1, 0, (1, 2, 3), (1, 1), 0)
    assert repr(check) == "PositionCheck(position=1, l=0, dims=(1, 2, 3), ranks=(1, 1), defect=0)"
    assert check.exact and not PositionCheck(1, 0, (1, 2, 3), (1, 1), 1).exact


def test_metric_is_validated_frozen_and_hashable():
    for bad in ((), (1, 2), (0,), (1, -1, 3), (1.0, -1.0)):
        with pytest.raises(MetricError):
            Metric(bad)
    metric = Metric.diag([1, -1, 1])
    assert metric == Metric((1, -1, 1)) and metric != Metric((1, 1, 1))
    assert hash(metric) == hash(Metric((1, -1, 1))) == hash(((1, -1, 1),))
    assert len({metric, Metric((1, -1, 1)), Metric((1,))}) == 2
    with pytest.raises(AttributeError, match="cannot assign to field 'entries'"):
        metric.entries = (1,)
    with pytest.raises(AttributeError):
        del metric.entries
    with pytest.raises(AttributeError):
        metric.other = 1
    assert (metric.n, metric.index, metric.entries) == (3, 1, (1, -1, 1))


def test_reports_do_not_share_their_warnings():
    for make in (lambda: ExactnessReport(1, []), lambda: SpencerReport(1, 0, 2, [])):
        first, second = make(), make()
        assert first.warnings == [] and first.warnings is not second.warnings
        first.warnings.append("only mine")
        assert second.warnings == [] and make().warnings == []


def test_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH"))
        if p)
    script = ("import sys, cdcalc, cdcalc.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"
