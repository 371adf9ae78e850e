"""Fixtures for the benchmark's own tests.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import inputs  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def subset(workload: str, seed: int, ids, work: Path):
    """Build the named items of one workload (all items when ``ids`` is None)."""
    inputs.write_inputs(workload, seed, work)
    spec = inputs.read_spec(work)
    if workload == "cli":
        if ids is not None:
            spec = {**spec, "calls": [c for c in spec["calls"] if c["id"] in ids]}
    elif ids is not None:
        spec = {**spec, "items": [i for i in spec["items"] if i["id"] in ids]}
    paths = {"demos": ROOT / "demos" / "data", "work": work}
    return workloads.WORKLOADS[workload].build(spec, paths)


def run_and_check(workload: str, built, seed: int = 0):
    """Outputs of one round, and the failed checks plus the failed operations."""
    wl = workloads.WORKLOADS[workload]
    rounds, _ = worker.timed_list(wl, built, 1, None)
    result = worker.check(workload, wl, built, rounds, seed)
    return rounds[0], result["failures"] + result["errors"]


@pytest.fixture
def patch_everywhere(monkeypatch):
    """Replace a cdcalc function at every module binding, like the tracer does."""
    import cdcalc
    import cdcalc.cli

    modules = [cdcalc] + [m for m in vars(cdcalc).values()
                          if isinstance(m, types.ModuleType)
                          and m.__name__.startswith("cdcalc.")]

    def patch(module_name, attr, make_fake):
        module = sys.modules[module_name]
        original = getattr(module, attr)
        fake = make_fake(original)
        for namespace in modules:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, key, fake)
        return original

    return patch
