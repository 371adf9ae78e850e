"""One workload in one fresh process; started by run.py.

    worker.py setup <workload> <work-dir>
    worker.py run <workload> <seed> <rounds> <trace 0|1> <work-dir> <result.json>

Both read the inputs that run.py generated into the work directory.
``setup`` imports cdcalc and builds the workload's inputs, then exits; its
wall time from process start to exit is one ``setup_s`` sample.  ``run``
builds the inputs, runs one untimed warm-up item, then the timed list
``rounds`` times.  A traced run also traces the set-up, under the item id
"setup"; the warm-up item is left out of the per-layer totals.  Peak memory
is read right after the timed list, before the checks import sympy.  The
checks then run untimed and untraced, and the result (item times,
failures, output digest, trace) goes to result.json.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from inputs import read_spec  # noqa: E402


def paths_for(work: str) -> dict:
    return {"demos": ROOT / "demos" / "data", "work": Path(work)}


def build(name: str, work: str):
    import cdcalc

    source = Path(cdcalc.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"cdcalc imported from {source}, not from this checkout")
    return workloads.WORKLOADS[name].build(read_spec(Path(work)), paths_for(work))


def timed_list(workload, built, rounds: int, tracer):
    """Run every item ``rounds`` times; return (per-round outputs, timings)."""
    if tracer is not None:
        tracer.item = "warmup"
    workload.run(built["warmup"])
    gc.collect()
    rounds_out, wall, cpu = [], [], []
    start = time.perf_counter()
    for _ in range(rounds):
        outputs = []
        for item in built["items"]:
            if tracer is not None:
                tracer.item = item["id"]
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = workload.run(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
            c1, w1 = time.process_time(), time.perf_counter()
            outputs.append(out)
            wall.append(w1 - w0)
            cpu.append(c1 - c0)
        rounds_out.append(outputs)
    total = time.perf_counter() - start
    return rounds_out, {"wall_s": wall, "cpu_s": cpu, "total_wall_s": total}


def check(name: str, workload, built, rounds_out, seed: int) -> dict:
    first = rounds_out[0]
    ok = [(item, out) for item, out in zip(built["items"], first)
          if not isinstance(out, Exception)]
    errors = [f"{item['id']}: {type(out).__name__}: {str(out)[:120]}"
              for item, out in zip(built["items"], first) if isinstance(out, Exception)]
    ok_built = {**built, "items": [item for item, _ in ok]}
    ok_outputs = [out for _, out in ok]
    try:
        failures = workload.check(ok_built, ok_outputs, workloads.check_rng(seed))
    except Exception as exc:  # an output the checks cannot read is a wrong answer
        failures = [f"checks raised {type(exc).__name__}: {exc}"]
    digest = workload.digest(ok_built, ok_outputs)
    for later in rounds_out[1:]:
        same_failures = [type(o).__name__ for o in later if isinstance(o, Exception)] == \
            [type(o).__name__ for o in first if isinstance(o, Exception)]
        kept = [o for o in later if not isinstance(o, Exception)]
        if not same_failures or workload.digest(ok_built, kept) != digest:
            failures.append("a later round gave different outputs")
    failed = sum(1 for outs in rounds_out for o in outs if isinstance(o, Exception))
    return {"failed": failed, "errors": errors, "failures": failures, "digest": digest}


def main(argv) -> int:
    mode, name = argv[0], argv[1]
    if mode == "setup":
        build(name, argv[2])
        return 0
    seed, rounds, trace = int(argv[2]), int(argv[3]), argv[4] == "1"
    work, result_path = argv[5], argv[6]
    workload = workloads.WORKLOADS[name]
    tracer = None
    if trace:  # set-up is traced too: it parses inputs and builds operators
        from tracer import Tracer  # not at the top: set-up samples would load it
        tracer = Tracer().install()
        tracer.item = "setup"
    built = build(name, work)
    rounds_out, timing = timed_list(workload, built, rounds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
    result = {"workload": name, "seed": seed, "rounds": rounds, "trace": trace,
              "items": [item["id"] for item in built["items"]],
              "attempted": len(built["items"]) * rounds,
              "peak_rss_mb": peak_rss_mb, **timing,
              **check(name, workload, built, rounds_out, seed)}
    if tracer is not None:
        from tracer import layer_metrics
        totals = tracer.totals()
        layers = layer_metrics(totals)
        result["layers"] = {k: v for k, (v, _) in layers.items()}
        result["layer_units"] = {k: u for k, (_, u) in layers.items()}
        result["spans"] = totals
        result["spans_per_item"] = tracer.per_item()
    Path(result_path).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
