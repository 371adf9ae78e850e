"""cdcalc benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload {symbolic,exactness,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The workload runs in a fresh
single-threaded interpreter with PYTHONHASHSEED fixed.  The inputs are
generated from the seed once, before anything is timed; ``setup_s`` is the
median of several more fresh interpreters that only import cdcalc, read the
inputs and build them.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` a separate traced run gives the
per-layer metrics.  Details (per-item times, CPU times, failures, spans) go to
``.perfbench/results/``.

The timed list is fixed by the seed; ``--seconds`` only sets how many
whole rounds of it a run makes (``--seconds / ROUND_SECONDS``, at least
one), so every run attempts the same operations and no run stops on a time
budget.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

ROUND_SECONDS = {"symbolic": 30, "exactness": 30, "cli": 0.65}
# Set-up samples taken before the workload process and as many after it:
# the machine's speed drifts over seconds, and one burst of samples would
# see one speed.
SETUP_SAMPLES_EACH_SIDE = 6
WORKER_TIMEOUT_S = 150


def child_env() -> dict:
    """Fixed hash seed, one thread, and bytecode cached under .perfbench/."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up would time compiling
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(ROOT / ".perfbench" / "pycache"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def worker(*args, timeout=WORKER_TIMEOUT_S) -> None:
    """Run worker.py and wait for it to exit, killing it after ``timeout`` s.

    A blocking wait returns as soon as the child exits; ``subprocess.run``
    with a timeout polls with sleeps of up to 50 ms instead, which would
    round every set-up sample to that step.
    """
    argv = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    with subprocess.Popen(argv, env=child_env(), stdout=subprocess.DEVNULL) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
    if code != 0:
        raise subprocess.CalledProcessError(code, argv)


def setup_seconds(workload: str, work: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES_EACH_SIDE):
        start = time.perf_counter()
        worker("setup", workload, work, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cdcalc" / "__init__.py").is_file() or \
            not (ROOT / "demos" / "data").is_dir():
        print(f"error: no cdcalc source tree under {ROOT}", file=sys.stderr)
        return 2
    import inputs

    out = ROOT / ".perfbench"
    work = out / "work" / f"{args.workload}-{args.seed}"
    inputs.write_inputs(args.workload, args.seed, work)
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    result_path = out / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.parent.mkdir(parents=True, exist_ok=True)

    try:
        if not args.trace:
            worker("setup", args.workload, work)  # untimed: fills the bytecode cache
            setups = setup_seconds(args.workload, work)
        worker("run", args.workload, args.seed, rounds, args.trace, work, result_path)
        if not args.trace:
            setups += setup_seconds(args.workload, work)
    except subprocess.CalledProcessError as exc:  # a timeout ends in SIGKILL
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(result_path.read_text())

    if args.trace:
        metrics = {name: {"value": value, "unit": result["layer_units"][name]}
                   for name, value in result["layers"].items()}
    else:
        wall = result["wall_s"]
        metrics = {
            "items_per_s": {"value": len(wall) / result["total_wall_s"], "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(wall) * 1000, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        result["setup_samples_s"] = setups
        result_path.write_text(json.dumps(result, indent=1, sort_keys=True))
    for line in result["errors"] + result["failures"]:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": not result["failures"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
