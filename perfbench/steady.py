"""Steadiness check: two interleaved sets of ten runs on distinct seeds.

    python3 perfbench/steady.py

Runs every workload of BENCHMARK.json at its run_seconds.  For every seed
index the sets take turns, and within a set the workloads take turns, so
slow phases of a shared machine fall on all of them.  Set s uses seeds
1 + 10*s .. 10 + 10*s.  For each workload and end-to-end metric it prints
the median, the quartiles and the spread (q3 - q1) / median of every set,
and the drift of the second set's median from the first set's in the worse
direction, each against the metric's bound.  It also checks that the share
of failed operations is the same in every run.  The raw results go to
.perfbench/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = 10
SETS = 2


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: [[] for _ in range(SETS)] for w in names}
    for k in range(SEEDS):
        for s in range(SETS):
            order = names if (k + s) % 2 == 0 else names[::-1]
            for w in order:
                seed = 1 + s * SEEDS + k
                result = one_run(w, seed, bench["run_seconds"])
                runs[w][s].append({"seed": seed, **result})
                print(f"set {s} {w:9s} seed {seed:3d} " + " ".join(
                    f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
                    + f" correct={result['correct']} failed={result['failed']}"
                      f"/{result['attempted']}", flush=True)
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))

    ok = True
    for w in names:
        shares = {(r["failed"], r["attempted"]) for rs in runs[w] for r in rs}
        rates = {f / a for f, a in shares}
        correct = all(r["correct"] for rs in runs[w] for r in rs)
        print(f"\n{w}: correct={correct} failed/attempted={sorted(shares)}")
        ok &= correct and len(rates) == 1
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            sets = [summary([r["metrics"][name]["value"] for r in rs]) for rs in runs[w]]
            cells = []
            for s, st in enumerate(sets):
                flag = "" if st["spread"] <= bound / 3 else (
                    " >bound/3" if st["spread"] <= bound else " >BOUND")
                ok &= st["spread"] <= bound
                cells.append(f"set{s} median {st['median']:.4g} "
                             f"[{st['q1']:.4g}, {st['q3']:.4g}] spread "
                             f"{st['spread']:.3f}{flag}")
            for s in range(1, len(sets)):
                drift = sign * (sets[s]["median"] - sets[0]["median"]) / sets[0]["median"]
                back = -sign * (sets[s]["median"] - sets[0]["median"]) / sets[s]["median"]
                worst = max(drift, back)
                ok &= worst <= bound
                cells.append(f"drift {worst:+.3f}{' >BOUND' if worst > bound else ''}")
            print(f"  {name:12s} bound {bound:.2f}: " + "; ".join(cells))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
