"""Count the Python bytecodes one seeded round of each benchmark workload runs.

Bytecode counts do not drift with the machine's speed, as wall-clock times
do, so two trees can be compared by one run of each.  For each workload the
inputs of ``perfbench/inputs.py`` are generated for seed 1 into a temporary
directory and built by ``perfbench/worker.py``.  One call of the worker's
``timed_list`` (the warm-up item and one round) runs untraced, so that
process-wide caches are as full as in a timed round; then one more runs
under ``sys.settrace`` with ``f_trace_opcodes`` and the garbage collector
off, and each opcode event and each call (a frame entered or a generator
resumed) is counted under its code object's ``co_qualname``.  The hash seed
is 0, as in the benchmark: under any other ``PYTHONHASHSEED`` the script
starts itself again with 0.  It prints each workload's totals, the SHA-256
of its whole (qualname, bytecodes, calls) table and the table itself, by
bytecodes; nothing under ``perfbench/`` is written.  Work in C (big ints,
dict and set operations, ``sorted``) is not counted, counts hold for one
interpreter version, which the first line names, and a traced round takes
about ten times as long: a speed claim still needs timed pairs.  Run it
from the root of the tree to count (it imports that tree's ``src/cdcalc``):

    python3 tools/work_count.py [--workload exactness]
"""

import argparse
import gc
import hashlib
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("symbolic", "exactness", "cli")
SEED = 1


def count_round(name: str) -> dict:
    """{co_qualname: [bytecodes, calls]} over one traced round of ``name``, after one
    untraced."""
    import inputs
    import worker

    counts, calls = Counter(), Counter()

    def opcodes(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return opcodes

    def call(frame, event, arg):
        calls[frame.f_code] += 1
        frame.f_trace_opcodes, frame.f_trace_lines = True, False
        return opcodes

    with tempfile.TemporaryDirectory() as work:
        inputs.write_inputs(name, SEED, Path(work))
        workload, built = worker.workloads.WORKLOADS[name], worker.build(name, work)
        worker.timed_list(workload, built, 1, None)
        gc.collect()
        gc.disable()
        sys.settrace(call)
        try:
            worker.timed_list(workload, built, 1, None)
        finally:
            sys.settrace(None)
            gc.enable()
    table = {}
    for code in calls.keys() | counts.keys():
        row = table.setdefault(code.co_qualname, [0, 0])
        row[0] += counts[code]
        row[1] += calls[code]
    return table


def digest(table: dict) -> str:
    lines = "".join(f"{name} {ops} {calls}\n" for name, (ops, calls) in sorted(table.items()))
    return hashlib.sha256(lines.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="one workload (repeatable); default all three")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # leaves perfbench/ as it is
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(f"python {sys.version.split()[0]}; bytecodes and calls of Python code only")
    for name in args.workload or WORKLOADS:
        table = count_round(name)
        print(f"{name} seed {SEED}: {sum(ops for ops, _ in table.values())} bytecodes, "
              f"{sum(calls for _, calls in table.values())} calls, "
              f"table sha256 {digest(table)}")
        for qualname, (ops, calls) in sorted(table.items(), key=lambda item: (-item[1][0],
                                                                              item[0])):
            print(f"{ops:>12} {calls:>9}  {qualname}")
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
