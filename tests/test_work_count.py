import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _count(hash_seed: str) -> str:
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "work_count.py"), "--workload", "exactness"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_the_exactness_count_repeats_across_processes_and_hash_seeds():
    # the script counts under hash seed 0 whatever it is started with, so two
    # processes started under two other seeds print the same table
    first, second = _count("1"), _count("2")
    assert first == second
    version, head, *rows = first.splitlines()
    assert version.startswith(f"python {sys.version.split()[0]};")
    match = re.fullmatch(
        r"exactness seed 1: (\d+) bytecodes, (\d+) calls, table sha256 [0-9a-f]{64}", head)
    assert match
    for column in (0, 1):
        assert int(match[column + 1]) == sum(int(row.split()[column]) for row in rows) > 0
    assert any(row.endswith("  _Tower.lows") for row in rows)
