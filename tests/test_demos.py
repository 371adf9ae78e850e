"""Every demo script, and the README's library tour, runs to completion from the repository root."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("exactness_and_cokernels.py", "involutivity.py", "kdv_operators.py",
         "kdv_zero_curvature.py", "pform_tables.py", "two_line_certificates.py")


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    result = _python(str(ROOT / "demos" / name))
    assert result.returncode == 0, result.stderr


def test_readme_library_tour_runs():
    # the tour imports with *, so a name it uses that the package stops
    # exporting fails here
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = re.search(r"^## Library tour\n+```python\n(.*?)^```", readme, re.M | re.S)
    assert tour is not None, "README has no library tour block"
    result = _python("-c", tour.group(1))
    assert result.returncode == 0, result.stderr
