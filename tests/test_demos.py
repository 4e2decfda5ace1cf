"""Demos 01-05 run to completion as scripts, and README's "Library tour"
block runs as written.

Demo 06, a coded BLER sweep, is left out: it alone takes longer than the
other five together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_demo_set_is_complete():
    assert [d[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_tour_runs():
    tour = (ROOT / "README.md").read_text().split("## Library tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md (Library tour)", "exec"), {})
