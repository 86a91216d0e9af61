"""Every demo script, and the README's library quickstart, runs to
completion against the package in src/, with every warning raised as an
error (``python -W error``)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_python(args, cwd):
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quickstart_runs(tmp_path):
    readme = (REPO / "README.md").read_text()
    code = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    result = run_python(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "pfn at 5% fp: 0.5625\nprotocol accepts: True\n"
