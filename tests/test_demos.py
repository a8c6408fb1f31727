"""Run every demo script and compare its standard output with the golden copy
under ``fixtures/demos``; the demos are executable documentation, and each is
deterministic."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "fixtures" / "demos"


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    # The demos import taskrank from this checkout's src/, installed or not.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr.decode(errors="replace")
    assert result.stdout == (GOLDEN / f"{script.stem}.out").read_bytes()


def test_every_demo_has_a_golden_output():
    assert sorted(p.stem for p in GOLDEN.glob("*.out")) == [p.stem for p in DEMOS]
