"""The interface between taskrank and the benchmark in ``perfbench/``.

Each workload's measured process runs on a tiny generated input, traced and
untraced, and must exit 0 with a result that strict JSON accepts: every
end-to-end metric that ``BENCHMARK.json`` declares present and finite, and
one run file digest across all cycles. Traced, the result must also hold
every per-layer metric that ``BENCHMARK.json`` declares: the tracer wraps
library functions by name, so a renamed or merged function would otherwise
drop its whole layer from the result without an error.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in DECLARED["end_to_end"]]
PER_LAYER = [m["name"] for m in DECLARED["per_layer"]]


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in the result")


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_inputs")
    subprocess.run([sys.executable, str(PERFBENCH / "gen.py"), "--seed", "1", "--docs", "60",
                    "--topics", "12", "--out", str(out)],
                   check=True, capture_output=True, timeout=120)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["build-heavy", "search-heavy", "sweep-rebuild"])
def test_worker_result_is_strict_json_with_every_end_to_end_metric(
        tiny_inputs, tmp_path, workload, trace):
    result_path = tmp_path / "result.json"
    env = {**os.environ, "TASKRANK_THREADS": "1", "PYTHONHASHSEED": "0"}
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
         "--inputs", str(tiny_inputs), "--seconds", "0.1", "--trace", str(trace),
         "--out", str(result_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(result_path.read_text(encoding="utf-8"),
                        parse_constant=_reject_constant)
    for name in END_TO_END:
        value = result["end_to_end"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
    assert result["failed"] == 0
    assert len(set(result["observed"]["run_sha256"])) == 1
    if trace:
        assert [name for name in PER_LAYER if name not in result["per_layer"]] == []
