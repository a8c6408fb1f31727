"""taskrank benchmark: one command, seeded inputs, checked outputs.

    python3 perfbench/run.py --workload build-heavy --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. For each workload it generates the
seed's inputs in one process (``gen.py``), measures them in another
(``worker.py``, so ``peak_rss_mb`` covers only the workload), checks the
outputs against ``pins.json`` and prints every metric with its unit and
sample count. The last line of standard output is the JSON result; the exit
code is 0 only when every output is correct. See ``README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    PINS_PATH, ROOT, WORKLOADS, check_outputs, load_json, sha256_file,
)

WORK = os.path.join(ROOT, ".bench_work")
WORKER_TIMEOUT_S = 170


def _git_sha() -> str | None:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        return out[1]
    return None


def _source_sha256() -> str:
    """Digest of the library sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "taskrank")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + bytes.fromhex(sha256_file(os.path.join(src, name))))
    return digest.hexdigest()


def _provenance(seed: int, manifest: dict, numpy_version: str) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "seed": seed,
        "pool_size": 1,
        **manifest,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, bench: dict) -> dict:
    """Generate, measure and check one workload; return the result record."""
    wl = WORKLOADS[workload]
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{trace}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{workload}-seed{seed}-trace{trace}")
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "gen.py"), "--seed", str(seed),
                        "--docs", str(wl.docs), "--topics", str(wl.topics), "--out", inputs],
                       check=True, timeout=WORKER_TIMEOUT_S)
        manifest = load_json(os.path.join(inputs, "manifest.json"))
        # One pool worker: a closed loop with one client. A fixed hash seed
        # keeps set and dict layouts, and so their costs, alike across runs.
        env = dict(os.environ, TASKRANK_THREADS="1", PYTHONHASHSEED="0")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
                "--inputs", inputs, "--seconds", str(seconds), "--trace", str(trace),
                "--out", os.path.join(work, "result.json")]
        if trace:
            argv += ["--spans", stem + ".spans.jsonl"]
        subprocess.run(argv, check=True, env=env, timeout=WORKER_TIMEOUT_S)
        raw = load_json(os.path.join(work, "result.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = check_outputs(workload, seed, raw["observed"], load_json(PINS_PATH))
    section = "per_layer" if trace else "end_to_end"
    measured = raw[section]
    metrics, counts, notes = {}, {}, dict(raw.get("notes", {}))
    for spec in bench[section]:
        name = spec["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": spec["unit"]}
            counts[name] = measured[name]["n"]
        elif section == "end_to_end":
            problems.append(f"end-to-end metric {name} was not measured")
        else:
            notes.setdefault(name, "unmeasured")
    return {
        "workload": workload,
        "correct": not problems,
        "problems": problems,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "counts": counts,
        "notes": notes,
        "observed": raw["observed"],
        "provenance": _provenance(seed, manifest, raw["numpy"]),
        "cycles": raw["cycles"],
    }


def _print_report(record: dict) -> None:
    print(f"== {record['workload']}: {record['cycles']} cycles, "
          f"{record['attempted']} ops attempted, {record['failed']} failed")
    for name, metric in record["metrics"].items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']:<12} "
              f"n={record['counts'][name]}")
    for name, note in sorted(record["notes"].items()):
        print(f"  note: {name}: {note}")
    for problem in record["problems"]:
        print(f"  INCORRECT: {problem}")
    print(f"  provenance: {json.dumps(record['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "taskrank", "__init__.py")):
        print(f"error: no taskrank source tree under {ROOT}/src", file=sys.stderr)
        return 2
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace, bench)
        _print_report(record)
        with open(os.path.join(WORK, "results", f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
