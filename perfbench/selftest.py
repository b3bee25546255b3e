#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Checks that
  1. perfbench/predictions.json names every per-layer metric of
     BENCHMARK.json exactly once;
  2. for each workload, two traced runs with one seed report the same value
     for every counter (metrics with unit count or B), and report a self
     time above zero for every layer except the ones predictions.json lists
     as idle on that workload, whose self time is exactly zero;
  3. the benchmark exits nonzero without printing a result in a directory
     that holds only BENCHMARK.json and perfbench/.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.instrument import LAYERS  # noqa: E402
from perfbench.workloads import ORDER  # noqa: E402

SEED = 7
SECONDS = 2.0


def run(root: str, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)


def check_predictions(spec: dict, rows: list) -> list:
    named = [m for row in rows for m in row["per_layer"]]
    declared = [m["name"] for m in spec["per_layer"]]
    problems = [f"predictions.json names {m} twice"
                for m in set(named) if named.count(m) > 1]
    problems += [f"no prediction for {m}" for m in declared if m not in named]
    problems += [f"prediction for undeclared {m}" for m in named
                 if m not in declared]
    return problems


def check_counters(spec: dict, idle: dict) -> list:
    exact = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "B")]
    problems = []
    for workload in ORDER:
        results = []
        for _ in range(2):
            out = run(ROOT, workload, SEED, SECONDS, 1)
            if out.returncode != 0:
                problems.append(f"{workload}: exit {out.returncode}: "
                                f"{out.stderr.strip()[-300:]}")
                break
            results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        if len(results) < 2:
            continue
        first, second = (r["metrics"] for r in results)
        for name in exact:
            if first[name]["value"] != second[name]["value"]:
                problems.append(f"{workload}: {name} {first[name]['value']} "
                                f"!= {second[name]['value']}")
        for layer in LAYERS:
            own = first[f"{layer}.self_s"]["value"]
            if layer in idle[workload] and own != 0.0:
                problems.append(f"{workload}: idle {layer} took {own} s")
            elif layer not in idle[workload] and not own > 0.0:
                problems.append(f"{workload}: no self time in {layer}")
        print(f"{workload}: {len(exact)} counters compared, "
              f"airy.points {first['airy.points']['value']}, "
              f"core.fourier.calls {first['core.fourier.calls']['value']}, "
              f"oscillatory.calls {first['oscillatory.calls']['value']}, "
              f"cli.emit_csv.bytes {first['cli.emit_csv.bytes']['value']}")
    return problems


def check_bare_directory() -> list:
    """Without the package sources the benchmark must refuse to report."""
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    bare = tempfile.mkdtemp(dir=work)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(
                            ".work", ".spans", "__pycache__"))
        out = run(bare, ORDER[0], SEED, 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(work)
        except OSError:
            pass
    if out.returncode == 0 or out.stdout.strip():
        return [f"bare directory: exit {out.returncode}, "
                f"stdout {out.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)
    problems = check_predictions(spec, predictions["predictions"])
    problems += check_bare_directory()
    problems += check_counters(spec, predictions["idle_layers"])
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
