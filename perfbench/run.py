#!/usr/bin/env python3
"""airylab benchmark: one closed-loop client running seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload airy_build --seed 1 --seconds 20 \
        --trace 0

Workloads: airy_build, spectral_family, quadrature, cli_artifacts (see
perfbench/workloads.py for why each exists).  A single client issues the
next operation only after the previous one has finished, for --seconds
seconds, and checks every output against an oracle.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1 runs
a fixed, seed-determined list of operations, each untraced and then
traced, and reports per-layer self times, exact counters, the tracing
overhead, and the reference points of the ROADMAP baseline.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
SPANS = os.path.join(ROOT, "perfbench", ".spans")

COLD_STARTS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Nominal seconds per operation on a 2-core x86 box; the traced run takes
# round(seconds / 2 / nominal) operations, each run untraced and traced, so
# its counters depend only on the seed and --seconds
NOMINAL_OP_S = {"airy_build": 2.0, "spectral_family": 0.1,
                "quadrature": 0.2, "cli_artifacts": 0.15}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def pin_threads() -> int:
    """Cap BLAS/OpenMP pools at nproc before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        raw = os.environ.get(var, "")
        current = int(raw) if raw.isdigit() and int(raw) > 0 else nproc
        os.environ[var] = str(min(current, nproc))
    return nproc


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    indices = os.listdir(cache_dir) if os.path.isdir(cache_dir) else []
    for index in sorted(indices):
        try:
            with open(os.path.join(cache_dir, index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, index, "type")) as fh:
                kind = fh.read().strip().lower()
            with open(os.path.join(cache_dir, index, "size")) as fh:
                caches[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    return {"nproc": nproc, "cpu": cpu, "caches": caches,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def cold_start_s(args: list) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable] + args, cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - start


def setup_seconds() -> float:
    """Median cold start of `python -m airylab.cli` up to its import, after
    one unmeasured start that compiles the bytecode."""
    args = ["-m", "airylab.cli", "--help"]
    cold_start_s(args)
    return statistics.median(cold_start_s(args) for _ in range(COLD_STARTS))


def warm_up() -> None:
    """Touch every layer once so first-call costs stay out of the timing."""
    import numpy as np
    from airylab import airy, core, oscillatory

    airy.ai_values(np.linspace(-20.0, 10.0, 64))
    grid = core.make_grid(2048, -64.0, 64.0)
    field = core.WaveField(grid, core.Rep.POSITION, np.ones(2048))
    core.fourier(field, core.Rep.MOMENTUM)
    oscillatory.cubic_phase_integral(1.0, 0.0, 0.0, 0.0)


class Attempt(NamedTuple):
    kind: str
    seconds: float
    outcome: object  # workloads.Outcome
    warnings: int    # IntegrationWarnings caught during the attempt


def attempt(op, capture, tracer=None, op_id=0) -> Attempt:
    """Run one operation, time it, then check it outside the timed region."""
    from scipy.integrate import IntegrationWarning

    capture.clear()
    error = result = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            result = op.run() if tracer is None else tracer.op(op_id, op.run)
        except Exception as exc:  # a raising attempt is a failed attempt
            error = exc
        elapsed = time.perf_counter() - start
    outcome = op.check(result, error, capture)
    op.cleanup()
    capture.clear()
    n_warn = sum(issubclass(w.category, IntegrationWarning) for w in caught)
    return Attempt(op.kind, elapsed, outcome, n_warn)


def tail_index(n: int) -> int | None:
    """Index (ascending) of the highest percentile with >= 10 samples beyond,
    or None below 21 samples, where no percentile above the median has ten
    samples beyond it and the tail is reported as the median."""
    return n - 11 if n >= 21 else None


def end_to_end(attempts: list, setup_s: float) -> tuple[dict, list]:
    wall = sum(a.seconds for a in attempts)
    passed = [a for a in attempts if a.outcome.passed]
    # a failed attempt ranks slower than any completed one: it carries the
    # wall time of the whole run
    ranked = sorted(a.seconds if a.outcome.passed else wall
                    for a in attempts)
    n = len(ranked)
    median = statistics.median(ranked)
    tail = tail_index(n)
    margins = [m for a in passed for m in a.outcome.margins]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(passed) / wall,
        "op_s.p50": median,
        "op_s.tail": median if tail is None else ranked[tail],
        "pass_frac": len(passed) / n,
        "tol_margin_log10": min(margins) if margins else 0.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"attempts {n}, passed {len(passed)}, failed {n - len(passed)}, "
        f"fail_frac {(n - len(passed)) / n:.4f}, wall {wall:.3f} s",
        f"op_s.tail is the median: {n} samples leave no percentile above it "
        "with ten beyond" if tail is None else
        f"op_s.tail is the p{100.0 * (tail + 1) / n:.1f} order statistic: "
        f"{n} samples, {n - 1 - tail} beyond it",
        f"tol_margin_log10 over {len(margins)} checked tolerances",
    ]
    tally: dict = {}
    for a in attempts:
        done, seen = tally.get(a.kind, (0, 0))
        tally[a.kind] = (done + a.outcome.passed, seen + 1)
    notes.append("passed/attempted by kind: " + ", ".join(
        f"{k} {p}/{t}" for k, (p, t) in sorted(tally.items())))
    by_kind: dict = {}
    for a in attempts:
        by_kind.setdefault(a.kind, []).append(a.seconds)
    notes.append("median seconds by kind: " + ", ".join(
        f"{k} {statistics.median(v):.4g}" for k, v in sorted(by_kind.items())))
    worst: dict = {}
    for a in passed:
        if a.outcome.margins:
            worst[a.kind] = min(worst.get(a.kind, math.inf),
                                min(a.outcome.margins))
    notes.append("lowest margin by kind: " + ", ".join(
        f"{k} {v:.3g}"
        for k, v in sorted(worst.items(), key=lambda kv: kv[1])))
    return metrics, notes


def run_timed(workload, seed, seconds, capture, work) -> list:
    from perfbench import workloads

    stream = workloads.operations(workload, seed, work)
    attempts = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        attempts.append(attempt(next(stream), capture))
    return attempts


def trace_ops(workload: str, seconds: float) -> int:
    return max(4, round(seconds / 2.0 / NOMINAL_OP_S[workload]))


def run_traced(workload, seed, seconds, capture, work,
               declared) -> tuple[dict, list, list]:
    """Run each operation untraced and then traced, back to back, so that
    drift in machine speed cancels out of the overhead."""
    from perfbench import workloads
    from perfbench.instrument import Tracer

    count = trace_ops(workload, seconds)
    plain_ops = workloads.operations(workload, seed, work)
    traced_ops = workloads.operations(workload, seed, work)
    tracer = Tracer()
    plain, traced = [], []
    for i in range(count):
        plain.append(attempt(next(plain_ops), capture))
        op = next(traced_ops)
        tracer.install()
        try:
            traced.append(attempt(op, capture, tracer, i))
        finally:
            tracer.restore()
    metrics = layer_metrics(tracer, traced, declared)
    untraced_s = sum(a.seconds for a in plain)
    traced_s = sum(a.seconds for a in traced)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    path = write_spans(tracer, f"{workload}-seed{seed}.jsonl")
    notes = [f"traced {count} operations: untraced {untraced_s:.3f} s, "
             f"traced {traced_s:.3f} s, {len(tracer.spans)} spans in {path}",
             f"layer self times cover {metrics['trace.attributed_frac']:.6f} "
             f"of the traced operations' wall time; tracing overhead "
             f"{metrics['trace.overhead_frac']:+.4f}"]
    return metrics, plain + traced, notes


def write_spans(tracer, name: str) -> str:
    """Write the spans as JSON lines, times in seconds from the first span."""
    os.makedirs(SPANS, exist_ok=True)
    path = os.path.join(SPANS, name)
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        own_times = tracer.self_times()
        for i, (span, own) in enumerate(zip(tracer.spans, own_times)):
            fh.write(json.dumps({
                "id": i, "name": span[0], "layer": span[1],
                "start": span[2] - origin, "end": span[3] - origin,
                "self": own, "parent": span[4], "op": span[5]}) + "\n")
    return os.path.relpath(path, ROOT)


def layer_metrics(tracer, traced: list, declared) -> dict:
    """Per-layer metrics of the traced operations; `declared` names the
    per-layer metrics of BENCHMARK.json, whose experiments.<name>.calls
    entries choose the experiments counted."""
    from perfbench.instrument import LAYERS

    self_s = tracer.self_times()
    by_layer = dict.fromkeys(LAYERS + ("bench",), 0.0)
    by_name: dict = {}
    calls: dict = {}
    for span, own in zip(tracer.spans, self_s):
        name, layer = span[0], span[1]
        by_layer[layer] += own
        by_name[name] = by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
    counts = tracer.counts
    layer_calls = {layer: sum(c for n, c in calls.items()
                              if n.startswith(layer + "."))
                   for layer in LAYERS}

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    cubic = "oscillatory.cubic_phase_integral"
    osc_calls = calls.get(cubic, 0)
    osc_failed = counts[f"{cubic}.raised"]
    window_s = sum(v for n, v in by_name.items()
                   if n.startswith("core.window."))
    op_wall = sum(s[3] - s[2] for s in tracer.spans if s[0] == tracer.ROOT)
    m = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    m.update({
        "airy.calls": layer_calls["airy"],
        "airy.points": counts["airy.points"],
        "airy.points_zneg": counts["airy.points_zneg"],
        "airy.points_zpos": counts["airy.points_zpos"],
        "airy.us_per_point": ratio(by_layer["airy"], counts["airy.points"],
                                   1e6),
        "core.fourier.calls": calls.get("core.fourier", 0),
        "core.fourier.points": counts["core.fourier.points"],
        "core.fourier.self_s": by_name.get("core.fourier", 0.0),
        "core.fourier.ns_per_point": ratio(by_name.get("core.fourier", 0.0),
                                           counts["core.fourier.points"], 1e9),
        "core.window.self_s": window_s,
        "states.position_build.self_s":
            by_name.get("states.position_build", 0.0),
        "states.momentum_build.self_s":
            by_name.get("states.momentum_build", 0.0),
        "states.fit_band.calls": calls.get("states.fit_band", 0),
        "states.fit_band.self_s": by_name.get("states.fit_band", 0.0),
        "operators.calls": layer_calls["operators"],
        "oscillatory.calls": osc_calls,
        "oscillatory.failed": osc_failed,
        "oscillatory.useful_ratio": ratio(osc_calls - osc_failed, osc_calls),
        "oscillatory.warnings": sum(a.warnings for a in traced),
        "oscillatory.ms_per_call": ratio(by_name.get(cubic, 0.0), osc_calls,
                                         1e3),
        "cli.run_config.self_s": by_name.get("cli.run_config", 0.0),
        "cli.emit_csv.bytes": counts["cli.emit_csv.bytes"],
        "cli.emit_csv.self_s": by_name.get("cli.emit_csv", 0.0),
        "cli.emit_svg_plot.bytes": counts["cli.emit_svg_plot.bytes"],
        "cli.emit_svg_plot.self_s": by_name.get("cli.emit_svg_plot", 0.0),
        "trace.spans": len(tracer.spans),
        "trace.attributed_frac": ratio(sum(by_layer[k] for k in LAYERS),
                                       op_wall),
    })
    for name in declared:
        if name.startswith("experiments.") and name.endswith(".calls"):
            m[name] = calls.get(name[:-len(".calls")], 0)
    return m


def best_of(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def reference_points() -> dict:
    """The per-layer reference timings quoted in the ROADMAP baseline."""
    import numpy as np
    from airylab import airy, core, states
    from perfbench import workloads

    ref = {}
    for branch, z in (("series", np.linspace(-8.0, 6.0, 20000)),
                      ("zneg", np.linspace(-200.0, -8.001, 2000)),
                      ("zpos", np.linspace(6.001, 50.0, 2000))):
        ref[f"ref.ai_values.{branch}_us_per_point"] = \
            1e6 * best_of(lambda: airy.ai_values(z), 3) / z.size
    for exp in range(11, 17):
        n = 2 ** exp
        grid = core.make_grid(n, -64.0, 64.0)
        field = core.WaveField(grid, core.Rep.POSITION,
                               np.exp(-grid.x ** 2).astype(complex))
        ref[f"ref.fourier.n{n}_ms"] = 1e3 * best_of(
            lambda: core.fourier(field, core.Rep.MOMENTUM), 20)
    grid = core.make_grid(2 ** 16, -1024.0, 1024.0)
    c = states.CoherentParams(1.0)
    ref["ref.position_build.n65536_s"] = best_of(
        lambda: states.perelomov_state(c, core.Rep.POSITION, grid), 1)
    ref["ref.momentum_build.n65536_ms"] = 1e3 * best_of(
        lambda: states.perelomov_state(c, core.Rep.MOMENTUM, grid), 5)
    ref["ref.import_s"] = statistics.median(
        cold_start_s(["-c", "import airylab"]) for _ in range(3))
    probe = subprocess.run([sys.executable, "-X", "importtime", "-c",
                            "import airylab"], cwd=ROOT, env=child_env(),
                           capture_output=True, text=True, check=True)
    found = re.search(r"\|\s*(\d+)\s*\|\s*scipy\.integrate\s*$", probe.stderr,
                      re.MULTILINE)
    ref["ref.import_scipy_integrate_s"] = \
        int(found.group(1)) * 1e-6 if found else 0.0
    calls = workloads.frontier_calls()
    converged = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for call in calls:
            try:
                converged += bool(getattr(call(), "passed", True))
            except Exception:  # a call that does not converge raises
                pass
    ref["ref.oscillatory.frontier_pass_frac"] = converged / len(calls)
    return ref


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "airylab", "__init__.py")):
        fail(f"no airylab sources under {SRC}; run from a repository checkout")
    if os.environ.get("AIRYLAB_WORKERS") is not None:
        fail("AIRYLAB_WORKERS must be unset: the benchmark measures one "
             "thread")
    if not args.seconds > 0:
        fail("--seconds must be positive")
    units = declared_units(args.trace)
    nproc = pin_threads()
    sys.path[:0] = [SRC, ROOT]
    from perfbench import instrument, workloads

    if args.workload not in workloads.ORDER:
        fail(f"unknown workload {args.workload!r}; known: {workloads.ORDER}")

    print(f"env {json.dumps(environment(nproc), sort_keys=True)}")
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    capture = instrument.Capture()
    try:
        capture.install()
        warm_up()
        if args.trace:
            metrics, attempts, notes = run_traced(
                args.workload, args.seed, args.seconds, capture, work, units)
        else:
            setup_s = setup_seconds()
            attempts = run_timed(args.workload, args.seed, args.seconds,
                                 capture, work)
            metrics, notes = end_to_end(attempts, setup_s)
    finally:
        capture.restore()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    if args.trace:
        metrics.update(reference_points())
    if set(metrics) != set(units):
        fail(f"metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(units))}")

    failures: dict = {}
    for a in attempts:
        if not a.outcome.passed:
            key = f"{a.kind}: {a.outcome.note}"
            failures[key] = failures.get(key, 0) + 1
    for line in notes:
        print(line)
    for key, n in sorted(failures.items()):
        print(f"failed x{n}  {key[:160]}")
    for name in sorted(metrics):
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    result = {
        "correct": not any(a.outcome.wrong for a in attempts),
        "attempted": len(attempts),
        "failed": sum(not a.outcome.passed for a in attempts),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
