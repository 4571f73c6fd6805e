"""spanforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload compiled-witness --seed 1 --seconds 25 --trace 0

Run from the root of a spanforge checkout; the program is imported from its
`src/` directory.  With `--trace 0` the run repeats passes of the workload
for `--seconds` seconds and reports the end-to-end metrics; with
`--trace 1` it does a fixed number of passes untraced, then the same work
traced, and reports the per-layer metrics.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fixed before numpy is imported: one BLAS thread, one spanforge worker.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SPANFORGE_THREADS": "1",
}
SETUP_REPEATS = 3
END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description="spanforge benchmark (one workload, one run)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    args.seed %= 2**64  # numpy seeds must be non-negative; a negative seed wraps
    return args


def import_program() -> None:
    """Pin threads, then import numpy and spanforge from this checkout."""
    src = ROOT / "src"
    if not (src / "spanforge" / "__init__.py").is_file():
        raise FileNotFoundError(f"no spanforge sources under {src}; run from a spanforge checkout")
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import spanforge.cli  # noqa: F401  (pulls in every layer)

    if not Path(spanforge.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"spanforge was imported from {spanforge.__file__}, not from {src}")


IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, spanforge.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import numpy and every spanforge layer, the median over
    fresh interpreters (an import happens once per process, so one sample
    per run would be at the mercy of a single hiccup)."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


class Checker:
    """Counts operations attempted and failed; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(failures[:2])


def run_passes(workload, state, checker, *, seconds=None, passes=None, first=0, tracer=None):
    """Closed loop over whole passes, numbered from `first`, until `passes`
    have run or `seconds` have elapsed (and at least the workload's
    minimum).  Checks run between operations, outside the timed part.
    Returns [(kind, latency_s, queries, pass)] and the wall time."""
    from workloads import paused

    recs = []
    start = time.perf_counter()
    p = first
    while True:
        if passes is not None and p - first >= passes:
            break
        if seconds is not None and p - first >= workload.min_passes and time.perf_counter() - start >= seconds:
            break
        with tracer.span("bench.pass") if tracer is not None else contextlib.nullcontext():
            for op in workload.ops(state, p):
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:  # a failing operation is counted, not fatal
                    checker.record([f"{op.kind}: {type(exc).__name__}: {exc}"])
                    continue
                dt = time.perf_counter() - t0
                recs.append((op.kind, dt, op.queries, p))
                with paused(tracer):
                    try:
                        checker.record(op.check(out))
                    except Exception as exc:
                        checker.record([f"{op.kind} check: {type(exc).__name__}: {exc}"])
        p += 1
    return recs, time.perf_counter() - start


def finish_checks(workload, state, checker, tracer=None):
    from workloads import paused

    with paused(tracer):
        try:
            for failures in workload.finish(state):
                checker.record(failures)
        except Exception as exc:
            checker.record([f"pooled checks: {type(exc).__name__}: {exc}"])


def percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def sustained_rate(recs) -> float:
    """Operations per busy second that nine passes in ten reach or beat:
    pass size over the 90th percentile of pass busy time.  Every pass has the
    same mix.  On a shared machine whose speed switches between a fast and a
    slow state, this lands in the slow state unless nearly all of the run is
    fast, so it varies less from run to run than a mean or a median."""
    per_pass: dict[int, list] = {}
    for rec in recs:
        per_pass.setdefault(rec[3], []).append(rec[1])
    size = statistics.median(len(lat) for lat in per_pass.values())
    return size / percentile([sum(lat) for lat in per_pass.values()], 90)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(name, value, unit):
    print(f"metric {name} = {value!r} {unit}")


def run_untraced(workload, seed, seconds, checker):
    import_s = import_seconds()
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    print(f"setup: import {import_s:.4f} s, repeats {', '.join(f'{s:.4f}' for s in setups)} s")
    recs, wall = run_passes(workload, state, checker, seconds=seconds)
    finish_checks(workload, state, checker)
    lat_ms = [r[1] * 1e3 for r in recs]
    busy = sum(r[1] for r in recs)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": sustained_rate(recs),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"loop: {len(recs)} operations in {wall:.3f} s wall, {busy:.3f} s busy; "
          f"{sum(1 for v in lat_ms if v > metrics['op_p90_ms'])} samples above p90")
    for kind in sorted({r[0] for r in recs}):
        sub = [r[1] * 1e3 for r in recs if r[0] == kind]
        print(f"  op {kind}: n={len(sub)} p25={percentile(sub, 25):.3f} p50={statistics.median(sub):.3f} ms")
    for name, (value, unit) in workload.named(state, recs).items():
        emit(name, value, unit)
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def run_traced(workload, seed, checker):
    """Untraced and traced copies of the same fixed work, pass by pass in
    alternation, so drift in machine speed hits both sides alike."""
    import layers
    from tracing import Tracer

    state = workload.setup(seed)
    tracer = Tracer()
    tracer.install(layers.HOOKS)
    try:
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            traced_state = workload.setup(seed, tracer)
        setup_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    recs, untraced_wall, traced_wall = [], 0.0, 0.0
    for p in range(workload.trace_passes):
        untraced_wall += run_passes(workload, state, checker, passes=1, first=p)[1]
        tracer.install(layers.HOOKS)
        try:
            pass_recs, wall = run_passes(workload, traced_state, checker, passes=1, first=p, tracer=tracer)
        finally:
            tracer.uninstall()
        recs += pass_recs
        traced_wall += wall
    finish_checks(workload, state, checker)
    finish_checks(workload, traced_state, checker)
    for err in tracer.hook_errors[:5]:
        print(f"warning: trace hook failed: {err}")
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    print(f"trace: {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"trace: untraced passes {untraced_wall:.4f} s, traced passes {traced_wall:.4f} s, "
          f"traced setup {setup_wall:.4f} s")
    values = layers.per_layer_metrics(
        workload, traced_state, tracer, recs,
        wall=setup_wall + traced_wall, overhead=(traced_wall - untraced_wall) / untraced_wall,
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}


def environment_lines(load_before, load_after):
    import numpy as np
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the record is informational
        blas_desc = f"unknown ({type(exc).__name__})"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    contended = max(load_before[0], load_after[0]) > nproc
    pinned = " ".join(f"{k}={os.environ.get(k)}" for k in PINNED_ENV)
    return [
        f"env: python {sys.version.split()[0]} numpy {np.__version__} scipy {scipy_version} blas {blas_desc}",
        f"env: nproc {nproc} {pinned}",
        f"env: loadavg before {load_before[0]:.2f} after {load_after[0]:.2f}"
        + (" CONTENDED (load above core count)" if contended else ""),
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    checker = Checker()
    load_before = os.getloadavg()
    try:
        workload = WORKLOADS[args.workload](scale="full", workdir=workdir)
        print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
        if args.trace:
            metrics = run_traced(workload, args.seed, checker)
        else:
            metrics = run_untraced(workload, args.seed, args.seconds, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in environment_lines(load_before, os.getloadavg()):
        print(line)
    emit("fail_frac", checker.failed / max(checker.attempted, 1), "ratio")
    for msg in checker.messages:
        print(f"FAIL: {msg}")
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
