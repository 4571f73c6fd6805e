"""Self-test of the benchmark at tiny sizes (about a minute):

    python3 perfbench/selftest.py

1. Every oracle flags a deliberately wrong value passed to it, and passes
   the matching right one.  The program is never altered for this.
2. The tracer wraps the names other modules bound at import time, and
   uninstalling restores every original.
3. Every workload, at tiny sizes, untraced and traced, is correct and emits
   exactly the metrics BENCHMARK.json names, each with its unit.
4. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_oracles() -> None:
    import oracles as o

    cases = [
        ("compiled decision", o.decision_matches(1, 1, 1), o.decision_matches(1, 0)),
        ("generated label", o.decision_matches(0, 0, 0), o.decision_matches(1, 1, 0)),
        ("optimum within lift", o.optimum_within_lift(1.0, 1.0), o.optimum_within_lift(2.0, 1.0)),
        ("optimum is finite", o.optimum_within_lift(0.5, 1.0), o.optimum_within_lift(float("nan"), 1.0)),
        ("rank fraction correct", o.rank_fraction_correct(1.0), o.rank_fraction_correct(0.99)),
        ("KS small sample", o.ks_small_sample(0.1, 200), o.ks_small_sample(0.5, 200)),
        ("KS limit", o.ks_limit(0.01), o.ks_limit(0.06)),
        ("c(A) exceedance", o.exceedance(70, 1000, 1 / 12), o.exceedance(100, 1000, 1 / 12)),
        ("ratio at least 1", o.min_ratio(1.5), o.min_ratio(0.99)),
        ("Wishart trace", o.trace_estimate(0.751, 0.01, 0.75), o.trace_estimate(0.9, 0.01, 0.75)),
        ("exit code", o.exit_ok(0, "x"), o.exit_ok(1, "x")),
        ("byte identity", o.same_bytes(b"a", b"a", "x"), o.same_bytes(b"a", b"b", "x")),
        ("lowerbound rows", o.lowerbound_rows("program,instance,within_bound\np,i,1\n"),
         o.lowerbound_rows("program,instance,within_bound\np,i,1\np,j,0\n")),
    ]
    for name, right, wrong in cases:
        expect(right == [] and len(wrong) > 0, f"oracle {name}: passes the right value, flags the wrong one")


def check_tracer() -> None:
    import spanforge.highlevel as highlevel
    import spanforge.linalg as linalg
    import spanforge.lowlevel as lowlevel
    from tracing import Tracer

    before = (lowlevel.min_norm_solve, highlevel.svd, linalg.svd, lowlevel.LowLevelProgram.__dict__["witness"])
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = all(hasattr(f, "__wrapped__") for f in (lowlevel.min_norm_solve, highlevel.svd, linalg.svd))
        expect(wrapped, "tracer wraps names bound by `from .linalg import ...`")
        expect(highlevel.svd is linalg.svd, "one wrapper per function, shared by every binding")
    finally:
        tracer.uninstall()
    after = (lowlevel.min_norm_solve, highlevel.svd, linalg.svd, lowlevel.LowLevelProgram.__dict__["witness"])
    expect(all(a is b for a, b in zip(before, after)), "uninstall restores every original")


def check_workloads(spec: dict) -> None:
    from workloads import WORKLOADS

    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(set(WORKLOADS) == {w["name"] for w in spec["workloads"]}, "BENCHMARK.json lists every workload")
    for name, cls in WORKLOADS.items():
        for trace, wanted in ((0, e2e), (1, per_layer)):
            workdir = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=run.HERE / "_work")
            checker = run.Checker()
            try:
                workload = cls(scale="tiny", workdir=workdir)
                with contextlib.redirect_stdout(io.StringIO()):
                    if trace:
                        metrics = run.run_traced(workload, 7, checker)
                    else:
                        metrics = run.run_untraced(workload, 7, 0.5, checker)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            units = {k: v["unit"] for k, v in metrics.items()}
            expect(units == wanted, f"{name} trace={trace}: every metric emitted with its unit")
            numbers = all(isinstance(v["value"], (int, float)) for v in metrics.values())
            expect(numbers, f"{name} trace={trace}: every value is a number")
            expect(checker.failed == 0 and checker.attempted > 0,
                   f"{name} trace={trace}: {checker.attempted} checks, {checker.failed} failed {checker.messages[:2]}")


def check_bare_directory() -> None:
    work = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.HERE / "_work"))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", work / "BENCHMARK.json")
        shutil.copytree(run.HERE, work / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "spectral", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=work, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               f"bare directory: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    run.import_program()
    (run.HERE / "_work").mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_oracles()
    check_tracer()
    check_workloads(spec)
    check_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
