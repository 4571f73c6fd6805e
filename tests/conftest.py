import os
from pathlib import Path

# Pin BLAS thread pools before any test module imports numpy:
# oversubscribed BLAS threads slowed small factorizations by up to 100x when
# the suite shared the machine, which the acceptance time gates cannot absorb.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Python subprocesses that tests start import spanforge from this checkout.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

import pytest

CRITERION_LINES = []


@pytest.fixture
def criterion_report():
    """One pass/fail line per acceptance criterion, echoed both into the
    test's captured output and into the terminal summary."""

    def _report(num: int, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        line = f"criterion {num:02d}: {status}" + (f" - {detail}" if detail else "")
        CRITERION_LINES.append(line)
        print(line)
        assert ok, line

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
