"""scripts/calibrate.py still reproduces the frozen c(A) threshold."""

import importlib.util
from pathlib import Path

from spanforge.calibration import CALIBRATION_SEED, C_BOUNDED_DELTA

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("calibrate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_delta_reproduces_frozen_threshold(capsys):
    script = _load_script()
    assert script.CALIBRATION_SEED == CALIBRATION_SEED
    script.calibrate_delta()
    lines = capsys.readouterr().out.splitlines()
    assert "  n=10: q0.9300 of c(A) = 14.2180" in lines
    suggested = lines[-1]
    assert suggested == "  suggested delta (q0.93, rounded up) = 14.30"
    assert float(suggested.rsplit("=", 1)[1]) == C_BOUNDED_DELTA
