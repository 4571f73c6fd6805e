"""One-time calibration runs whose outputs are frozen into
src/spanforge/calibration.py.  Rerunning with the recorded seeds reproduces
the recorded numbers exactly; the frozen constants are rounded up from these
measurements to leave statistical headroom.
"""

from __future__ import annotations

import numpy as np

from spanforge.programs import RankExperimentConfig, run_rank_trials
from spanforge.randmat import RngStream, _draws

CALIBRATION_SEED = 20240817
CALIBRATION_TRIALS_RANK = 2000
CALIBRATION_TRIALS_DELTA = 20000


def gaussian(rng: np.random.Generator, size: int, n: int, m: int) -> np.ndarray:
    """``size`` standard Gaussian n x m matrices, as one array."""
    return rng.standard_normal((size, n, m))


def batched_c(a: np.ndarray) -> np.ndarray:
    """c(A) per dense matrix of a batch, from its singular values."""
    sigma = np.linalg.svd(a, compute_uv=False)
    return np.sqrt(np.mean(1.0 / sigma**2, axis=1))


def calibrate_rank_constant() -> None:
    print("== rank positive bound constant ==")
    n = 8
    worst = 0.0
    for r in (1, 4, 8):
        cfg = RankExperimentConfig(
            n=n, m=n, r=r, L=None, trials=CALIBRATION_TRIALS_RANK, master_seed=CALIBRATION_SEED
        )
        summary = run_rank_trials(cfg, bound_constant=1.0)
        ratios = sorted(
            row.witness_size / row.bound
            for row in summary.rows
            if row.side == "rank_ge_r" and np.isfinite(row.witness_size)
        )
        for q in (5 / 6, 0.90, 0.95):
            print(f"  r={r}: q{q:.3f} ratio = {ratios[int(q * len(ratios))]:.4f}")
        worst = max(worst, ratios[int(0.90 * len(ratios))])
    print(f"  max q0.90 ratio across settings = {worst:.4f}")
    print(f"  suggested C (rounded up)       = {np.ceil(worst * 4) / 4:.2f}")


def calibrate_delta() -> None:
    print("== c(A) exceedance threshold ==")
    n = 10
    stream = RngStream(seed=CALIBRATION_SEED, stream_id=90)
    cs = np.concatenate(_draws(gaussian, batched_c, n, n, CALIBRATION_TRIALS_DELTA, stream, chunk=1024))
    for q in (11 / 12, 0.93, 0.95):
        print(f"  n={n}: q{q:.4f} of c(A) = {np.quantile(cs, q):.4f}")
    delta = float(np.quantile(cs, 0.93))
    print(f"  suggested delta (q0.93, rounded up) = {np.ceil(delta * 10) / 10:.2f}")


if __name__ == "__main__":
    calibrate_rank_constant()
    calibrate_delta()
