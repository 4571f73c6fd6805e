"""Gaussian and Wishart sampling plus the Monte Carlo spectral experiments.

Reproducibility contract: every randomized routine takes an RngStream
(seed, stream_id) and derives per-chunk generators as
default_rng([seed, stream_id, chunk_index]), so results are bit-identical
regardless of how many worker threads SPANFORGE_THREADS allows.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL

CHI2_EXACT_DF_LIMIT = 64  # sum-of-squares sampling below, gamma method above


@dataclass(frozen=True)
class RngStream:
    """Seed plus stream id; derived generators never collide across streams."""

    seed: int
    stream_id: int = 0

    def generator(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id, *extra])


def worker_count() -> int:
    """Worker cap from SPANFORGE_THREADS; defaults to single-threaded."""
    raw = os.environ.get("SPANFORGE_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_seeded_trials(fn, num_chunks: int, stream: RngStream) -> list:
    """Run fn(chunk_index, generator) for every chunk, in parallel when
    allowed; results always come back in chunk order."""
    workers = min(worker_count(), num_chunks) if num_chunks else 1
    if workers <= 1:
        return [fn(i, stream.generator(i)) for i in range(num_chunks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda i: fn(i, stream.generator(i)), range(num_chunks)))


def chunk_sizes(trials: int, chunk: int) -> list[int]:
    full, rem = divmod(trials, chunk)
    return [chunk] * full + ([rem] if rem else [])


# ---------------------------------------------------------------------------
# samplers


def sample_gaussian(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, m))


def _chi2(df: int, rng: np.random.Generator) -> float:
    if df <= CHI2_EXACT_DF_LIMIT:
        return float(np.sum(rng.standard_normal(df) ** 2))
    return float(2.0 * rng.standard_gamma(df / 2.0))


def sample_bartlett(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular T with T @ T.T distributed as the Wishart W(n, m):
    diagonal entries sqrt(chi^2_(m-i)) for 0-based row i, standard normals
    below the diagonal."""
    if m < n:
        raise ValueError(f"Wishart factor needs m >= n, got n={n}, m={m}")
    t = np.zeros((n, n))
    for i in range(n):
        t[i, i] = math.sqrt(_chi2(m - i, rng))
        if i:
            t[i, :i] = rng.standard_normal(i)
    return t


# ---------------------------------------------------------------------------
# spectral statistics


@dataclass(frozen=True)
class SpectralStats:
    """c_r is the quadratic mean of the reciprocals of the top r singular
    values (+inf when the matrix has rank below r); c is c at full order."""

    r: int
    c_r: float
    c: float
    sigma_min: float
    sigma_max: float


def spectral_stats(a, r: int | None = None, tol: float = DEFAULT_TOL) -> SpectralStats:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    order = min(a.shape)
    if r is None:
        r = order
    if not 1 <= r <= order:
        raise ValueError(f"r must lie in [1, {order}], got {r}")
    sigma = np.linalg.svd(a, compute_uv=False)
    sigma_max = float(sigma[0]) if order else 0.0
    sigma_min = float(sigma[order - 1]) if order else 0.0
    above = int(np.sum(sigma > tol * sigma_max)) if sigma_max > 0.0 else 0

    def c_of(k: int) -> float:
        if above < k:
            return float("inf")
        return float(np.sqrt(np.mean(1.0 / sigma[:k] ** 2)))

    return SpectralStats(r=r, c_r=c_of(r), c=c_of(order), sigma_min=sigma_min, sigma_max=sigma_max)


# ---------------------------------------------------------------------------
# limit law of the smallest Wishart eigenvalue


def lambda_min_limit_cdf(x) -> np.ndarray:
    """Limit CDF of n * lambda_min(W(n, n)): 1 - exp(-(x/2 + sqrt(x)))."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, -np.expm1(-(x / 2.0 + np.sqrt(np.maximum(x, 0.0)))), 0.0)
    return out


def lambda_min_limit_median() -> float:
    """Closed-form root of x/2 + sqrt(x) = ln 2."""
    return (math.sqrt(1.0 + 2.0 * math.log(2.0)) - 1.0) ** 2


def ks_statistic(samples: np.ndarray, cdf) -> float:
    s = np.sort(np.asarray(samples, dtype=float))
    n = len(s)
    f = np.asarray(cdf(s), dtype=float)
    grid = np.arange(n, dtype=float)
    return float(max(np.max(f - grid / n), np.max((grid + 1.0) / n - f)))


# ---------------------------------------------------------------------------
# experiments


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


def _capped_chunk(chunk: int, n: int) -> int:
    # keep each batch of n x n matrices within ~64 MB
    return max(1, min(chunk, 8_000_000 // max(1, n * n)))


@dataclass(frozen=True)
class TraceEstimate:
    n: int
    m: int
    trials: int
    estimate: float
    stderr: float
    true_value: float


def exp_inverse_wishart_trace(
    n: int, m: int, trials: int, stream: RngStream, chunk: int = 4096
) -> TraceEstimate:
    """Monte Carlo E[tr W(n, m)^-1]; exact value n / (m - n - 1)."""
    _require_at_least("--n", n, 1)
    _require_at_least("--trials", trials, 1)
    if m <= n + 1:
        raise ValueError(f"mean of the inverse Wishart needs m > n + 1, got n={n}, m={m}")
    chunk = _capped_chunk(chunk, max(n, m))
    sizes = chunk_sizes(trials, chunk)

    def one(idx: int, rng: np.random.Generator):
        a = rng.standard_normal((sizes[idx], n, m))
        w = a @ a.transpose(0, 2, 1)
        tr = np.einsum("tii->t", np.linalg.inv(w))
        return float(tr.sum()), float((tr**2).sum())

    parts = run_seeded_trials(one, len(sizes), stream)
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    mean = total / trials
    var = max(total_sq / trials - mean**2, 0.0)
    return TraceEstimate(
        n=n, m=m, trials=trials, estimate=mean,
        stderr=math.sqrt(var / trials), true_value=n / (m - n - 1),
    )


@dataclass(frozen=True)
class BlockNormEstimate:
    n: int
    block: int
    trials: int
    estimate: float
    stderr: float
    true_value: float


def exp_block_inverse_norm(
    n: int, trials: int, stream: RngStream, chunk: int = 4096
) -> BlockNormEstimate:
    """E of the squared Euclidean norm of the inverted leading (n-2)-block
    factor of W(n, n), equal to tr of the inverted block itself; exact value
    n - 2.  The estimator has infinite variance (the block is only two
    degrees of freedom away from singular), so the reported stderr is an
    in-sample figure, not a stable one."""
    if n <= 3:
        raise ValueError(f"block check needs n > 3, got {n}")
    _require_at_least("--trials", trials, 1)
    block = n - 2
    chunk = _capped_chunk(chunk, n)
    sizes = chunk_sizes(trials, chunk)

    def one(idx: int, rng: np.random.Generator):
        a = rng.standard_normal((sizes[idx], n, n))
        w = a @ a.transpose(0, 2, 1)
        tr = np.einsum("tii->t", np.linalg.inv(w[:, :block, :block]))
        return float(tr.sum()), float((tr**2).sum())

    parts = run_seeded_trials(one, len(sizes), stream)
    total = sum(p[0] for p in parts)
    total_sq = sum(p[1] for p in parts)
    mean = total / trials
    var = max(total_sq / trials - mean**2, 0.0)
    return BlockNormEstimate(
        n=n, block=block, trials=trials, estimate=mean,
        stderr=math.sqrt(var / trials), true_value=float(n - 2),
    )


@dataclass(frozen=True)
class LambdaMinResult:
    n: int
    trials: int
    ks_stat: float
    median_empirical: float
    median_limit: float


def exp_lambda_min_cdf(
    n: int, trials: int, stream: RngStream, chunk: int = 4096
) -> LambdaMinResult:
    """KS distance between the empirical law of n * lambda_min(W(n, n)) and
    the limit CDF."""
    _require_at_least("--n", n, 1)
    _require_at_least("--trials", trials, 1)
    chunk = _capped_chunk(chunk, n)
    sizes = chunk_sizes(trials, chunk)

    def one(idx: int, rng: np.random.Generator):
        a = rng.standard_normal((sizes[idx], n, n))
        w = a @ a.transpose(0, 2, 1)
        return n * np.linalg.eigvalsh(w)[:, 0]

    parts = run_seeded_trials(one, len(sizes), stream)
    samples = np.concatenate(parts)
    return LambdaMinResult(
        n=n,
        trials=trials,
        ks_stat=ks_statistic(samples, lambda_min_limit_cdf),
        median_empirical=float(np.median(samples)),
        median_limit=lambda_min_limit_median(),
    )


@dataclass(frozen=True)
class ExceedanceRow:
    n: int
    trials: int
    delta: float
    exceedance: float
    stderr: float


def _batched_c(a: np.ndarray) -> np.ndarray:
    sigma = np.linalg.svd(a, compute_uv=False)
    return np.sqrt(np.mean(1.0 / sigma**2, axis=1))


def exp_c_bounded(
    n_list, trials: int, delta: float, stream: RngStream, chunk: int = 1024
) -> list[ExceedanceRow]:
    """Per n, the empirical probability that c(A) exceeds delta for a square
    standard Gaussian A; the law is (conjecturally) tight uniformly in n, so
    the exceedance should stay flat once delta is calibrated."""
    _require_at_least("--trials", trials, 1)
    rows = []
    for pos, n in enumerate(n_list):
        eff = _capped_chunk(chunk, n)
        sizes = chunk_sizes(trials, eff)
        sub = RngStream(seed=stream.seed, stream_id=stream.stream_id + 1 + pos)

        def one(idx: int, rng: np.random.Generator):
            a = rng.standard_normal((sizes[idx], n, n))
            return int(np.sum(_batched_c(a) > delta))

        exceed = sum(run_seeded_trials(one, len(sizes), sub))
        p = exceed / trials
        rows.append(
            ExceedanceRow(
                n=n, trials=trials, delta=delta, exceedance=p,
                stderr=math.sqrt(max(p * (1.0 - p), 1e-12) / trials),
            )
        )
    return rows


@dataclass(frozen=True)
class RatioRow:
    n: int
    trials: int
    median_ratio: float
    min_ratio: float


@dataclass(frozen=True)
class RatioScalingResult:
    rows: tuple[RatioRow, ...]
    slope: float


def exp_ratio_scaling(
    n_list, trials: int, stream: RngStream, chunk: int = 256
) -> RatioScalingResult:
    """Median of (1/sigma_min) / c(A) per n, with the log-log regression
    slope across n.  The ratio is at least 1 for every sample: the largest
    reciprocal singular value dominates their quadratic mean."""
    _require_at_least("--trials", trials, 1)
    for n in n_list:
        # at n = 1 the ratio is identically 1, and log 1 = 0 leaves a fit over n = 1 singular
        _require_at_least("--n", n, 2)
    rows = []
    for pos, n in enumerate(n_list):
        eff = _capped_chunk(chunk, n)
        sizes = chunk_sizes(trials, eff)
        sub = RngStream(seed=stream.seed, stream_id=stream.stream_id + 1 + pos)

        def one(idx: int, rng: np.random.Generator):
            a = rng.standard_normal((sizes[idx], n, n))
            sigma = np.linalg.svd(a, compute_uv=False)
            c = np.sqrt(np.mean(1.0 / sigma**2, axis=1))
            return (1.0 / sigma[:, -1]) / c

        ratios = np.concatenate(run_seeded_trials(one, len(sizes), sub))
        rows.append(
            RatioRow(
                n=n, trials=trials,
                median_ratio=float(np.median(ratios)),
                min_ratio=float(np.min(ratios)),
            )
        )
    slope = float(
        np.polyfit(
            np.log([row.n for row in rows]), np.log([row.median_ratio for row in rows]), 1
        )[0]
    )
    return RatioScalingResult(rows=tuple(rows), slope=slope)
