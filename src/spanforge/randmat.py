"""Gaussian and Wishart sampling plus the Monte Carlo spectral experiments.

Reproducibility contract: every randomized routine takes an RngStream
(seed, stream_id) and derives per-chunk generators as
default_rng([seed, stream_id, chunk_index]), so chunk i always draws from
generator i and results are bit-identical from run to run.  Every
experiment draws through one driver, _draws, with its sampler as an
argument: the experiments use bidiagonal factors (sample_bidiagonal), whose
singular values have the law of a dense Gaussian matrix's; the dense sampler
lives in scripts/calibrate.py and, as the tests' reference, in tests/references.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SolverFailure
from .linalg import DEFAULT_TOL
from .lowlevel import MAX_DENSE_ENTRIES


@dataclass(frozen=True)
class RngStream:
    """Seed plus stream id; derived generators never collide across streams."""

    seed: int
    stream_id: int = 0

    def generator(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id, *extra])


def run_seeded_trials(fn, num_chunks: int, stream: RngStream) -> list:
    """fn(chunk_index, stream.generator(chunk_index)) for every chunk, in chunk order."""
    return [fn(i, stream.generator(i)) for i in range(num_chunks)]


def chunk_sizes(trials: int, chunk: int) -> list[int]:
    full, rem = divmod(trials, chunk)
    return [chunk] * full + ([rem] if rem else [])


# ---------------------------------------------------------------------------
# samplers


@dataclass(frozen=True)
class Bidiagonal:
    """A batch of lower-bidiagonal n x n matrices B: ``d`` (batch x n) holds
    the diagonals and ``e`` (batch x (n - 1)) the subdiagonals, so row i of B
    is e[i - 1] at column i - 1 and d[i] at column i."""

    d: np.ndarray
    e: np.ndarray

    def inverse_frobenius_sq(self) -> np.ndarray:
        """||B^-1||_F^2 per matrix, the sum of 1 / sigma^2 over its singular
        values.  Row i of B^-1 is (unit row i - e[i-1] * row i-1) / d[i], two
        parts with disjoint supports, so the squared row norms follow the
        positive recurrence S_i = S_(i-1) * (e[i-1] / d[i])^2 + 1 / d[i]^2,
        which sums without cancellation."""
        inv = 1.0 / self.d**2
        row = inv[:, 0]
        total = row.copy()
        for i in range(1, inv.shape[1]):
            row = row * self.e[:, i - 1] ** 2 * inv[:, i] + inv[:, i]
            total += row
        return total

    def c(self) -> np.ndarray:
        """c per matrix: the quadratic mean of its reciprocal singular values."""
        return np.sqrt(self.inverse_frobenius_sq() / self.d.shape[1])

    def sigma_min(self) -> np.ndarray:
        """Smallest singular value per matrix: eigenvalue n (0-based, in
        ascending order) of the 2n x 2n Golub-Kahan tridiagonal with zero
        diagonal and off-diagonal d[0], e[0], d[1], ..., d[n-1], whose
        eigenvalues are the +-sigma of B.  Bisection on it keeps small sigma
        to near full relative precision; the eigenvalues of B @ B.T would
        lose about half their digits.  LAPACK's ``stebz`` is called as
        ``scipy.linalg.eigvalsh_tridiagonal`` calls it, without its checks."""
        # imported here, not at module level: loading scipy.linalg takes about
        # as long as importing the whole CLI, and only this kernel needs it
        from scipy.linalg import get_lapack_funcs

        batch, n = self.d.shape
        zeros, off = np.zeros(2 * n), np.empty((batch, 2 * n - 1))
        off[:, 0::2], off[:, 1::2] = self.d, self.e
        (stebz,) = get_lapack_funcs(("stebz",), (zeros, off))
        out = np.empty(batch)
        for t in range(batch):  # by index (2), eigenvalue n + 1 of 2n (1-based), tolerance 0, in order (E)
            m, w, _, _, info = stebz(zeros, off[t], 2, 0.0, 1.0, n + 1, n + 1, 0.0, "E")
            if info or m != 1:
                raise SolverFailure(f"stebz found {m} eigenvalues of a {2 * n}-row tridiagonal (info {info})")
            out[t] = w[0]
        return out


def sample_bidiagonal(rng: np.random.Generator, size: int, n: int, m: int) -> Bidiagonal:
    """``size`` lower-bidiagonal factors B whose singular values have the
    joint law of a standard Gaussian n x m matrix's, m >= n (Dumitriu and
    Edelman, "Matrix models for beta ensembles", beta = 1): for 0-based i,
    d[i] ~ chi_(m - i) and e[i] ~ chi_(n - 1 - i), so B @ B.T has the
    eigenvalues of a Wishart W(n, m).  2n - 1 chi variates per matrix
    instead of n * m normals."""
    if not 1 <= n <= m:
        raise ValueError(f"bidiagonal factor needs 1 <= n <= m, got n={n}, m={m}")
    d = np.sqrt(rng.chisquare(m - np.arange(n), size=(size, n)))
    e = np.sqrt(rng.chisquare(n - 1 - np.arange(n - 1), size=(size, n - 1)))
    return Bidiagonal(d=d, e=e)


# ---------------------------------------------------------------------------
# spectral statistics


def spectral_stats(a, r: int) -> float:
    """c_r, the quadratic mean of the reciprocals of the top r singular values
    of ``a`` (+inf when the matrix has rank below r at ``DEFAULT_TOL``)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    order = min(a.shape)
    if not 1 <= r <= order:
        raise ValueError(f"r must lie in [1, {order}], got {r}")
    sigma = np.linalg.svd(a, compute_uv=False)
    if np.count_nonzero(sigma > DEFAULT_TOL * sigma[0]) < r:
        return float("inf")
    return float(np.sqrt(np.mean(1.0 / sigma[:r] ** 2)))


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


def check_trials(trials: int, name: str = "--trials") -> None:
    """A trial count of at least 1 and at most ``MAX_DENSE_ENTRIES``: a run
    keeps one float per trial (two rows per rank trial), so past the cap of
    every other dense array ``name`` is refused before anything is drawn."""
    _require_at_least(name, trials, 1)
    if trials > MAX_DENSE_ENTRIES:
        raise ValueError(f"{name}={trials} is past the cap of {MAX_DENSE_ENTRIES} trials")


def _require_draw_fits(flag: str, n: int) -> None:
    """A bidiagonal draw of order n holds 2n - 1 chi variates, and its
    Golub-Kahan tridiagonal (``Bidiagonal.sigma_min``) 2n entries; past
    ``MAX_DENSE_ENTRIES`` the size ``flag`` is refused before drawing."""
    if 2 * n > MAX_DENSE_ENTRIES:
        raise ValueError(f"{flag}={n} asks for bidiagonal draws of {2 * n} entries, "
                         f"past the cap of {MAX_DENSE_ENTRIES} entries")


def _draws(sample, stat, n: int, m: int, trials: int, stream: RngStream, chunk: int) -> list:
    """stat(sample(rng, size, n, m)) for every chunk of ``trials`` draws that
    model standard Gaussian n x m matrices, in chunk order.  Chunks hold
    ``chunk`` draws, fewer where a dense batch would pass ~64 MB; both
    samplers share that grid, which fixes which generator draws each matrix,
    so callers keep their chunk size fixed to keep reports stable."""
    side = max(1, n, m)
    sizes = chunk_sizes(trials, max(1, min(chunk, 8_000_000 // (side * side))))
    return run_seeded_trials(lambda idx, rng: stat(sample(rng, sizes[idx], n, m)), len(sizes), stream)


def _size_streams(n_list, stream: RngStream) -> list[tuple[int, RngStream]]:
    """Each size of a sweep draws from its own sub-stream, stream_id + 1 + pos."""
    return [
        (n, RngStream(seed=stream.seed, stream_id=stream.stream_id + 1 + pos))
        for pos, n in enumerate(n_list)
    ]


@dataclass(frozen=True)
class MeanEstimate:
    """Monte Carlo mean with its in-sample standard error.  ``size`` is m for
    the inverse-Wishart trace and the block order n - 2 for the block check."""

    n: int
    size: int
    trials: int
    estimate: float
    stderr: float
    true_value: float


def _mean_estimate(n: int, size: int, trials: int, true_value: float, values: list) -> MeanEstimate:
    """Mean and stderr of per-chunk arrays of per-draw values, summed chunk by chunk."""
    mean = sum(float(v.sum()) for v in values) / trials
    var = max(sum(float((v**2).sum()) for v in values) / trials - mean**2, 0.0)
    return MeanEstimate(
        n=n, size=size, trials=trials, estimate=mean,
        stderr=math.sqrt(var / trials), true_value=true_value,
    )


def exp_inverse_wishart_trace(n: int, m: int, trials: int, stream: RngStream) -> MeanEstimate:
    """Monte Carlo E[tr W(n, m)^-1]; exact value n / (m - n - 1)."""
    _require_at_least("--n", n, 1)
    _require_draw_fits("--n", n)
    check_trials(trials)
    if m <= n + 1:
        raise ValueError(f"mean of the inverse Wishart needs m > n + 1, got n={n}, m={m}")
    if m > 2**53:
        raise ValueError(f"--m={m} is past 2^53, where the chi-square degrees of freedom stop being exact floats")

    # tr W^-1 = ||B^-1||_F^2 for the bidiagonal factor B of W
    values = _draws(sample_bidiagonal, Bidiagonal.inverse_frobenius_sq, n, m, trials, stream, chunk=4096)
    return _mean_estimate(n, m, trials, n / (m - n - 1), values)


def exp_block_inverse_norm(n: int, trials: int, stream: RngStream) -> MeanEstimate:
    """E of the squared Euclidean norm of the inverted leading (n-2)-block
    factor of W(n, n), equal to tr of the inverted block itself; exact value
    n - 2.  The estimator has infinite variance (the block is only two
    degrees of freedom away from singular), so the reported stderr is an
    in-sample figure, not a stable one."""
    if n <= 3:
        raise ValueError(f"block check needs n > 3, got {n}")
    _require_draw_fits("--n", n)
    check_trials(trials)
    # the leading block of W(n, n) = A @ A.T is W(n - 2, n), from A's first n - 2 rows
    return replace(exp_inverse_wishart_trace(n - 2, n, trials, stream), n=n, size=n - 2)


@dataclass(frozen=True)
class LambdaMinResult:
    n: int
    trials: int
    ks_stat: float
    median_empirical: float
    median_limit: float


def exp_lambda_min_cdf(n: int, trials: int, stream: RngStream) -> LambdaMinResult:
    """KS distance between the empirical law of n * lambda_min(W(n, n)) and
    the limit CDF."""
    _require_at_least("--n", n, 1)
    _require_draw_fits("--n", n)
    check_trials(trials)

    def scaled_lambda_min(b):
        return n * b.sigma_min() ** 2

    samples = np.concatenate(_draws(sample_bidiagonal, scaled_lambda_min, n, n, trials, stream, chunk=4096))
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


def exp_c_bounded(n_list, trials: int, delta: float, stream: RngStream) -> list[ExceedanceRow]:
    """Per n, the empirical probability that c(A) exceeds delta for a square
    standard Gaussian A; the law is (conjecturally) tight uniformly in n, so
    the exceedance should stay flat once delta is calibrated."""
    check_trials(trials)

    def exceeding(b):
        return int(np.sum(b.c() > delta))

    rows = []
    for n, sub in _size_streams(n_list, stream):
        p = sum(_draws(sample_bidiagonal, exceeding, n, n, trials, sub, chunk=1024)) / trials
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


def exp_ratio_scaling(n_list, trials: int, stream: RngStream) -> RatioScalingResult:
    """Median of (1/sigma_min) / c(A) per n, with the log-log regression
    slope across n.  The ratio is at least 1 for every sample: the largest
    reciprocal singular value dominates their quadratic mean."""
    check_trials(trials)
    for n in n_list:
        # at n = 1 the ratio is identically 1, and log 1 = 0 leaves a fit over n = 1 singular
        _require_at_least("--n", n, 2)
        _require_draw_fits("--n", n)

    def ratios(b):
        return (1.0 / b.sigma_min()) / b.c()

    rows = []
    for n, sub in _size_streams(n_list, stream):
        sample = np.concatenate(_draws(sample_bidiagonal, ratios, n, n, trials, sub, chunk=256))
        rows.append(
            RatioRow(
                n=n, trials=trials,
                median_ratio=float(np.median(sample)),
                min_ratio=float(np.min(sample)),
            )
        )
    slope = float(
        np.polyfit(
            np.log([row.n for row in rows]), np.log([row.median_ratio for row in rows]), 1
        )[0]
    )
    return RatioScalingResult(rows=tuple(rows), slope=slope)
