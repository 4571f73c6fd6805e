"""Concrete program families: the randomized rank test and the two hand-built
query lower-bound examples.

The rank-r test works in R^n: draw a standard-normal target t and n-r
standard-normal free vectors, then ask whether t can be reached from the
columns of A together with the free span.  Matrices of rank at least r make
the combined span (generically) all of R^n, so the answer is yes with
probability 1; for rank below r the target misses the span almost surely.
Witness sizes concentrate: positives scale with (n-r+1)*r*L^2 where L bounds
the reciprocal-singular-value mean of A, negatives follow the inverse square
of a standard normal, so a fixed threshold is exceeded rarely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import RANK_NEGATIVE_THRESHOLD
from .highlevel import HighLevelProgram
from .linalg import DEFAULT_TOL, float_field, int_field, tol_field
from .lowlevel import normalize_bits
from .randmat import RngStream, run_seeded_trials, spectral_stats


def build_rank_program(n: int, m: int, r: int, rng: np.random.Generator) -> HighLevelProgram:
    """Sample the rank-r test program on n-dimensional inputs with m columns:
    a standard-normal target plus n-r standard-normal free vectors."""
    if not 0 <= r <= n:
        raise ValueError(f"rank threshold {r} outside [0, {n}]")
    t = rng.standard_normal(n)
    v = rng.standard_normal((n, n - r))
    return HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=v)


def grover_dj_program(n: int, m: int) -> HighLevelProgram:
    """All-ones target in R^n; promise inputs have +-1 columns that are each
    all-ones or balanced.  Any all-ones column reaches the target with a unit
    coefficient; when every column is balanced, t/n certifies rejection."""
    if n <= 0 or n % 2:
        raise ValueError(f"n must be positive and even, got {n}")
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    return HighLevelProgram(
        space_dim=n, num_inputs=m, target=np.ones(n), free_basis=np.zeros((n, 0))
    )


def unique_search_program(n: int) -> HighLevelProgram:
    """Single-column program in R^(n+1) with target e_0."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    t = np.zeros(n + 1)
    t[0] = 1.0
    return HighLevelProgram(space_dim=n + 1, num_inputs=1, target=t, free_basis=np.zeros((n + 1, 0)))


def unique_search_input(x) -> np.ndarray:
    """Column e_0 + sum of e_i over set bits of x, as an (n+1) x 1 matrix."""
    bits = normalize_bits(x, len(x))
    col = np.zeros(len(bits) + 1)
    col[0] = 1.0
    for i, b in enumerate(bits):
        if b:
            col[i + 1] = 1.0
    return col.reshape(-1, 1)


# ---------------------------------------------------------------------------
# rank-experiment trial machinery


@dataclass(frozen=True)
class RankExperimentConfig:
    """A rank-experiment run; ``dataclasses.asdict`` gives the JSON form that
    ``from_json_dict`` reads."""

    n: int
    m: int
    r: int
    L: float | None
    trials: int
    master_seed: int
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        if self.n <= 0 or self.m <= 0:
            raise ValueError("n and m must be positive")
        if not 1 <= self.r <= min(self.n, self.m):  # random_rank_matrix draws rank r in n x m
            raise ValueError(f"r must lie in [1, {min(self.n, self.m)}], got {self.r}")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.L is not None and not 0 < self.L <= 1e154:  # so that the bound's L**2 is finite
            raise ValueError(f"L must lie in (0, 1e154] when given, got {self.L}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "RankExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("rank experiment config must be an object")
        for key in ("n", "m", "r", "trials", "master_seed"):
            if key not in data:
                raise ValueError(f"rank experiment config is missing field '{key}'")
        return cls(
            **{key: int_field(data[key], key) for key in ("n", "m", "r", "trials", "master_seed")},
            L=None if data.get("L") is None else float_field(data["L"], "L"),
            tolerance=tol_field(data.get("tolerance", DEFAULT_TOL), "tolerance"),
        )


def random_rank_matrix(n: int, m: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix of exact rank with entries rescaled into [-1, 1]: orthonormal
    factors around a uniform [0.5, 1.5] spectrum, then divided by the largest
    absolute entry."""
    if rank == 0:
        return np.zeros((n, m))
    q1 = np.linalg.qr(rng.standard_normal((n, rank)))[0]
    q2 = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    sigma = rng.uniform(0.5, 1.5, rank)
    a = (q1 * sigma) @ q2.T
    return a / np.abs(a).max()


MAX_PROMISE_RESAMPLES = 64


@dataclass(frozen=True)
class RankTrialRow:
    trial: int
    side: str  # "rank_ge_r" | "rank_lt_r"
    decision: int
    correct: bool
    witness_size: float
    c_r: float
    L_used: float
    bound: float
    within_bound: bool
    promise_met: bool


@dataclass(frozen=True)
class RankTrialSummary:
    rows: tuple[RankTrialRow, ...]
    fraction_correct: float
    positive_within_bound: float
    negative_within_threshold: float


def run_rank_trials(config: RankExperimentConfig, bound_constant: float) -> RankTrialSummary:
    """Per trial, one rank-r (positive) and one rank-(r-1) (negative)
    instance, each judged by a fresh program sample.

    Positive rows check witness_size <= C*(n-r+1)*r*L^2 with L the measured
    c_r (or the configured promise, met by bounded resampling).  Negative
    rows check witness_size <= the fixed RANK_NEGATIVE_THRESHOLD.
    Both checks hold with probability 5/6-ish per trial, not always; callers
    assert frequencies.
    """
    stream = RngStream(seed=config.master_seed)
    n, m, r = config.n, config.m, config.r

    def trial_rows(trial: int, rng: np.random.Generator) -> tuple[RankTrialRow, RankTrialRow]:
        # positive side: rank exactly r
        a = random_rank_matrix(n, m, r, rng)
        c_r = spectral_stats(a, r)
        promise_met = True
        if config.L is not None:
            attempts = 0
            while c_r > config.L and attempts < MAX_PROMISE_RESAMPLES:
                a = random_rank_matrix(n, m, r, rng)
                c_r = spectral_stats(a, r)
                attempts += 1
            promise_met = c_r <= config.L
            l_used = config.L
        else:
            l_used = c_r
        rep = build_rank_program(n, m, r, rng).witness(a, config.tolerance)
        decision = rep.decision
        bound = bound_constant * (n - r + 1) * r * l_used**2
        size = rep.size if decision else float("inf")
        positive = RankTrialRow(
            trial=trial, side="rank_ge_r", decision=decision, correct=decision == 1,
            witness_size=size, c_r=c_r, L_used=l_used, bound=bound,
            within_bound=size <= bound, promise_met=promise_met,
        )
        # negative side: rank exactly r-1
        a_neg = random_rank_matrix(n, m, r - 1, rng)
        rep_neg = build_rank_program(n, m, r, rng).witness(a_neg, config.tolerance)
        decision_neg = rep_neg.decision
        size_neg = float("inf") if decision_neg else rep_neg.size
        negative = RankTrialRow(
            trial=trial, side="rank_lt_r", decision=decision_neg, correct=decision_neg == 0,
            witness_size=size_neg, c_r=float("inf"), L_used=l_used,
            bound=RANK_NEGATIVE_THRESHOLD, within_bound=size_neg <= RANK_NEGATIVE_THRESHOLD,
            promise_met=True,
        )
        return positive, negative

    # one trial per chunk: trial i draws from stream.generator(i)
    rows = tuple(row for pair in run_seeded_trials(trial_rows, config.trials, stream) for row in pair)
    pos = [row for row in rows if row.side == "rank_ge_r" and row.promise_met]
    neg = [row for row in rows if row.side == "rank_lt_r"]
    return RankTrialSummary(
        rows=rows,
        fraction_correct=float(np.mean([row.correct for row in rows])),
        positive_within_bound=float(np.mean([row.within_bound for row in pos])) if pos else 0.0,
        negative_within_threshold=float(np.mean([row.within_bound for row in neg])) if neg else 0.0,
    )
