import math

import numpy as np
import pytest
from scipy import integrate, stats

from spanforge.randmat import (
    RngStream,
    chunk_sizes,
    exp_block_inverse_norm,
    exp_c_bounded,
    exp_inverse_wishart_trace,
    exp_lambda_min_cdf,
    exp_ratio_scaling,
    ks_statistic,
    lambda_min_limit_cdf,
    lambda_min_limit_median,
    run_seeded_trials,
    sample_bartlett,
    spectral_stats,
    worker_count,
)


# ---------------------------------------------------------------------------
# seeding and parallel discipline


def test_rng_stream_deterministic_and_stream_separated():
    a = RngStream(seed=7).generator(3).standard_normal(4)
    b = RngStream(seed=7).generator(3).standard_normal(4)
    assert np.array_equal(a, b)
    c = RngStream(seed=7, stream_id=1).generator(3).standard_normal(4)
    assert not np.array_equal(a, c)
    d = RngStream(seed=7).generator(4).standard_normal(4)
    assert not np.array_equal(a, d)


def test_worker_count_env(monkeypatch):
    monkeypatch.delenv("SPANFORGE_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("SPANFORGE_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("SPANFORGE_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("SPANFORGE_THREADS", "not-a-number")
    assert worker_count() == 1


def test_run_seeded_trials_order_and_thread_invariance(monkeypatch):
    def fn(idx, rng):
        return (idx, float(rng.standard_normal()))

    stream = RngStream(seed=99)
    monkeypatch.setenv("SPANFORGE_THREADS", "1")
    serial = run_seeded_trials(fn, 8, stream)
    monkeypatch.setenv("SPANFORGE_THREADS", "4")
    parallel = run_seeded_trials(fn, 8, stream)
    assert serial == parallel
    assert [idx for idx, _ in serial] == list(range(8))


def test_chunk_sizes_partition():
    assert chunk_sizes(10, 4) == [4, 4, 2]
    assert chunk_sizes(8, 4) == [4, 4]
    assert chunk_sizes(3, 10) == [3]
    assert sum(chunk_sizes(12345, 256)) == 12345


# ---------------------------------------------------------------------------
# Bartlett factor


def test_bartlett_shape_and_triangularity():
    rng = np.random.default_rng(1)
    t = sample_bartlett(4, 9, rng)
    assert t.shape == (4, 4)
    assert np.allclose(np.triu(t, 1), 0.0)
    assert np.all(np.diag(t) > 0.0)
    with pytest.raises(ValueError, match="m >= n"):
        sample_bartlett(5, 4, rng)


def test_bartlett_diagonal_moments():
    # T[i,i]^2 is chi-squared with m - i degrees of freedom
    rng = np.random.default_rng(2)
    m, draws = 7, 4000
    sq = np.array([np.diag(sample_bartlett(3, m, rng)) ** 2 for _ in range(draws)])
    for i in range(3):
        df = m - i
        assert np.mean(sq[:, i]) == pytest.approx(df, abs=4.0 * math.sqrt(2.0 * df / draws))


def test_bartlett_matches_direct_wishart_functionals():
    # two-sample KS on trace, extreme eigenvalues, and the pooled spectrum
    rng = np.random.default_rng(3)
    n, m, draws = 3, 5, 20000
    bart = np.array([sample_bartlett(n, m, rng) for _ in range(draws)])
    w_bart = bart @ bart.transpose(0, 2, 1)
    g = rng.standard_normal((draws, n, m))
    w_direct = g @ g.transpose(0, 2, 1)
    ev_bart = np.linalg.eigvalsh(w_bart)
    ev_direct = np.linalg.eigvalsh(w_direct)
    checks = [
        (np.einsum("tii->t", w_bart), np.einsum("tii->t", w_direct)),
        (ev_bart[:, 0], ev_direct[:, 0]),
        (ev_bart[:, -1], ev_direct[:, -1]),
        (ev_bart.ravel(), ev_direct.ravel()),
    ]
    for sample_a, sample_b in checks:
        assert stats.ks_2samp(sample_a, sample_b).statistic <= 0.025


# ---------------------------------------------------------------------------
# spectral statistics


def test_spectral_stats_exact_values():
    s = spectral_stats(np.diag([1.0, 1.0, 0.0]), r=2)
    assert s.c_r == pytest.approx(1.0, abs=1e-12)
    assert s.c == math.inf  # full order needs rank 3
    s = spectral_stats(np.diag([2.0, 1.0]))
    assert s.c == pytest.approx(math.sqrt((0.25 + 1.0) / 2.0), abs=1e-12)
    assert s.sigma_max == 2.0 and s.sigma_min == 1.0


def test_spectral_stats_rank_deficient_sentinel():
    s = spectral_stats(np.diag([1.0, 0.0]), r=2)
    assert s.c_r == math.inf
    assert spectral_stats(np.zeros((2, 2)), r=1).c_r == math.inf


def test_spectral_stats_bracketing():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.standard_normal((4, 4))
        s = spectral_stats(a)
        sigma = np.linalg.svd(a, compute_uv=False)
        assert 1.0 / s.sigma_max <= s.c + 1e-12
        assert s.c <= 1.0 / s.sigma_min + 1e-12
        # c equals the Frobenius norm of the inverse over sqrt(n)
        frob = np.linalg.norm(np.linalg.inv(a)) / 2.0
        assert s.c == pytest.approx(frob, rel=1e-9)
        assert s.c_r == s.c  # default r is the full order
        del sigma


def test_spectral_stats_validation():
    with pytest.raises(ValueError, match="r must lie"):
        spectral_stats(np.eye(2), r=3)
    with pytest.raises(ValueError, match="matrix"):
        spectral_stats(np.ones(3))


# ---------------------------------------------------------------------------
# smallest-eigenvalue limit law


def test_lambda_min_limit_cdf_against_quadrature():
    def density(x):
        return (0.5 + 0.5 / math.sqrt(x)) * math.exp(-(x / 2.0 + math.sqrt(x)))

    for x in [0.05, 0.2, 0.5, 1.0, 2.0, 5.0]:
        mass, err = integrate.quad(density, 0.0, x)
        assert lambda_min_limit_cdf(x) == pytest.approx(mass, abs=max(1e-10, 10 * err))
    assert lambda_min_limit_cdf(0.0) == 0.0
    assert lambda_min_limit_cdf(-1.0) == 0.0
    assert lambda_min_limit_cdf(50.0) == pytest.approx(1.0, abs=1e-9)
    vals = lambda_min_limit_cdf(np.linspace(0.0, 10.0, 101))
    assert np.all(np.diff(vals) >= 0.0)


def test_lambda_min_limit_median_closed_form():
    med = lambda_min_limit_median()
    assert lambda_min_limit_cdf(med) == pytest.approx(0.5, abs=1e-12)
    assert med == pytest.approx((math.sqrt(1.0 + 2.0 * math.log(2.0)) - 1.0) ** 2, abs=1e-15)


def test_ks_statistic_sanity():
    rng = np.random.default_rng(6)
    u = rng.uniform(size=5000)
    ident = lambda x: np.clip(x, 0.0, 1.0)
    assert ks_statistic(u, ident) <= 0.03
    assert ks_statistic(u + 0.5, ident) >= 0.45
    ref = stats.kstest(u, "uniform").statistic
    assert ks_statistic(u, ident) == pytest.approx(ref, abs=1e-12)


# ---------------------------------------------------------------------------
# experiments


def test_trace_experiment_hits_exact_mean():
    res = exp_inverse_wishart_trace(3, 8, trials=20000, stream=RngStream(seed=11))
    assert res.true_value == pytest.approx(0.75)
    assert res.stderr > 0.0
    assert abs(res.estimate - res.true_value) <= 4.0 * res.stderr
    assert res.stderr < 0.05


def test_trace_experiment_validation_and_determinism():
    with pytest.raises(ValueError, match="m > n"):
        exp_inverse_wishart_trace(3, 4, trials=10, stream=RngStream(seed=1))
    a = exp_inverse_wishart_trace(2, 6, trials=500, stream=RngStream(seed=2))
    b = exp_inverse_wishart_trace(2, 6, trials=500, stream=RngStream(seed=2))
    assert a == b


def test_block_experiment_frozen_seed():
    res = exp_block_inverse_norm(10, trials=4000, stream=RngStream(seed=21))
    assert res.size == 8
    assert res.true_value == 8.0
    # heavy-tailed estimator: only a broad band is meaningful
    assert 2.0 < res.estimate < 40.0
    again = exp_block_inverse_norm(10, trials=4000, stream=RngStream(seed=21))
    assert res == again
    with pytest.raises(ValueError, match="n > 3"):
        exp_block_inverse_norm(3, trials=10, stream=RngStream(seed=1))


def test_lambda_min_experiment_matches_limit():
    res = exp_lambda_min_cdf(50, trials=3000, stream=RngStream(seed=31))
    assert res.ks_stat <= 0.08
    assert res.median_limit == pytest.approx(lambda_min_limit_median(), abs=1e-15)
    assert abs(res.median_empirical - res.median_limit) <= 0.1


def test_c_bounded_one_dimensional_closed_form():
    # for n = 1, c(A) = 1/|g| with g standard normal:
    # P(c > delta) = P(|g| < 1/delta) = erf(1/(delta*sqrt(2)))
    delta = 3.0
    trials = 20000
    rows = exp_c_bounded([1], trials=trials, delta=delta, stream=RngStream(seed=41))
    p_true = math.erf(1.0 / (delta * math.sqrt(2.0)))
    stderr = math.sqrt(p_true * (1.0 - p_true) / trials)
    assert abs(rows[0].exceedance - p_true) <= 5.0 * stderr
    assert rows[0].n == 1 and rows[0].delta == delta


EXPERIMENTS = {
    "trace": lambda s: exp_inverse_wishart_trace(3, 300, trials=200, stream=s),
    "block": lambda s: exp_block_inverse_norm(6, trials=9000, stream=s),
    "lambda_min": lambda s: exp_lambda_min_cdf(5, trials=9000, stream=s),
    "c_bounded": lambda s: exp_c_bounded([4, 8], trials=2100, delta=5.0, stream=s),
    "ratio": lambda s: exp_ratio_scaling([4, 8], trials=600, stream=s),
}


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiments_deterministic_across_thread_counts(monkeypatch, name):
    # every size above spans several chunks (the m = 300 trace through the
    # 64 MB cap), so the workers really do split the draws
    monkeypatch.setenv("SPANFORGE_THREADS", "1")
    a = EXPERIMENTS[name](RngStream(seed=51))
    monkeypatch.setenv("SPANFORGE_THREADS", "4")
    assert EXPERIMENTS[name](RngStream(seed=51)) == a


def test_ratio_scaling_minimum_and_slope():
    res = exp_ratio_scaling([8, 16, 32], trials=300, stream=RngStream(seed=61))
    for row in res.rows:
        assert row.min_ratio >= 1.0
        assert row.median_ratio >= 1.0
    assert 0.2 <= res.slope <= 0.8
    again = exp_ratio_scaling([8, 16, 32], trials=300, stream=RngStream(seed=61))
    assert res == again
