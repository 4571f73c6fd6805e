import math

import numpy as np
import pytest
from scipy import integrate, stats

from spanforge.errors import SolverFailure
from spanforge.randmat import (
    Bidiagonal,
    RngStream,
    _draws,
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
    sample_bidiagonal,
    spectral_stats,
)
from references import batched_c, gaussian


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
# bidiagonal factor


def _dense(b: Bidiagonal) -> np.ndarray:
    batch, n = b.d.shape
    out = np.zeros((batch, n, n))
    idx = np.arange(n)
    out[:, idx, idx] = b.d
    out[:, idx[1:], idx[:-1]] = b.e
    return out


def test_bidiagonal_shape_and_positivity():
    rng = np.random.default_rng(1)
    b = sample_bidiagonal(rng, 5, 4, 9)
    assert b.d.shape == (5, 4) and b.e.shape == (5, 3)
    assert np.all(b.d > 0.0) and np.all(b.e > 0.0)
    dense = _dense(b)
    assert np.allclose(np.triu(dense, 1), 0.0) and np.allclose(np.tril(dense, -2), 0.0)
    one = sample_bidiagonal(rng, 3, 1, 1)
    assert one.d.shape == (3, 1) and one.e.shape == (3, 0)
    for n, m in ((5, 4), (0, 3)):
        with pytest.raises(ValueError, match="1 <= n <= m"):
            sample_bidiagonal(rng, 2, n, m)


def test_bidiagonal_chi_moments():
    # d[i]^2 is chi-squared with m - i degrees of freedom, e[i]^2 with n - 1 - i
    rng = np.random.default_rng(2)
    n, m, draws = 4, 7, 4000
    b = sample_bidiagonal(rng, draws, n, m)
    for sq, dfs in ((b.d**2, m - np.arange(n)), (b.e**2, n - 1 - np.arange(n - 1))):
        for col, df in zip(sq.T, dfs):
            assert np.mean(col) == pytest.approx(df, abs=4.0 * math.sqrt(2.0 * df / draws))


def test_bidiagonal_matches_direct_wishart_functionals():
    # two-sample KS on trace, extreme eigenvalues, and the pooled spectrum
    rng = np.random.default_rng(3)
    n, m, draws = 3, 5, 20000
    bd = _dense(sample_bidiagonal(rng, draws, n, m))
    w_bidiagonal = bd @ bd.transpose(0, 2, 1)
    g = rng.standard_normal((draws, n, m))
    w_direct = g @ g.transpose(0, 2, 1)
    ev_bidiagonal = np.linalg.eigvalsh(w_bidiagonal)
    ev_direct = np.linalg.eigvalsh(w_direct)
    checks = [
        (np.einsum("tii->t", w_bidiagonal), np.einsum("tii->t", w_direct)),
        (ev_bidiagonal[:, 0], ev_direct[:, 0]),
        (ev_bidiagonal[:, -1], ev_direct[:, -1]),
        (ev_bidiagonal.ravel(), ev_direct.ravel()),
    ]
    for sample_a, sample_b in checks:
        assert stats.ks_2samp(sample_a, sample_b).statistic <= 0.025


def _ill_conditioned() -> Bidiagonal:
    b = sample_bidiagonal(np.random.default_rng(4), 6, 12, 12)
    d = b.d.copy()
    d[:, 3] *= 1e-4  # condition numbers 5e4 to 2e6
    return Bidiagonal(d=d, e=b.e)


@pytest.mark.parametrize(
    "draws",
    [lambda rng: sample_bidiagonal(rng, 6, 1, 1),
     lambda rng: sample_bidiagonal(rng, 6, 1, 5),
     lambda rng: sample_bidiagonal(rng, 6, 7, 7),
     lambda rng: sample_bidiagonal(rng, 6, 5, 13),
     lambda rng: sample_bidiagonal(rng, 4, 60, 60),
     lambda rng: _ill_conditioned()],
    ids=["n=1", "n=1,m=5", "square", "m>n", "n=60", "ill-conditioned"],
)
def test_bidiagonal_kernels_match_dense_svd(draws):
    b = draws(np.random.default_rng(5))
    sigma = np.linalg.svd(_dense(b), compute_uv=False)
    assert b.inverse_frobenius_sq() == pytest.approx(np.sum(1.0 / sigma**2, axis=1), rel=1e-9)
    assert b.c() == pytest.approx(np.sqrt(np.mean(1.0 / sigma**2, axis=1)), rel=1e-9)
    assert b.sigma_min() == pytest.approx(sigma[:, -1], rel=1e-9)


def test_sigma_min_is_the_tridiagonal_eigenvalue_bit_for_bit(monkeypatch):
    """``sigma_min`` calls LAPACK's ``stebz`` as ``eigvalsh_tridiagonal``
    does, so it returns that wrapper's bits; a call that fails raises."""
    import scipy.linalg

    for b in (sample_bidiagonal(np.random.default_rng(6), 8, 9, 11), _ill_conditioned()):
        n = b.d.shape[1]
        ref = []
        for d, e in zip(b.d, b.e):
            off = np.insert(d, np.arange(1, n), e)  # d[0], e[0], d[1], ..., d[n - 1]
            ref.append(scipy.linalg.eigvalsh_tridiagonal(np.zeros(2 * n), off, select="i", select_range=(n, n))[0])
        assert b.sigma_min().tobytes() == np.array(ref).tobytes()
    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs",
                        lambda names, arrays: (lambda *args: (0, np.zeros(1), None, None, 2),))
    with pytest.raises(SolverFailure, match=r"stebz found 0 eigenvalues of a 24-row tridiagonal \(info 2\)"):
        _ill_conditioned().sigma_min()


# (dense statistic of a Gaussian batch, bidiagonal statistic, n, m) per law
LAWS = {
    "c": (batched_c, Bidiagonal.c, 10, 10),
    "n_lambda_min": (lambda a: 10 * np.linalg.svd(a, compute_uv=False)[:, -1] ** 2,
                     lambda b: 10 * b.sigma_min() ** 2, 10, 10),
    "trace_inverse_wishart": (lambda a: np.einsum("tii->t", np.linalg.inv(a @ a.transpose(0, 2, 1))),
                              Bidiagonal.inverse_frobenius_sq, 4, 9),
    "ratio": (lambda a: 1.0 / (np.linalg.svd(a, compute_uv=False)[:, -1] * batched_c(a)),
              lambda b: 1.0 / (b.sigma_min() * b.c()), 10, 10),
}


@pytest.mark.parametrize("law", list(LAWS))
def test_bidiagonal_draws_agree_with_dense_gaussian_draws(law):
    # fixed-seed two-sample KS: the experiments' statistics from bidiagonal
    # draws against the same statistics of dense Gaussian draws
    dense_stat, bidiagonal_stat, n, m = LAWS[law]
    dense = np.concatenate(_draws(gaussian, dense_stat, n, m, 3000, RngStream(seed=71), chunk=1024))
    bidiagonal = np.concatenate(
        _draws(sample_bidiagonal, bidiagonal_stat, n, m, 3000, RngStream(seed=72), chunk=1024)
    )
    assert stats.ks_2samp(dense, bidiagonal).pvalue >= 0.05


# ---------------------------------------------------------------------------
# spectral statistics


def test_spectral_stats_exact_values():
    assert spectral_stats(np.diag([1.0, 1.0, 0.0]), r=2) == pytest.approx(1.0, abs=1e-12)
    assert spectral_stats(np.diag([1.0, 1.0, 0.0]), r=3) == math.inf  # full order needs rank 3
    assert spectral_stats(np.diag([2.0, 1.0]), r=2) == pytest.approx(math.sqrt((0.25 + 1.0) / 2.0), abs=1e-12)
    assert spectral_stats(np.diag([1.0, 2.0]), r=1) == 0.5  # the top singular value is sigma_max


def test_spectral_stats_rank_deficient_sentinel():
    assert spectral_stats(np.diag([1.0, 0.0]), r=2) == math.inf
    assert spectral_stats(np.zeros((2, 2)), r=1) == math.inf


def test_spectral_stats_bracketing():
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.standard_normal((4, 4))
        c = spectral_stats(a, r=4)
        sigma = np.linalg.svd(a, compute_uv=False)
        assert 1.0 / sigma[0] <= c + 1e-12
        assert c <= 1.0 / sigma[-1] + 1e-12
        # c at full order equals the Frobenius norm of the inverse over sqrt(n)
        frob = np.linalg.norm(np.linalg.inv(a)) / 2.0
        assert c == pytest.approx(frob, rel=1e-9)


def test_spectral_stats_validation():
    with pytest.raises(ValueError, match="r must lie"):
        spectral_stats(np.eye(2), r=3)
    with pytest.raises(ValueError, match="matrix"):
        spectral_stats(np.ones(3), r=1)


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
    # chunk cap), and SPANFORGE_THREADS, which nothing reads, changes none of them
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
