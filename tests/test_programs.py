import dataclasses
import itertools

import numpy as np
import pytest

from spanforge.calibration import RANK_NEGATIVE_THRESHOLD, RANK_POSITIVE_C
from spanforge.programs import (
    MAX_PROMISE_RESAMPLES,
    RankExperimentConfig,
    build_rank_program,
    grover_dj_program,
    random_rank_matrix,
    run_rank_trials,
    unique_search_input,
    unique_search_program,
)
from references import RankInstance, grover_dj_columns, rank_decision, threshold_matrix


# ---------------------------------------------------------------------------
# threshold reduction


def test_threshold_matrix_diag_of_bits():
    a = threshold_matrix("0110")
    assert np.allclose(a, np.diag([0.0, 1.0, 1.0, 0.0]))
    assert np.linalg.matrix_rank(a) == 2
    assert np.allclose(threshold_matrix([1, 1]), np.eye(2))


def test_threshold_rank_equals_weight():
    for mask in range(16):
        bits = [(mask >> i) & 1 for i in range(4)]
        assert np.linalg.matrix_rank(threshold_matrix(bits)) == sum(bits)


# ---------------------------------------------------------------------------
# hand-built lower-bound witnesses


def test_grover_column_family():
    cols = grover_dj_columns(2)
    assert len(cols) == 3
    assert np.allclose(cols[0], [1.0, 1.0])
    for c in cols[1:]:
        assert set(np.unique(c)) <= {-1.0, 1.0}
        assert c.sum() == 0.0
    assert len(grover_dj_columns(4)) == 7  # 1 + C(4, 2)
    with pytest.raises(ValueError, match="even"):
        grover_dj_columns(3)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
def test_grover_exhaustive_over_promise_inputs(n, m):
    prog = grover_dj_program(n, m)
    cols = grover_dj_columns(n)
    for picks in itertools.product(range(len(cols)), repeat=m):
        a = np.column_stack([cols[j] for j in picks])
        ones_count = sum(1 for j in picks if j == 0)
        if ones_count:
            rep = prog.positive_witness(a)
            # balanced columns are orthogonal to the target, so the optimum
            # splits a unit coefficient over the all-ones copies
            assert rep.size == pytest.approx(1.0 / ones_count, abs=1e-9)
            assert rep.size <= 1.0 + 1e-12
        else:
            assert prog.evaluate(a) == 0
            rep = prog.negative_witness(a)
            assert rep.size == pytest.approx(1.0 / n, abs=1e-9)


def test_unique_search_exhaustive_n3():
    prog = unique_search_program(3)
    for mask in range(8):
        bits = [(mask >> i) & 1 for i in range(3)]
        a = unique_search_input(bits)
        weight = sum(bits)
        if weight == 0:
            rep = prog.positive_witness(a)
            assert rep.size == pytest.approx(1.0, abs=1e-12)
        else:
            assert prog.evaluate(a) == 0
            rep = prog.negative_witness(a)
            assert rep.size == pytest.approx(1.0 + 1.0 / weight, abs=1e-9)
            assert rep.size <= 2.0 + 1e-12


def test_unique_search_input_shape():
    a = unique_search_input([0, 1, 0, 0])
    assert a.shape == (5, 1)
    assert np.allclose(a[:, 0], [1.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="n must be positive"):
        unique_search_program(0)


# ---------------------------------------------------------------------------
# rank-test program family


def test_build_rank_program_shapes():
    rng = np.random.default_rng(5)
    prog = build_rank_program(n=6, m=4, r=2, rng=rng)
    assert prog.space_dim == 6
    assert prog.num_inputs == 4
    assert prog.free_basis.shape == (6, 4)  # s = n - r free vectors
    with pytest.raises(ValueError, match="rank threshold"):
        build_rank_program(n=3, m=3, r=4, rng=rng)


def test_rank_zero_threshold_accepts_everything():
    rng = np.random.default_rng(6)
    prog = build_rank_program(n=4, m=4, r=0, rng=rng)
    assert prog.evaluate(np.zeros((4, 4))) == 1


def test_rank_decision_on_diagonal_fixtures():
    rng = np.random.default_rng(7)
    r = 2
    accept_exact = RankInstance(matrix=threshold_matrix("1100"), r=r, L=10.0)
    accept_above = RankInstance(matrix=threshold_matrix("1110"), r=r, L=10.0)
    reject = RankInstance(matrix=threshold_matrix("1000"), r=r, L=10.0)
    assert rank_decision(accept_exact, rng) == 1
    assert rank_decision(accept_above, rng) == 1
    assert rank_decision(reject, rng) == 0


def test_rank_instance_validation():
    with pytest.raises(ValueError, match="entries"):
        RankInstance(matrix=np.array([[2.0]]), r=1, L=1.0)
    with pytest.raises(ValueError, match="L must be positive"):
        RankInstance(matrix=np.eye(2), r=1, L=0.0)


def test_random_rank_matrix_properties():
    rng = np.random.default_rng(8)
    for rank in [1, 3, 5]:
        a = random_rank_matrix(6, 5, rank, rng)
        assert a.shape == (6, 5)
        assert np.abs(a).max() == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.matrix_rank(a, tol=1e-9) == rank
    assert np.allclose(random_rank_matrix(3, 3, 0, rng), 0.0)


# ---------------------------------------------------------------------------
# trial machinery


def _config(**kwargs):
    base = dict(n=6, m=6, r=3, L=None, trials=40, master_seed=1234)
    base.update(kwargs)
    return RankExperimentConfig(**base)


def test_run_rank_trials_decisions_always_correct():
    summary = run_rank_trials(_config(), bound_constant=RANK_POSITIVE_C)
    assert summary.fraction_correct == 1.0
    assert len(summary.rows) == 80


def test_run_rank_trials_bound_frequencies():
    summary = run_rank_trials(_config(trials=120), bound_constant=RANK_POSITIVE_C)
    assert summary.positive_within_bound >= 0.7
    assert summary.negative_within_threshold >= 0.7


def test_run_rank_trials_deterministic():
    a = run_rank_trials(_config(), bound_constant=RANK_POSITIVE_C)
    b = run_rank_trials(_config(), bound_constant=RANK_POSITIVE_C)
    assert a.rows == b.rows


def test_run_rank_trials_promise_resampling():
    generous = run_rank_trials(_config(L=50.0, trials=20), bound_constant=RANK_POSITIVE_C)
    assert all(row.promise_met for row in generous.rows)
    pos = [row for row in generous.rows if row.side == "rank_ge_r"]
    assert all(row.L_used == 50.0 for row in pos)
    assert all(row.c_r <= 50.0 for row in pos)

    impossible = run_rank_trials(_config(L=0.01, trials=5), bound_constant=RANK_POSITIVE_C)
    pos = [row for row in impossible.rows if row.side == "rank_ge_r"]
    assert not any(row.promise_met for row in pos)
    # excluded rows do not dilute the bound frequency
    assert impossible.positive_within_bound == 0.0
    assert MAX_PROMISE_RESAMPLES >= 1


def test_negative_rows_use_threshold_as_bound():
    summary = run_rank_trials(_config(trials=10), bound_constant=RANK_POSITIVE_C)
    neg = [row for row in summary.rows if row.side == "rank_lt_r"]
    assert all(row.bound == RANK_NEGATIVE_THRESHOLD for row in neg)
    assert all((row.witness_size <= RANK_NEGATIVE_THRESHOLD) == row.within_bound for row in neg)


# ---------------------------------------------------------------------------
# config round trip


def test_config_json_roundtrip():
    cfg = _config(L=2.5, tolerance=1e-8)
    data = dataclasses.asdict(cfg)
    assert RankExperimentConfig.from_json_dict(data) == cfg
    null_l = dataclasses.asdict(_config())
    assert null_l["L"] is None
    assert RankExperimentConfig.from_json_dict(null_l) == _config()


def test_config_missing_field_and_validation():
    data = dataclasses.asdict(_config())
    del data["master_seed"]
    with pytest.raises(ValueError, match="master_seed"):
        RankExperimentConfig.from_json_dict(data)
    with pytest.raises(ValueError, match="r must lie"):
        _config(r=0)
    with pytest.raises(ValueError, match=r"r must lie in \[1, 5\], got 6"):
        _config(m=5, r=6)  # rank 6 does not fit in 6 x 5
    with pytest.raises(ValueError, match="trials"):
        _config(trials=0)
