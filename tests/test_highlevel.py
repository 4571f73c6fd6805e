import json

import numpy as np
import pytest

from references import reference_highlevel_witness
from spanforge import linalg
from spanforge.errors import InconsistentSystem, NoNegativeWitness, NoPositiveWitness
from spanforge.highlevel import HighLevelProgram, wsize_over_inputs
from spanforge.programs import build_rank_program, random_rank_matrix
from spanforge.randmat import RngStream
from test_compiler_tables import _compile, _rank_inputs

RNG = np.random.default_rng(55)


def _simple() -> HighLevelProgram:
    return HighLevelProgram(
        space_dim=2, num_inputs=1, target=[1.0, 0.0], free_basis=np.zeros((2, 0))
    )


def test_evaluate_span_membership():
    prog = _simple()
    assert prog.evaluate(np.array([[2.0], [0.0]])) == 1
    assert prog.evaluate(np.array([[0.0], [1.0]])) == 0
    assert prog.evaluate(np.zeros((2, 1))) == 0


def test_free_subspace_extends_reach():
    prog = HighLevelProgram(
        space_dim=2, num_inputs=1, target=[1.0, 1.0], free_basis=[[0.0], [1.0]]
    )
    # column only covers e_1; the free direction supplies e_2
    assert prog.evaluate(np.array([[1.0], [0.0]])) == 1
    assert prog.evaluate(np.zeros((2, 1))) == 0


def test_positive_witness_excludes_free_coefficients():
    prog = HighLevelProgram(
        space_dim=2, num_inputs=1, target=[1.0, 1.0], free_basis=[[0.0], [1.0]]
    )
    rep = prog.positive_witness(np.array([[1.0], [0.0]]))
    assert rep.decision == 1
    # only the matrix coefficient counts: w = (1,), the e_2 defect is free
    assert rep.size == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(rep.witness, [1.0], atol=1e-9)


def test_positive_witness_minimality_matches_projected_pinv():
    for _ in range(25):
        n, m, f = 4, 3, 1
        a = RNG.standard_normal((n, m))
        fb = RNG.standard_normal((n, f))
        w0 = RNG.standard_normal(m)
        phi = RNG.standard_normal(f)
        t = a @ w0 + fb @ phi
        prog = HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=fb)
        rep = prog.positive_witness(a)
        q = np.eye(n) - prog.free_basis @ prog.free_basis.T
        ref = np.linalg.pinv(q @ a) @ (q @ t)
        assert rep.size == pytest.approx(float(ref @ ref), abs=1e-8, rel=1e-8)
        resid = t - a @ rep.witness
        # the residual must be inside the free subspace
        assert np.linalg.norm(resid - prog.free_basis @ (prog.free_basis.T @ resid)) <= 1e-8


def test_negative_witness_values():
    prog = _simple()
    rep = prog.negative_witness(np.array([[0.0], [1.0]]))
    assert rep.decision == 0
    # u = t itself; witness u/||u||^2 = t, size 1
    assert rep.size == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(rep.witness, [1.0, 0.0], atol=1e-9)


def test_negative_witness_properties_random():
    for _ in range(25):
        n, m = 5, 2
        a = RNG.standard_normal((n, m))
        fb = RNG.standard_normal((n, 1))
        t = RNG.standard_normal(n)
        prog = HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=fb)
        if prog.evaluate(a):
            continue
        rep = prog.negative_witness(a)
        assert rep.witness @ t == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(a.T @ rep.witness, 0.0, atol=1e-8)
        assert np.allclose(prog.free_basis.T @ rep.witness, 0.0, atol=1e-8)
        # size identity: 1 / ||projection of t off the span||^2
        stack = np.hstack([a, prog.free_basis])
        q, _ = np.linalg.qr(stack)
        u = t - q @ (q.T @ t)
        assert rep.size == pytest.approx(1.0 / float(u @ u), abs=1e-8, rel=1e-8)


def test_witness_side_errors():
    prog = _simple()
    with pytest.raises(NoPositiveWitness):
        prog.positive_witness(np.array([[0.0], [1.0]]))
    with pytest.raises(NoNegativeWitness):
        prog.negative_witness(np.array([[1.0], [0.0]]))


def test_free_basis_orthonormalized_on_construction():
    fb = np.array([[2.0, 2.0], [0.0, 1.0], [0.0, 0.0]])
    prog = HighLevelProgram(space_dim=3, num_inputs=1, target=[0.0, 0.0, 1.0], free_basis=fb)
    got = prog.free_basis
    assert np.allclose(got.T @ got, np.eye(got.shape[1]), atol=1e-9)
    # the span is preserved
    for col in fb.T:
        assert np.linalg.norm(col - got @ (got.T @ col)) <= 1e-9


def test_decision_invariant_under_column_rescaling():
    prog = HighLevelProgram(
        space_dim=3, num_inputs=2, target=[1.0, 2.0, 0.0], free_basis=np.zeros((3, 0))
    )
    a = RNG.standard_normal((3, 2))
    scales = np.array([3.0, 0.25])
    assert prog.evaluate(a) == prog.evaluate(a * scales)


def test_input_shape_validation():
    prog = _simple()
    with pytest.raises(ValueError):
        prog.evaluate(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        prog.evaluate(np.zeros((2, 2)))


def test_wsize_over_inputs():
    prog = _simple()
    sizes = wsize_over_inputs(
        prog, [np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])]
    )
    assert sizes.wsize_1 == pytest.approx(1.0, abs=1e-9)
    assert sizes.wsize_0 == pytest.approx(1.0, abs=1e-9)
    assert sizes.combined == pytest.approx(1.0, abs=1e-9)


def test_json_roundtrip():
    prog = HighLevelProgram(
        space_dim=3, num_inputs=2, target=[1.0, 0.0, 2.0], free_basis=[[1.0], [1.0], [0.0]]
    )
    back = HighLevelProgram.from_json(prog.to_json())
    assert back.space_dim == prog.space_dim
    assert back.num_inputs == prog.num_inputs
    assert np.allclose(back.target, prog.target)
    assert np.allclose(back.free_basis, prog.free_basis, atol=1e-12)
    a = RNG.standard_normal((3, 2))
    assert back.evaluate(a) == prog.evaluate(a)


def test_json_with_domain_note_still_loads():
    # files written by earlier versions carry a free-text domain_note; it is ignored
    data = json.loads(_simple().to_json())
    assert "domain_note" not in data
    data["domain_note"] = "entries in [-1, 1]"
    back = HighLevelProgram.from_json_dict(data)
    assert back.to_json() == _simple().to_json()
    assert back.evaluate(np.array([[2.0], [0.0]])) == 1


def test_json_missing_field_messages():
    data = json.loads(_simple().to_json())
    del data["space_dim"]
    with pytest.raises(ValueError, match="space_dim"):
        HighLevelProgram.from_json_dict(data)


# ---------------------------------------------------------------------------
# one SVD of [A - F F^T A, F] per query


def _near_tolerance_family(seed: int = 11, count: int = 3000):
    """(program, A, A + F B) for ``count`` seeded programs with n = 3..9, a
    free space of dimension 1..n and m = 0..n input columns.  Every other
    program has a last column noise away (1e-12 to 1e-6) from the span of the
    others, every fourth a target noise away from span(A) + F, every seventh
    a target inside F; B, of scale 1 to 1e3, gives A a part in F that the
    decision must not see."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(3, 10))
        f = int(rng.integers(1, n + 1))
        m = int(rng.integers(0, n + 1))
        fb = rng.standard_normal((n, f))
        a = rng.standard_normal((n, m))
        noise = 10.0 ** rng.uniform(-12, -6)
        if m >= 2 and i % 2:
            a[:, -1] = a[:, :-1] @ rng.standard_normal(m - 1) + noise * rng.standard_normal(n)
        t = a @ rng.standard_normal(m) + fb @ rng.standard_normal(f)
        if i % 4 == 2:
            t = t + noise * rng.standard_normal(n)
        if i % 7 == 3:
            t = fb @ rng.standard_normal(f)
        prog = HighLevelProgram(space_dim=n, num_inputs=m, target=t, free_basis=fb)
        b = rng.standard_normal((prog.free_basis.shape[1], m)) * 10.0 ** rng.uniform(0, 3)
        yield prog, a, a + prog.free_basis @ b


def test_decisions_ignore_the_part_of_a_in_the_free_space_and_acceptances_are_witnessed():
    flips, raises, accepted, seen = 0, [], 0, set()
    for prog, a, moved in _near_tolerance_family():
        f, t = prog.free_basis, prog.target
        seen.update(name for name, hit in (
            ("f = n", f.shape[1] == prog.space_dim),
            ("m = 0", prog.num_inputs == 0),
            ("t in F", f.shape[1] < prog.space_dim and np.linalg.norm(t - f @ (f.T @ t)) <= 1e-12 * np.linalg.norm(t)),
        ) if hit)
        decisions = prog.evaluate(a), prog.evaluate(moved)
        flips += decisions[0] != decisions[1]
        for x, decision in zip((a, moved), decisions):
            try:
                assert prog.witness(x).decision == decision
            except InconsistentSystem as exc:
                raises.append(str(exc))
            accepted += decision
    assert seen == {"f = n", "m = 0", "t in F"}
    assert accepted > 1000
    assert (flips, raises) == (0, [])


@pytest.mark.parametrize("query", ["evaluate", "witness", "positive_witness", "negative_witness"])
def test_a_query_factors_one_matrix(monkeypatch, query):
    fb = [[1.0], [1.0], [0.0]]
    prog = HighLevelProgram(space_dim=3, num_inputs=2, target=[1.0, 0.0, 2.0], free_basis=fb)
    accepted, rejected = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]), np.zeros((3, 2))
    calls, svd = [], linalg.svd
    monkeypatch.setattr(linalg, "svd", lambda *args, **kwargs: calls.append(args) or svd(*args, **kwargs))
    for a, decision in ((accepted, 1), (rejected, 0)):
        if (query, decision) in (("positive_witness", 0), ("negative_witness", 1)):
            continue
        calls.clear()
        out = getattr(prog, query)(a)
        assert (out if query == "evaluate" else out.decision) == decision
        assert len(calls) == 1


def _rank_grid():
    """(program, input) of each row of rank trials over a grid of (n, m, r),
    seeds 0..19 and 5 trials each, drawn as ``run_rank_trials`` draws them
    without a promise: rank r, then rank r - 1, each with a fresh program."""
    for n, m, r in ((4, 4, 2), (8, 8, 4), (8, 12, 3), (16, 16, 8), (32, 32, 16), (48, 64, 24)):
        for seed in range(20):
            for trial in range(5):
                rng = RngStream(seed=seed).generator(trial)
                a = random_rank_matrix(n, m, r, rng)
                yield build_rank_program(n, m, r, rng), a
                a = random_rank_matrix(n, m, r - 1, rng)
                yield build_rank_program(n, m, r, rng), a


def _compiled_inputs():
    """(source program, quantized input) of rank programs compiled as the
    compiled-witness benchmark compiles them, seeds 1..20, on and off the grid."""
    for seed in range(1, 21):
        rng = np.random.default_rng([seed, 1])
        for mode, n in (("dense", 6), ("dense", 8), ("sparse", 8)):
            hl = build_rank_program(n, n, n // 2, rng)
            comp = _compile(mode, hl, 3, 3, 3)
            for a in _rank_inputs(mode, n, n // 2, rng):
                yield hl, comp.quantize(a)


@pytest.mark.parametrize("family", [_rank_grid, _compiled_inputs], ids=["rank-grid", "compiled-inputs"])
def test_one_svd_witnesses_match_the_two_svd_reference(family):
    rows, decisions = 0, set()
    for prog, a in family():
        got, ref = prog.witness(a), reference_highlevel_witness(prog, a)
        assert got.decision == ref.decision
        assert got.size == pytest.approx(ref.size, rel=1e-10, abs=0.0)
        rows += 1
        decisions.add(got.decision)
    assert rows == (1200 if family is _rank_grid else 240) and decisions == {0, 1}
