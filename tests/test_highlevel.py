import json

import numpy as np
import pytest

from spanforge.errors import NoNegativeWitness, NoPositiveWitness
from spanforge.highlevel import HighLevelProgram, wsize_over_inputs

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
