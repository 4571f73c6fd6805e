"""The peel's sweep and bounds against their form before the bookkeeping of
``Peel.of`` was rewritten.

``tests/test_peel_reference.py`` pins the rounds, merges and merged entries
of ``Peel.of``.  Here ``Peel.extend`` and the four bounds of ``Peel.stands``
(``Peel.bounds``) are checked against ``reference_extend`` and
``reference_bounds``, kept verbatim from before the rewrite: on every
query, N's (row, column, value) entries and xi, kappa, grow and shrink must
be bitwise equal.
"""

import numpy as np
import pytest

from references import reference_bounds, reference_extend
from spanforge.compiler import compile_dense, compile_sparse
from spanforge.linalg import in_span
from spanforge.lowlevel import LowLevelProgram, Peel
from spanforge.programs import build_rank_program
from test_acceptance import CALIBRATION_SEED, criterion_03_programs, criterion_04_fixtures
from test_peel_reference import _bits, _rank_queries, _sparse_criterion_01_program


def assert_sweep_matches_reference(prog: LowLevelProgram, bits) -> Peel:
    """The peel of ``bits`` extends the complement of its block's span, and
    bounds its pivots, as the reference does, bit for bit; returns it."""
    peel = Peel.of(prog.available_vectors(bits), prog.target)
    dec = in_span(peel.block, peel.target, prog.tol, full_matrices=True)[0]
    basis = dec.u[:, dec.rank :]
    for got, want in zip(peel.extend(basis), reference_extend(peel, basis)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if peel.rounds:
        assert np.array(peel.bounds()).tobytes() == np.array(reference_bounds(peel)).tobytes()
    return peel


@pytest.mark.parametrize("seed", [7, 402])
@pytest.mark.parametrize("mode, n", [("dense", 6), ("dense", 8), ("sparse", 8)])
def test_sweep_matches_the_reference_on_compiled_rank_programs(mode, n, seed):
    rng = np.random.default_rng(seed)
    hl = build_rank_program(n, n, n // 2, rng)
    comp = compile_dense(hl, precision=3) if mode == "dense" else compile_sparse(hl, k_nnz=3, l_nnz=3, precision=3)
    for a in _rank_queries(n, 3, None if mode == "dense" else 3, rng):
        assert assert_sweep_matches_reference(comp.program, comp.encode(a)).merges


def test_sweep_matches_the_reference_on_criterion_01_queries():
    rng, peeled, queries = np.random.default_rng(CALIBRATION_SEED + 1), 0, 0
    for _ in range(200):
        prog = _sparse_criterion_01_program(rng)
        for assignment in range(2**prog.num_vars):
            peeled += bool(assert_sweep_matches_reference(prog, _bits(assignment, prog.num_vars)).rounds)
            queries += 1
    assert peeled > queries // 4


def test_sweep_matches_the_reference_on_criterion_03_queries():
    for _, comp in criterion_03_programs():
        count = 2**comp.layout.num_vars
        for assignment in range(0, count, max(1, count // 64) | 1):
            assert_sweep_matches_reference(comp.program, _bits(assignment, comp.layout.num_vars))


def test_sweep_matches_the_reference_on_criterion_04_queries():
    for _, comp, a, _ in criterion_04_fixtures():
        assert_sweep_matches_reference(comp.program, comp.encode(a))
