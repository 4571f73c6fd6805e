"""The array peel against the elimination it replaced.

``Peel.of`` runs each round of its elimination as a few numpy steps over one
(column, row, value) entry list.  The reference here is the per-pivot
elimination it replaced, kept verbatim: per-row sets of kept columns and
per-column dicts of entries, one pivot at a time.  On every input both must
find the same rounds, zero rows and merges, with bitwise equal multipliers,
and leave bitwise equal entries in every column of the merged matrix.
"""

from itertools import chain

import numpy as np
import pytest

from spanforge.compiler import compile_dense, compile_sparse
from spanforge.linalg import in_span, min_norm_solve
from spanforge.lowlevel import Columns, LowLevelProgram, Peel
from spanforge.programs import build_rank_program
from test_acceptance import CALIBRATION_SEED, _random_lowlevel, criterion_03_programs, criterion_04_fixtures

# ---------------------------------------------------------------------------
# the reference: the per-pivot elimination, verbatim


def column_rows(matrix: np.ndarray) -> list[list[int]]:
    """For each column of ``matrix``, the rows where it is nonzero."""
    return rows_by_column(*np.nonzero(matrix.T != 0), matrix.shape[1])


def rows_by_column(cols: np.ndarray, rows: np.ndarray, count: int) -> list[list[int]]:
    """The rows of (column, row) pairs sorted by column, then row, split into
    the ``count`` columns."""
    bounds = np.searchsorted(cols, np.arange(count + 1)).tolist()
    rows = rows.tolist()
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def column_entries(matrix: np.ndarray, pattern=None) -> list[dict[int, float]]:
    """For each column of ``matrix``, a map from the rows where it is nonzero
    to its entries; ``pattern`` is its ``column_rows`` when given."""
    pattern = column_rows(matrix) if pattern is None else pattern
    lengths = [len(rows) for rows in pattern]
    at = np.fromiter(chain.from_iterable(pattern), np.intp, sum(lengths))
    values = iter(matrix[at, np.repeat(np.arange(len(pattern)), lengths)].tolist())
    return [dict(zip(rows, values)) for rows in pattern]  # zip stops at the end of rows, before reading values


class _Elimination:
    """A peel in progress on the merged matrix.  ``columns[j]`` maps each row
    where column j is nonzero to its entry, dropped rows included; a column
    is copied before its first merge, so the maps handed in are only read.
    ``lines[i]`` is the set of kept columns nonzero on kept row i.  The next
    rounds look at the rows where the target is 0 that were left with one
    kept column (``ends``) or two (``twos``) since they last looked."""

    def __init__(self, columns: list[dict], open_rows: list[bool]):
        self.columns, self.open, self.copied = list(columns), open_rows, set()
        self.lines = lines = [set() for _ in open_rows]
        for j, col in enumerate(columns):
            for i in col:
                lines[i].add(j)
        self.row_kept = [True] * len(open_rows)
        self.ends = {i for i, line in enumerate(lines) if len(line) == 1 and open_rows[i]}
        self.twos = {i for i, line in enumerate(lines) if len(line) == 2 and open_rows[i]}

    def _moved(self, i: int, line: set) -> None:
        """Kept row i lost or gained a kept column, leaving ``line``."""
        if self.open[i]:
            if len(line) == 1:
                self.ends.add(i)
            elif len(line) == 2:
                self.twos.add(i)

    def drop(self, i: int, j: int) -> None:
        self.row_kept[i] = False
        lines, kept = self.lines, self.row_kept
        for k in self.columns[j]:
            if kept[k]:
                line = lines[k]
                line.discard(j)
                if len(line) <= 2:
                    self._moved(k, line)

    def dead_ends(self) -> tuple[list[int], list[int]]:
        """One round of dead ends: every kept row where the target is 0 with
        exactly one kept column pairs with it, unless an earlier row of the
        round took it, and both are dropped.  Returns the rows and their
        columns."""
        pivots = {}  # column -> its row
        for i in sorted(self.ends):
            if self.row_kept[i] and len(self.lines[i]) == 1:
                pivots.setdefault(next(iter(self.lines[i])), i)
        self.ends = set()
        for j, i in pivots.items():
            self.drop(i, j)
        return list(pivots.values()), list(pivots)

    def doubletons(self) -> tuple[list[int], list[int], list[int], list[float]]:
        """One round of doubletons: every kept row r where the target
        is 0 with exactly two kept columns pivots on k, the column of its
        larger entry (the later one on a tie), and merges it into the other,
        j: ``a_j <- a_j - m a_k`` with ``m = A[r, j] / A[r, k]``, so ``|m| <=
        1`` and row r is left a dead end of column k; both are dropped.  A row
        waits for a later round when an earlier row of this one pivots on j
        or on k, or merges into k.  So no column a round pivots on is nonzero
        on another row of the round, its merges reach none of them, and they
        commute.  Returns the rows, j, k and m."""
        pivoted, merged, waiting, pivots = set(), set(), set(), []
        for r in sorted(self.twos):
            line = self.lines[r]
            if len(line) != 2 or not self.row_kept[r]:
                continue
            a, b = line
            if a > b:
                a, b = b, a
            j, k = (a, b) if abs(self.columns[b][r]) >= abs(self.columns[a][r]) else (b, a)
            if j in pivoted or k in pivoted or k in merged:
                waiting.add(r)
                continue
            pivoted.add(k)
            merged.add(j)
            pivots.append((r, j, k, self.columns[j][r] / self.columns[k][r]))
        self.twos = waiting
        for r, j, k, m in pivots:
            self.merge(r, j, k, m)
            self.drop(r, k)
        return tuple(map(list, zip(*pivots))) if pivots else ([], [], [], [])

    def merge(self, r: int, j: int, k: int, m: float) -> None:
        """``a_j <- a_j - m a_k``, with the entry at row r set to 0 and exact
        cancellations dropped from the pattern."""
        if j not in self.copied:
            self.columns[j] = dict(self.columns[j])
            self.copied.add(j)
        col = self.columns[j]
        del col[r]
        self.lines[r].discard(j)
        for i, v in self.columns[k].items():
            if i == r:
                continue
            had, new = i in col, col.get(i, 0.0) - m * v
            if new:
                col[i] = new
            elif had:
                del col[i]
            if had != bool(new) and self.row_kept[i]:  # fill, or an exact cancellation
                line = self.lines[i]
                if new:
                    line.add(j)
                else:
                    line.discard(j)
                self._moved(i, line)


def reference_peel(matrix: np.ndarray, target: np.ndarray):
    """The loop of the per-pivot ``Peel.of``, returning its rounds, zero
    rows, merged column maps and merges (it also skipped the elimination
    where no row could pivot, which changes none of them)."""
    open_rows = target == 0
    columns = column_entries(matrix)
    state = _Elimination(columns, open_rows.tolist())
    rounds, merges = [], []
    while True:
        rows, cols = state.dead_ends()
        if rows:
            rounds.append((rows, cols))
            continue
        rows, js, ks, ms = state.doubletons()
        if not rows:
            break
        rounds.append((rows, ks))
        merges.append((np.array(js, dtype=np.intp), np.array(ks, dtype=np.intp), np.array(ms)))
    zero = [i for i, (kept, line, is_open) in enumerate(zip(state.row_kept, state.lines, state.open))
            if kept and is_open and not line]
    return rounds, zero, state.columns, merges


# ---------------------------------------------------------------------------
# the array peel against it


def assert_matches_reference(peel: Peel, matrix: np.ndarray, target: np.ndarray) -> None:
    """``peel`` is the reference's peel of ``matrix``, bit for bit."""
    rounds, zero, columns, merges = reference_peel(matrix, target)
    assert [(rows.tolist(), cols.tolist()) for rows, cols in peel.rounds] == rounds
    assert peel.zero == zero
    assert len(peel.merges) == len(merges)
    for (js, ks, ms), (ref_js, ref_ks, ref_ms) in zip(peel.merges, merges):
        assert js.tolist() == ref_js.tolist() and ks.tolist() == ref_ks.tolist()
        assert ms.tobytes() == ref_ms.tobytes()
    # column by column, each in the order its entries entered it
    expected = [(j, i, v) for j, col in enumerate(columns) for i, v in col.items()]
    cols, rows, values = peel.nonzeros
    assert list(zip(cols.tolist(), rows.tolist())) == [(j, i) for j, i, _ in expected]
    assert values.tobytes() == np.array([v for _, _, v in expected], dtype=float).tobytes()


def assert_program_peel_matches(prog: LowLevelProgram, bits) -> Peel:
    """The peel of ``bits`` on the columns of the store of ``prog`` that
    ``available_vectors`` gathers matches the reference; returns it."""
    avail = prog.available_vectors(bits)
    peel = Peel.of(avail, prog.target)
    assert_matches_reference(peel, avail.toarray(), prog.target)
    return peel


def _bits(assignment: int, num_vars: int) -> tuple:
    return tuple((assignment >> i) & 1 for i in range(num_vars))


def _sparse_criterion_01_program(rng) -> LowLevelProgram:
    """A program of criterion 01's sizes (``_random_lowlevel``) with about
    half its entries zeroed and all but one or more of its target
    coordinates set to 0, so that rows where the target is 0 and one or two
    available columns are nonzero peel."""
    prog = _random_lowlevel(rng)
    store, target = np.array(prog.store.toarray()), np.array(prog.target)
    store[rng.random(store.shape) < 0.5] = 0.0
    target[rng.choice(prog.dim, size=int(rng.integers(0, prog.dim)), replace=False)] = 0.0
    return LowLevelProgram.from_store(prog.num_vars, target, Columns.of(store), prog.num_free, prog.var, prog.val,
                                      prog.tol)


def test_peel_matches_the_reference_on_criterion_01_queries():
    """The criterion's own programs (their targets have no zero coordinate,
    so nothing peels), then 500 sparse ones with zero target
    coordinates, many of whose queries peel."""
    rng = np.random.default_rng(CALIBRATION_SEED)
    for _ in range(1000):
        prog = _random_lowlevel(rng)
        for assignment in range(2**prog.num_vars):
            assert_program_peel_matches(prog, _bits(assignment, prog.num_vars))
    rng, peeled, queries = np.random.default_rng(CALIBRATION_SEED + 1), 0, 0
    for _ in range(500):
        prog = _sparse_criterion_01_program(rng)
        for assignment in range(2**prog.num_vars):
            peeled += bool(assert_program_peel_matches(prog, _bits(assignment, prog.num_vars)).rounds)
            queries += 1
    assert peeled > queries // 4


def test_peel_matches_the_reference_on_criterion_03_queries():
    """Every assignment of the smaller fixtures, and 64 spread over each
    larger one (an odd stride, so that every bit varies)."""
    for _, comp in criterion_03_programs():
        count = 2**comp.layout.num_vars
        for assignment in range(0, count, max(1, count // 64) | 1):
            assert_program_peel_matches(comp.program, _bits(assignment, comp.layout.num_vars))


def test_peel_matches_the_reference_on_criterion_04_queries():
    for _, comp, a, _ in criterion_04_fixtures():
        assert_program_peel_matches(comp.program, comp.encode(a))


def _rank_queries(n: int, k: int, nnz, rng):
    """Grid matrices for the rank-(n/2) program, at most ``nnz`` nonzeros
    per row and column when given: random ones, accepted, each followed by
    itself with all but n/2 - 1 columns zeroed, rejected."""
    for _ in range(3):
        a = rng.integers(-(2**k), 2**k, size=(n, n)) / 2.0**k
        if nnz is not None:
            a = np.zeros((n, n))
            for _ in range(nnz):
                a[np.arange(n), rng.permutation(n)] = rng.integers(1, 2**k, size=n) / 2.0**k
        yield a
        a[:, n // 2 - 1 :] = 0.0
        yield a


@pytest.mark.parametrize("mode, n", [("dense", 6), ("dense", 8), ("sparse", 8)])
def test_peel_matches_the_reference_on_compiled_rank_programs(mode, n):
    rng = np.random.default_rng(7)
    hl = build_rank_program(n, n, n // 2, rng)
    comp = compile_dense(hl, precision=3) if mode == "dense" else compile_sparse(hl, k_nnz=3, l_nnz=3, precision=3)
    decisions = set()
    for a in _rank_queries(n, 3, None if mode == "dense" else 3, rng):
        bits = comp.encode(a)
        peel = assert_program_peel_matches(comp.program, bits)
        assert peel.merges and comp.program._decide(bits, comp.program.tol)[0].block.shape == peel.block.shape
        decisions.add(comp.program.evaluate(bits))
    assert decisions == {0, 1}


def test_doubleton_round_takes_a_row_after_one_that_waits():
    """Rows 0, 1 and 2 are doubletons on columns (0, 1), (0, 2) and (2, 3),
    each pivoting on its larger entry: row 0 on column 1, merging into
    column 0; row 1 on column 0, which row 0 merges into, so it waits; row 2
    on column 2, merging into column 3.  Row 2 shares column 2 with row 1,
    an earlier row of the round, but not with a row the round takes, so the
    round takes it; a rule where the first row of each column takes it
    would make row 2 wait for row 1."""
    prog = LowLevelProgram(
        dim=4, num_vars=0, target=[0.0, 0.0, 0.0, 1.0],
        free=([1.0, 2.0, 0.0, 1.0], [2.0, 0.0, 0.0, 1.0], [0.0, 1.0, 2.0, 1.0], [0.0, 0.0, 1.0, 1.0]),
    )
    avail = prog.available_vectors("").toarray()
    peel = Peel.of(Columns.of(avail), prog.target)
    assert_matches_reference(peel, avail, prog.target)
    assert [(rows.tolist(), cols.tolist()) for rows, cols in peel.rounds] == [([0, 2], [1, 2]), ([1], [0])]
    assert [(js.tolist(), ks.tolist(), ms.tolist()) for js, ks, ms in peel.merges] == [
        ([0, 3], [1, 2], [0.5, 0.5]), ([3], [0], [-0.25])]
    # column 3 gains -1/2 on row 1 from column 2, then 1/4 of column 0 on row 3
    assert peel.block.tolist() == [[0.625]]
    dec, resid, decision = in_span(peel.block, peel.target, prog.tol, full_matrices=True)
    assert decision == 1 and peel.stands(dec, float(np.linalg.norm(resid)), prog.tol)
    w = peel.lift(min_norm_solve(peel.block, peel.target, prog.tol, dec), dec.vt[dec.rank :].T)
    assert w == pytest.approx(np.linalg.pinv(avail) @ prog.target, abs=1e-14)


def test_merges_into_one_entry_are_applied_in_row_order():
    """Rows 0..8 are doubletons of column 0 and columns 1..9, ties that
    pivot on the later column, so one round merges all nine into column 0.
    Each subtracts -2^-53 from its entry on row 9: one at a time, 1.0 stays
    1.0 (the halfway sum rounds to even), while the nine summed first would
    move it by 4 ulp."""
    store = np.zeros((10, 10))
    store[:9, 0] = store[9, 0] = 1.0
    store[np.arange(9), np.arange(1, 10)] = 1.0
    store[9, 1:] = -(2.0**-53)
    target = np.eye(10)[9]
    peel = Peel.of(Columns.of(store), target)
    assert_matches_reference(peel, store, target)
    assert [(rows.tolist(), cols.tolist()) for rows, cols in peel.rounds] == [(list(range(9)), list(range(1, 10)))]
    assert peel.merges[0][0].tolist() == [0] * 9 and peel.merges[0][2].tolist() == [1.0] * 9
    assert 1.0 + 9 * 2.0**-53 != 1.0
    cols, rows, values = peel.nonzeros
    assert values[(cols == 0) & (rows == 9)].tolist() == [1.0] and peel.block.tolist() == [[1.0]]
