"""The input encoding as the compiler runs it: ``grid_levels`` and
``index_bit_width``, and the bits a compiled program's ``encode`` writes and
its ``decode`` reads, against the one-code-at-a-time forms in
``references``."""

import numpy as np
import pytest

from spanforge.compiler import compile_dense, compile_sparse
from spanforge.encoding import MAX_PRECISION, grid_levels, index_bit_width
from spanforge.highlevel import HighLevelProgram
from references import digits_value, grid_values, index_bits, level_digits


def _entry_program(n: int = 1) -> HighLevelProgram:
    """A program on one input column of n entries."""
    return HighLevelProgram(space_dim=n, num_inputs=1, target=np.eye(n)[0], free_basis=np.zeros((n, 0)))


def _dense_entry(k: int):
    """A dense 1 x 1 compiled program at precision k, with the variables of
    its entry's digits, most significant first."""
    comp = compile_dense(_entry_program(), precision=k)
    return comp, comp.tables.digits[0, 0]


def _row_index(n: int):
    """A sparse_cols compiled program on one column of n entries with a
    one-slot payload, with the variables of that slot's row index."""
    comp = compile_sparse(_entry_program(n), k_nnz=1, precision=0)
    return comp, comp.tables.cols.bits[0, 0]


def _entry_at(n: int, c: int) -> np.ndarray:
    """The n x 1 matrix with -1 in row c, its one entry."""
    a = np.zeros((n, 1))
    a[c, 0] = -1.0
    return a


def _decoded_rows(comp, bits) -> list[int]:
    return np.flatnonzero(comp.decode(bits)[:, 0]).tolist()


def test_index_bit_width_values():
    assert [index_bit_width(n) for n in [1, 2, 3, 4, 5, 8, 9, 16, 17]] == [
        0, 1, 2, 2, 3, 3, 4, 4, 5,
    ]


def test_encode_int_little_endian():
    comp, index = _row_index(8)
    for c, expected in [(5, [1, 0, 1]), (6, [0, 1, 1])]:
        bits = comp.encode(_entry_at(8, c))
        assert [bits[v] for v in index] == expected
    comp, index = _row_index(1)
    assert index.size == 0 and _decoded_rows(comp, comp.encode(_entry_at(1, 0))) == [0]


def test_encode_decode_int_roundtrip():
    for n in range(1, 17):
        comp, index = _row_index(n)
        assert index.size == index_bit_width(n)
        for c in range(n):
            bits = comp.encode(_entry_at(n, c))
            assert [bits[v] for v in index] == index_bits(c, index.size)
            assert _decoded_rows(comp, bits) == [c]
            # bit i weighs 2^i: flipped, it moves the entry to row c ^ 2^i
            for i, v in enumerate(index):
                flipped = list(bits)
                flipped[v] ^= 1
                moved = c ^ (1 << i)
                assert _decoded_rows(comp, flipped) == ([moved] if moved < n else [])


def test_integer_code_value_beyond_range():
    # three bits can select up to 7 even if only 5 rows exist; a nonzero
    # routed past them reaches no row
    comp, index = _row_index(5)
    bits = list(comp.encode(_entry_at(5, 0)))
    for v in index:
        bits[v] = 1
    assert index.size == 3 and _decoded_rows(comp, bits) == []


def test_grid_values_shape():
    # the values a dense entry decodes to, over every assignment of its digits
    for k, expected in [(0, [-1.0, 0.0]), (1, [-1.0, -0.5, 0.0, 0.5])]:
        comp, _ = _dense_entry(k)
        decoded = sorted(comp.decode(np.array(d))[0, 0] for d in np.ndindex(*(2,) * (k + 1)))
        assert decoded == expected == grid_values(k)
    comp, _ = _dense_entry(2)
    g2 = sorted(comp.decode(np.array(d))[0, 0] for d in np.ndindex(2, 2, 2))
    assert len(g2) == 8
    assert g2[0] == -1.0
    assert g2[-1] == 0.75
    steps = {round(b - a, 10) for a, b in zip(g2, g2[1:])}
    assert steps == {0.25}


def test_grid_roundtrip_exact():
    for k in range(4):
        comp, digits = _dense_entry(k)
        values = grid_values(k)
        assert grid_levels(values, k).tolist() == list(range(2 ** (k + 1)))
        for level, x in enumerate(values):
            assert int(grid_levels(x, k)) == level
            bits = comp.encode([[x]])
            assert [bits[v] for v in digits] == level_digits(level, k)
            assert comp.decode(bits)[0, 0] == x


def test_encode_real_nearest_rounding():
    comp, _ = _dense_entry(1)
    for x, q in [(0.25 - 0.01, 0.0), (0.25 + 0.01, 0.5), (-0.6, -0.5), (-0.9, -1.0)]:
        assert comp.quantize([[x]])[0, 0] == q
    for k in range(4):  # either side of each midpoint, the nearer level
        mid = np.array(grid_values(k)[:-1]) + 2.0 ** -(k + 1)
        levels = np.arange(2 ** (k + 1))
        assert grid_levels(mid - 1e-9, k).tolist() == levels[:-1].tolist()
        assert grid_levels(mid + 1e-9, k).tolist() == levels[1:].tolist()


def test_encode_real_ties_round_down():
    # midpoints resolve to the lower grid level
    for k, x, q in [(1, -0.75, -1.0), (1, -0.25, -0.5), (1, 0.25, 0.0), (2, -0.875, -1.0)]:
        assert _dense_entry(k)[0].quantize([[x]])[0, 0] == q
    for k in range(4):
        mid = np.array(grid_values(k)[:-1]) + 2.0 ** -(k + 1)
        assert grid_levels(mid, k).tolist() == list(range(2 ** (k + 1) - 1))


def test_encode_real_clamps():
    for k, x, q in [(2, 1.0, 0.75), (1, 5.0, 0.5), (2, -3.0, -1.0)]:
        assert _dense_entry(k)[0].quantize([[x]])[0, 0] == q
    for k in range(4):  # past either end, level 0 or the top level
        top = 2 ** (k + 1) - 1
        assert grid_levels([-1.0 - 2.0 ** -(k + 2), -3.0, -1e308, -np.inf], k).tolist() == [0] * 4
        assert grid_levels([1.0 - 2.0 ** -(k + 1), 1.0, 5.0, 1e308, np.inf], k).tolist() == [top] * 5


def test_encode_real_msb_first_weights():
    comp, digits = _dense_entry(2)
    bits = comp.encode([[0.8]])
    assert [bits[v] for v in digits] == [1, 1, 1]
    assert comp.decode(bits)[0, 0] == 0.75
    comp, digits = _dense_entry(1)
    bits = comp.encode([[-0.5]])
    assert [bits[v] for v in digits] == [0, 1]


def test_fixed_point_value_formula():
    # digit a weighs 2^-a: every assignment of the digits decodes to their sum, minus 1
    for k in range(4):
        comp, digits = _dense_entry(k)
        for level in range(2 ** (k + 1)):
            bits = np.zeros(comp.layout.num_vars, dtype=int)
            bits[digits] = level_digits(level, k)
            assert comp.decode(bits)[0, 0] == digits_value(level_digits(level, k))


def test_fixed_point_bits_validation():
    comp, _ = _dense_entry(1)
    with pytest.raises(ValueError, match="input has 1 bits but the program has 2 variables"):
        comp.decode((1,))
    comp, _ = _dense_entry(0)
    with pytest.raises(ValueError, match="input bit 1 must be 0 or 1, got 2"):
        comp.decode((2,))


def _misencoded_levels(k):
    """Probed grid levels near 0, 2^k and 2^(k+1) that a dense entry at
    precision k does not encode MSB first or decode back to their value."""
    comp, digits = _dense_entry(k)
    probes = [*range(64), *range(2**k - 32, 2**k + 32), *range(2 ** (k + 1) - 64, 2 ** (k + 1))]
    bad = []
    for level in probes:
        x = level * 2.0**-k - 1.0
        bits = comp.encode([[x]])
        if [bits[v] for v in digits] != level_digits(level, k) or comp.decode(bits)[0, 0] != x:
            bad.append(level)
    return bad


def test_grid_roundtrip_at_the_precision_cap():
    assert MAX_PRECISION == 51
    assert _misencoded_levels(MAX_PRECISION) == []


def test_precision_past_the_cap_is_rejected(monkeypatch):
    # one step past the cap the float64 rounding already misencodes grid points
    monkeypatch.setattr("spanforge.encoding.MAX_PRECISION", 60)
    assert len(_misencoded_levels(52)) == 48
    monkeypatch.undo()
    for k in (52, 54):
        with pytest.raises(ValueError, match="precision"):
            grid_levels(0.0, k)
        with pytest.raises(ValueError, match="precision"):
            compile_dense(_entry_program(), precision=k)


def test_quantization_error_bounded():
    k = 3
    step = 2.0**-k
    comp, _ = _dense_entry(k)
    for i in range(-40, 40):
        x = i * 0.024
        if abs(x) > 1:
            continue
        q = comp.quantize([[x]])[0, 0]
        assert abs(q - x) <= step / 2 + 1e-12
