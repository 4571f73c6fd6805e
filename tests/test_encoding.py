import math

import pytest

from spanforge.encoding import (
    MAX_PRECISION,
    FixedPointCode,
    IntegerCode,
    encode_int,
    encode_real,
    grid_values,
    index_bit_width,
)


def test_index_bit_width_values():
    assert [index_bit_width(n) for n in [1, 2, 3, 4, 5, 8, 9, 16, 17]] == [
        0, 1, 2, 2, 3, 3, 4, 4, 5,
    ]


def test_encode_int_little_endian():
    code = encode_int(5, 8)
    assert code.bits == (1, 0, 1)
    assert code.value == 5
    assert encode_int(0, 1).bits == ()


def test_encode_decode_int_roundtrip():
    for n in range(1, 17):
        for c in range(n):
            code = encode_int(c, n)
            assert len(code.bits) == index_bit_width(n)
            assert IntegerCode(width=len(code.bits), bits=code.bits).value == c


def test_encode_int_range_errors():
    with pytest.raises(ValueError):
        encode_int(3, 3)
    with pytest.raises(ValueError):
        encode_int(-1, 4)


def test_integer_code_value_beyond_range():
    # three bits can select up to 7 even if only 5 leaves exist
    code = IntegerCode(width=3, bits=(1, 1, 1))
    assert code.value == 7


def test_grid_values_shape():
    assert grid_values(0) == [-1.0, 0.0]
    assert grid_values(1) == [-1.0, -0.5, 0.0, 0.5]
    g2 = grid_values(2)
    assert len(g2) == 8
    assert g2[0] == -1.0
    assert g2[-1] == 0.75
    steps = {round(b - a, 10) for a, b in zip(g2, g2[1:])}
    assert steps == {0.25}


def test_grid_roundtrip_exact():
    for k in range(4):
        for x in grid_values(k):
            code = encode_real(x, k)
            assert FixedPointCode(precision=k, bits=code.bits).value == pytest.approx(x, abs=0)


def test_encode_real_nearest_rounding():
    assert encode_real(0.25 - 0.01, 1).value == 0.0
    assert encode_real(0.25 + 0.01, 1).value == 0.5
    assert encode_real(-0.6, 1).value == -0.5
    assert encode_real(-0.9, 1).value == -1.0


def test_encode_real_ties_round_down():
    # midpoints resolve to the lower grid level
    assert encode_real(-0.75, 1).value == -1.0
    assert encode_real(-0.25, 1).value == -0.5
    assert encode_real(0.25, 1).value == 0.0
    assert encode_real(-0.875, 2).value == -1.0


def test_encode_real_clamps():
    assert encode_real(1.0, 2).value == 0.75
    assert encode_real(5.0, 1).value == 0.5
    assert encode_real(-3.0, 2).value == -1.0


def test_encode_real_msb_first_weights():
    code = encode_real(0.8, 2)
    assert code.bits == (1, 1, 1)
    assert code.value == 0.75
    code = encode_real(-0.5, 1)
    assert code.bits == (0, 1)


def test_fixed_point_value_formula():
    for k in range(4):
        for level in range(2 ** (k + 1)):
            bits = tuple((level >> (k - i)) & 1 for i in range(k + 1))
            code = FixedPointCode(precision=k, bits=bits)
            expected = sum(b * 2.0**-i for i, b in enumerate(bits)) - 1.0
            assert code.value == pytest.approx(expected, abs=0)


def test_fixed_point_bits_validation():
    with pytest.raises(ValueError):
        FixedPointCode(precision=1, bits=(1,))
    with pytest.raises(ValueError):
        FixedPointCode(precision=0, bits=(2,))


def _misencoded_levels(k):
    """Probed grid levels near 0, 2^k and 2^(k+1) that do not round-trip."""
    probes = [*range(64), *range(2**k - 32, 2**k + 32), *range(2 ** (k + 1) - 64, 2 ** (k + 1))]
    bad = []
    for level in probes:
        x = level * 2.0**-k - 1.0
        bits = tuple((level >> (k - i)) & 1 for i in range(k + 1))
        if encode_real(x, k).bits != bits or FixedPointCode(precision=k, bits=bits).value != x:
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
            encode_real(0.0, k)
        with pytest.raises(ValueError, match="precision"):
            FixedPointCode(precision=k, bits=(0,) * (k + 1))


def test_quantization_error_bounded():
    k = 3
    step = 2.0**-k
    for i in range(-40, 40):
        x = i * 0.024
        if abs(x) > 1:
            continue
        q = encode_real(x, k).value
        assert abs(q - x) <= step / 2 + 1e-12
