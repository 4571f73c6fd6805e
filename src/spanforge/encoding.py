"""Binary encodings of bounded reals and of integer indices.

Reals use the offset fixed-point form x = sum_{i=0..k} x_i 2^-i - 1, which
covers the grid from -1 to 1 - 2^-k in steps of 2^-k.  Integers in [0, n)
use little-endian binary with ceil(log2 n) bits; n = 1 needs zero bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Largest fixed-point precision k.  encode_real rounds (x + 1) * 2^k, which
# runs up to 2^(k+1); from 2^52 on float64 steps by whole numbers and loses
# the half that the rounding subtracts, so at k >= 52 grid points start to
# encode as a neighbour.
MAX_PRECISION = 51


def check_precision(k: int, name: str = "precision") -> None:
    if not 0 <= k <= MAX_PRECISION:
        raise ValueError(f"{name} must be within [0, {MAX_PRECISION}], got {k}")


def index_bit_width(n: int) -> int:
    """Bits needed to address n slots; 0 when there is a single slot."""
    if n < 1:
        raise ValueError(f"need at least one slot, got {n}")
    return max(0, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class IntegerCode:
    """Little-endian binary encoding of an index: c = sum bits[i] * 2^i."""

    width: int
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != self.width:
            raise ValueError(f"expected {self.width} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0/1, got {self.bits}")

    @property
    def value(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))


def encode_int(c: int, n: int) -> IntegerCode:
    width = index_bit_width(n)
    if not 0 <= c < n:
        raise ValueError(f"index {c} outside [0, {n})")
    return IntegerCode(width=width, bits=tuple((c >> i) & 1 for i in range(width)))


@dataclass(frozen=True)
class FixedPointCode:
    """Offset fixed-point real: value = sum_{i=0..k} bits[i] * 2^-i - 1."""

    precision: int
    bits: tuple[int, ...]

    def __post_init__(self):
        check_precision(self.precision)
        if len(self.bits) != self.precision + 1:
            raise ValueError(f"expected {self.precision + 1} bits, got {len(self.bits)}")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0/1, got {self.bits}")

    @property
    def value(self) -> float:
        return sum(b * 2.0**-i for i, b in enumerate(self.bits)) - 1.0


def encode_real(x: float, k: int) -> FixedPointCode:
    """Round x to the nearest grid point, ties broken downward, then encode.

    The grid is {-1, -1 + 2^-k, ..., 1 - 2^-k}; inputs are expected in
    [-1, 1] and anything outside clamps to the nearest end of the grid.
    """
    check_precision(k)
    scaled = (x + 1.0) * 2.0**k
    level = math.ceil(scaled - 0.5)  # nearest integer, half-way cases go down
    level = min(max(level, 0), 2 ** (k + 1) - 1)
    # bits[i] carries weight 2^(k-i) in the integer level
    return FixedPointCode(precision=k, bits=tuple((level >> (k - i)) & 1 for i in range(k + 1)))


def grid_values(k: int) -> list[float]:
    """All representable values at precision k, ascending."""
    return [level * 2.0**-k - 1.0 for level in range(2 ** (k + 1))]
