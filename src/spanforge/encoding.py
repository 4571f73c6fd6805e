"""The grid and index widths of the compiler's input encoding, whose bits
``CompiledProgram.encode``/``decode`` write and read over their tables.

Reals use the offset fixed-point form x = sum_{i=0..k} x_i 2^-i - 1, which
covers the grid from -1 to 1 - 2^-k in steps of 2^-k.  Integers in [0, n)
use little-endian binary with ceil(log2 n) bits; n = 1 needs zero bits.
"""

from __future__ import annotations

import math

import numpy as np

# Largest fixed-point precision k.  grid_levels rounds (x + 1) * 2^k, which
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


def grid_levels(x, k: int) -> np.ndarray:
    """Integer grid levels of the reals ``x`` (a scalar or an array) at
    precision k: (x + 1) * 2^k rounded to the nearest integer, half-way cases
    down, and clamped to [0, 2^(k+1) - 1].  Values past [-2, 2] clamp first,
    so no finite x overflows the scaling."""
    check_precision(k)
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("cannot encode NaN")
    scaled = (np.clip(x, -2.0, 2.0) + 1.0) * 2.0**k
    return np.clip(np.ceil(scaled - 0.5), 0, 2 ** (k + 1) - 1).astype(np.int64)
