"""Gray-mapped square QAM alphabets.

Labels are split per axis: the first half of a symbol's bits is the Gray
label of its real-axis PAM level, the second half the imaginary-axis label.
Every bit therefore depends on exactly one axis, which lets the soft-output
stage replace full alphabet scans with sqrt(Q)-point scans per axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SUPPORTED_ORDERS = (4, 16, 64, 256)


def _gray(n: int) -> np.ndarray:
    i = np.arange(n)
    return i ^ (i >> 1)


def _bits_msb_first(values: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width - 1, -1, -1)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8)


@dataclass(frozen=True)
class Constellation:
    """Square QAM alphabet with unit average symbol energy."""

    order: int
    points: np.ndarray       # (Q,) complex128
    bit_labels: np.ndarray   # (Q, log2 Q) uint8, real-axis bits first
    pam_points: np.ndarray   # (sqrt Q,) ascending real levels, scaled
    scale: float             # multiplier taking the odd-integer grid to pam_points
    label_to_index: np.ndarray  # label integer -> point index

    @property
    def bits_per_symbol(self) -> int:
        return int(self.bit_labels.shape[1])

    @property
    def n_pam(self) -> int:
        return int(self.pam_points.size)

    @property
    def axis_bits(self) -> int:
        return self.bits_per_symbol // 2

    @property
    def max_amplitude(self) -> float:
        """Half-width of the clipping box enclosing the alphabet."""
        return float(self.pam_points[-1])

    @functools.cached_property
    def _pam_bit_subsets(self) -> tuple:
        """Per axis bit: read-only indices into pam_points with that bit 0 / 1."""
        g = _gray(self.n_pam)
        subsets = []
        for shift in range(self.axis_bits - 1, -1, -1):
            mask = (g >> shift) & 1
            pair = np.flatnonzero(mask == 0), np.flatnonzero(mask == 1)
            for cols in pair:
                cols.flags.writeable = False
            subsets.append(pair)
        return tuple(subsets)

    def pam_bit_indices(self, axis_bit: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices into pam_points whose Gray label has the given axis bit
        equal to 0 / 1 (read-only, computed once per constellation)."""
        return self._pam_bit_subsets[axis_bit]


def make_constellation(order: int) -> Constellation:
    """Build the Gray-mapped square QAM alphabet of the given order."""
    if order not in SUPPORTED_ORDERS:
        raise ValueError(f"unsupported constellation order {order}; "
                         f"supported: {SUPPORTED_ORDERS}")
    n = math.isqrt(order)
    axis_bits = n.bit_length() - 1
    levels = np.arange(-(n - 1), n, 2).astype(np.float64)
    scale = 1.0 / math.sqrt(2.0 * float(np.mean(levels ** 2)))
    pam = levels * scale

    re_idx, im_idx = np.divmod(np.arange(order), n)
    points = pam[re_idx] + 1j * pam[im_idx]

    gray = _gray(n)
    labels = np.concatenate(
        [_bits_msb_first(gray[re_idx], axis_bits),
         _bits_msb_first(gray[im_idx], axis_bits)],
        axis=1,
    )
    weights = 1 << np.arange(2 * axis_bits - 1, -1, -1)
    label_ints = labels @ weights
    label_to_index = np.empty(order, dtype=np.int64)
    label_to_index[label_ints] = np.arange(order)

    return Constellation(order, points, labels, pam, float(scale),
                         label_to_index)


def symbol_indices_from_bits(const: Constellation, bits: np.ndarray) -> np.ndarray:
    """Map bit groups (..., log2 Q) to alphabet indices."""
    m = const.bits_per_symbol
    if bits.shape[-1] != m:
        raise ValueError(f"expected trailing dimension {m}, got {bits.shape[-1]}")
    weights = 1 << np.arange(m - 1, -1, -1)
    label_ints = bits.astype(np.int64) @ weights
    return const.label_to_index[label_ints]


def hard_decision_indices(const: Constellation, v: np.ndarray,
                          gain: float | np.ndarray = 1.0) -> np.ndarray:
    """Nearest-symbol decision per axis against the gain-scaled PAM grid.

    `gain` broadcasts against `v` (per-UE channel gains, typically mu).
    Per axis value x the index is the first i minimizing |x - g a_i| over
    the ascending levels a_i, found without an argmin: for g >= 0 the
    differences s_i = x - g a_i are nonincreasing in i, because IEEE
    rounding is monotone, so the first minimizer is the count of s_i above
    m = min_j |s_j|, and s_i > m holds exactly when s_i > 0 and
    |s_i| > m. A negative gain is folded into x: -x - |g| a_i is exactly
    -s_i, with the same magnitudes. The count equals the argmin for every
    x and gain, NaN and infinities included, except when x is infinite and
    some g a_i overflows (only there can s mix NaN with numbers).
    """
    v = np.asarray(v)
    g = np.asarray(gain, dtype=np.float64)
    shape = np.broadcast_shapes(v.shape, g.shape)
    g = np.broadcast_to(g, shape)
    sign = np.where(g < 0, -1.0, 1.0)
    g_abs = np.abs(g).reshape(-1)
    levels = const.pam_points[:, None]

    def nearest(axis):
        # level-major (sqrt Q, size), one float buffer alive at a time: the
        # product is remade per axis, as a second buffer of this size costs
        # more in allocation than the product (README, "Hard decisions")
        s = np.multiply(levels, g_abs)
        np.subtract(np.multiply(axis, sign).reshape(-1), s, out=s)
        above = s > 0
        np.abs(s, out=s)
        above &= s > np.minimum.reduce(s, axis=0)
        # at most sqrt(Q) - 1 <= 15 levels lie above: uint8 counts exactly
        return np.add.reduce(above.view(np.uint8), axis=0, dtype=np.uint8)

    idx = nearest(v.real).astype(np.intp)
    idx *= const.n_pam
    idx += nearest(v.imag)
    return idx.reshape(shape)
