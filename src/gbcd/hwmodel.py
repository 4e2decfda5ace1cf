"""Analytical hardware models: multiplication counts, timing, power, fixed point.

Complexity is measured in real-valued multiplications, with divisions
costing the same: a complex product is 4, a complex-by-real product, a
squared magnitude or a complex-by-real division is 2, and a real product or
reciprocal is 1; additions, comparisons and conjugations are free. The
closed forms cover each datapath up to the unconstrained estimates; the
soft-output unit is common to all detectors and excluded everywhere.

Timing: one equalized vector leaves the pipeline every ``U`` clock cycles,
and switching the shared processing-element array to preprocessing idles
the equalizer for ``B + U`` cycles per coherence block. Both constants are
exposed so the model generalizes beyond the 128 x 16 design point; the
clock and the power (``F_CLK_HZ``, ``P_IDLE_WATTS``, ``P_EQU_WATTS``) are
the fabricated ASIC's alone.

The fixed-point mode is a numeric context (``FIXED_POINT``) of the one GBCD
detection path in ``detector``: every named signal is quantized to its
hardware word length and all scalar reciprocals go through a 64-segment
piecewise-linear lookup. Preprocessing, equalization and the soft outputs
are the float code itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import denoise, detector
from .channel import gen_channel, transmit
from .constellation import Constellation, make_constellation


# ---------------------------------------------------------------------------
# multiplication counts

@dataclass
class ComplexityReport:
    algorithm: str
    B: int
    U: int
    K: int | None
    preprocessing_mults: int
    per_transmission_mults: int

    def total(self, T: int) -> int:
        if T < 0:
            raise ValueError("T must be >= 0")
        return self.preprocessing_mults + T * self.per_transmission_mults


def complexity_gbcd(B: int, U: int, K: int) -> ComplexityReport:
    """Closed-form counts for the block-size-2 detector. Preprocessing: the
    Gram matrix (B U squared magnitudes, B U (U-1)/2 complex products), the
    reciprocal SINR (U (U-1) squared magnitudes, U reciprocals, 3U real
    products) and U/2 2x2 inverses (a determinant product, its reciprocal,
    two real and one complex-by-real scaling; |g12|^2 comes from the SINR
    stage). Per vector: the matched filter (B U complex products), then per
    iteration and block a 2x2 solve (4) and a residual update (2U)."""
    pre = 2 * B * U * U + U * (2 * U + 2) + 3 * U
    per = 4 * B * U + 8 * K * U + 4 * K * U * U
    return ComplexityReport("gbcd", B, U, K, pre, per)


def complexity_lmmse(B: int, U: int) -> ComplexityReport:
    """Closed-form counts for the implicit LMMSE detector. Preprocessing:
    the Gram matrix (2 B U^2) and the Cholesky factor of G + N0 I, whose
    column j costs j squared magnitudes plus, per entry below the diagonal,
    j complex products and one complex-by-real division (square roots
    uncounted). Per vector: the matched filter (B U complex products) and
    two substitutions (U (U-1)/2 complex products, U divisions each)."""
    pre = 2 * B * U * U + (2 * U ** 3 - 2 * U) // 3
    per = 4 * B * U + 4 * U * U
    return ComplexityReport("lmmse", B, U, None, pre, per)


def complexity_ocd(B: int, U: int, K: int) -> ComplexityReport:
    """Closed-form counts for one channel-domain detection task. Every task
    works from (H, y), so the column norms (B U squared magnitudes, U
    reciprocals) are per-transmission cost and the preprocessing intercept
    is zero. Each of the K U column steps costs a correlation h^H r (B
    complex products), its scaling by the reciprocal norm (one
    complex-by-real product) and the residual update (B complex products).
    These are the OCD hardware's counts: the float ``baselines.ocd_detect``
    runs the Gram-domain recursion at block size 1, which gives the same
    estimates, and ``tests/counted_reference.ocd_reference`` runs this
    datapath."""
    per = 2 * B * U + U + K * U * (8 * B + 2)
    return ComplexityReport("ocd", B, U, K, 0, per)


# ---------------------------------------------------------------------------
# timing and power

# the fabricated ASIC's clock (Hz) and its measured idle+static and
# equalizer power shares (W), which ``gbcd hwmodel``'s GBCD rows model
F_CLK_HZ = 887e6
P_IDLE_WATTS = 0.420
P_EQU_WATTS = 0.367


def throughput(T: int, order: int, U: int = 16, B: int = 128) -> float:
    """Bits per second at ``F_CLK_HZ`` for T transmissions per block."""
    if T < 1:
        raise ValueError("T must be >= 1")
    cycles_per_vector = U
    idle_cycles = B + U
    return T / (cycles_per_vector * T + idle_cycles) * math.log2(order) * U * F_CLK_HZ


def throughput_asymptote(order: int) -> float:
    """The T -> infinity limit of ``throughput``; U cancels out of it."""
    return math.log2(order) * F_CLK_HZ


def utilization(T: int, U: int = 16, B: int = 128) -> float:
    """Fraction of cycles the equalizer is busy; T / (T + 9) at 128 x 16."""
    if T < 0:
        raise ValueError("T must be >= 0")
    idle_vectors = (B + U) / U
    return T / (T + idle_vectors)


def fit_power(samples, *, U: int = 16, B: int = 128) -> tuple[float, float, float]:
    """Fit P(T) = P_idle + utilization(T, U, B) * P_equ by linear least squares.

    ``samples`` is a sequence of (T, watts) measured at the B x U design
    point. Returns (P_idle, P_equ, r_squared).
    """
    samples = list(samples)
    if len(samples) < 2:
        raise ValueError("need at least two samples")
    t = np.array([s[0] for s in samples], dtype=np.float64)
    p = np.array([s[1] for s in samples], dtype=np.float64)
    if np.all(t == t[0]):
        raise ValueError("need at least two distinct T values")
    u = np.array([utilization(x, U, B) for x in t])
    X = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(X, p, rcond=None)
    resid = p - X @ coef
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((p - p.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


# ---------------------------------------------------------------------------
# fixed-point arithmetic

@dataclass(frozen=True)
class FxpFormat:
    """A two's-complement word of ``total_bits`` bits, one of them the
    sign and ``frac_bits`` fractional, as every datapath word is."""

    total_bits: int
    frac_bits: int

    @cached_property
    def lsb(self) -> float:
        return 2.0 ** (-self.frac_bits)

    @cached_property
    def max_value(self) -> float:
        return (2 ** (self.total_bits - 1) - 1) * self.lsb

    @cached_property
    def min_value(self) -> float:
        return -(2 ** (self.total_bits - 1)) * self.lsb

    @cached_property
    def code_bounds(self) -> tuple[float, float]:
        """Saturation limits in units of the LSB."""
        return self.min_value / self.lsb, self.max_value / self.lsb


def quantize(x: np.ndarray, fmt: FxpFormat) -> np.ndarray:
    """Round-to-nearest-even quantization with saturation; idempotent.

    Returns one fresh array and leaves ``x`` as it is. A complex input is
    quantized in one pass as the two lanes of its float64 view
    (``denoise.real_view``), the result read back as complex128.
    """
    x = np.asarray(x)
    lanes = x.dtype.kind == "c"
    if lanes:
        x = denoise.real_view(x)
    lo, hi = fmt.code_bounds
    codes = np.divide(x, fmt.lsb, out=np.empty(x.shape))
    np.rint(codes, out=codes)
    np.maximum(codes, lo, out=codes)
    np.minimum(codes, hi, out=codes)
    np.multiply(codes, fmt.lsb, out=codes)
    return codes.view(np.complex128)[..., 0] if lanes else codes


# Datapath word lengths of the modeled design; fraction bits frozen from
# dynamic-range profiling at the 128 x 16 design point (QPSK..256-QAM, 0..25 dB)
# (see profile_formats; 10^4 realizations per grid point, 99.99th percentile).
DEFAULT_FORMATS = {
    "h": FxpFormat(12, 9),
    "y": FxpFormat(12, 6),
    "g": FxpFormat(15, 6),
    "ymf": FxpFormat(18, 8),
    "z": FxpFormat(11, 9),
    "llr": FxpFormat(18, 4),
}
# the antenna count B those fraction bits were profiled at: the Gram diagonal
# grows with B and saturates ``g`` beyond it, so fixed point stops there
PROFILED_B = 128

_LUT_SEGMENTS = 64
_LUT_X = 0.5 + np.arange(_LUT_SEGMENTS + 1) / (2.0 * _LUT_SEGMENTS)
_LUT_Y = 1.0 / _LUT_X


def lut_reciprocal(x):
    """Piecewise-linear reciprocal of the array ``x``, elementwise: mantissa
    lookup over [0.5, 1) in 64 segments plus exponent handling. Sign is
    carried through; a 0-d input gives a float64 scalar."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x == 0.0):
        raise ZeroDivisionError("reciprocal of zero")
    sign = np.sign(x)
    m, e = np.frexp(np.abs(x))
    idx = np.minimum((2.0 * _LUT_SEGMENTS * (m - 0.5)).astype(np.int64),
                     _LUT_SEGMENTS - 1)
    x0 = _LUT_X[idx]
    y0 = _LUT_Y[idx]
    slope = (_LUT_Y[idx + 1] - y0) * (2.0 * _LUT_SEGMENTS)
    rec_m = y0 + (m - x0) * slope
    return sign * np.ldexp(rec_m, -e)


# the modeled datapath: DEFAULT_FORMATS word lengths, lookup reciprocals
FIXED_POINT = detector.Numerics(
    lambda signal, x: quantize(x, DEFAULT_FORMATS[signal]), lut_reciprocal)


def detect_fixed_point(H: np.ndarray, y: np.ndarray, N0: float | np.ndarray,
                       const: Constellation, K: int, *,
                       denoiser=None, alpha: float | np.ndarray | None = None,
                       L: int = 2, sort: bool = True,
                       front: detector.FrontEnd | None = None
                       ) -> denoise.SoftOutput:
    """GBCD detection in the FIXED_POINT numeric context: the modeled word
    lengths on H, y, G, y_mf, z and the LLRs, and lookup-based reciprocals
    in the SINR, inverse and LLR stages. Takes one channel or a stack and
    the same ``denoiser`` (box by default) and ``alpha`` as
    ``detector.gbcd_detect``; every denoiser output is quantized as ``z``.
    ``front``, if given, is a ``detector.FrontEnd`` of these inputs in
    FIXED_POINT."""
    return detector.gbcd_detect(H, y, N0, const, K, denoiser=denoiser,
                                alpha=alpha, L=L, sort=sort,
                                numerics=FIXED_POINT, front=front)[0]


# ---------------------------------------------------------------------------
# dynamic-range profiling used to pick the fraction-bit splits

def profile_formats(B: int = 128, U: int = 16, orders=(4, 16, 64, 256),
                    snrs_db=(0.0, 10.0, 25.0), n: int = 10000,
                    seed: int = 0, percentile: float = 99.99) -> dict:
    """Record per-signal dynamic ranges and derive fraction-bit splits.

    For each signal the integer bits cover the requested percentile of the
    per-realization peak |real part| / |imaginary part|, read through a
    recording numeric context of the float detector (every denoiser output
    counts for ``z``); the remaining bits of its ``DEFAULT_FORMATS`` word
    length (one reserved for the sign) are fractional.
    """
    maxima = {k: [] for k in DEFAULT_FORMATS}
    peak = {}

    def record(signal, x):
        peak[signal] = max(peak.get(signal, 0.0), float(np.abs(x.real).max()),
                           float(np.abs(x.imag).max()))
        return x

    probe = detector.Numerics(record)
    rng = np.random.default_rng(seed)
    consts = {q: make_constellation(q) for q in orders}
    grid = [(q, s) for q in orders for s in snrs_db]
    per_point = max(1, n // len(grid))
    for q, snr in grid:
        const = consts[q]
        for _ in range(per_point):
            H = gen_channel(B, U, "nonlos", rng)
            batch = transmit(H, const, 1, snr, rng)
            detector.gbcd_detect(H, batch.Y, batch.N0, const, 3,
                                 numerics=probe)
            for key, level in peak.items():
                maxima[key].append(level)
            peak.clear()
    out = {}
    for key, vals in maxima.items():
        level = float(np.percentile(vals, percentile))
        int_bits = max(0, math.ceil(math.log2(level + 1e-12)))
        width = DEFAULT_FORMATS[key].total_bits
        out[key] = {"percentile_level": level, "int_bits": int_bits,
                    "format": FxpFormat(width, width - 1 - int_bits)}
    return out
