"""Symbol denoisers and soft-output computation.

Three denoisers are provided:

* BOX -- per-axis clipping onto the tightest box around the alphabet.
* Exact posterior mean -- the MMSE-optimal estimate of a PAM symbol under a
  Gaussian noise model, evaluated per axis with log-sum-exp stabilization.
* Piecewise-linear posterior mean -- a sum of clipped ramps that replaces
  the exponentials, parameterized by a slope ``rho`` and a half-spacing
  ``beta``. Its raw output lives on the odd-integer PAM grid; the detector
  rescales it by the constellation scale factor.

``build_plm_table`` renders the piecewise posterior mean as a slope/bias
lookup table (``PlmTable``), the form a fixed-point datapath evaluates;
``PmeDenoiser`` evaluates its iterations through such tables.

The max-log soft outputs take each Gray bit's minima over the distances of
``_gray_subsets``; the deep-unfolding trainer takes its metric and argmins
from the same pass. The distances are level-major, (sqrt Q,) + x.shape, so
a subset's minimum is an elementwise reduce over whole planes rather than a
scan along a trailing axis only sqrt(Q) = 2..16 long; the hard decisions of
``constellation.hard_decision_indices`` are level-major for the same
reason, and count the levels above the nearest one instead of taking an
argmin (exact because x - g a is monotone in the level).

LLR sign convention, fixed package-wide: positive LLR means bit 1 is more
likely; ``llr_to_prob`` maps LLR to P(bit = 1).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import starmap

import numpy as np

from .constellation import Constellation

XI_FLOOR_FACTOR = 1e-9


# ---------------------------------------------------------------------------
# denoisers

def real_view(v: np.ndarray) -> np.ndarray:
    """The float64 view (..., 2) of a complex array: the real and imaginary
    part of each entry as two lanes of one C-contiguous array. No copy for
    a C-contiguous complex128 ``v``; another layout or dtype is copied
    first. A C-contiguous (..., 2) result of a lane-wise computation reads
    back as complex, of ``v``'s shape, with ``.view(np.complex128)[..., 0]``.
    """
    v = np.asarray(v, dtype=np.complex128)
    if not v.flags.c_contiguous:
        v = np.ascontiguousarray(v)
    return v[..., None].view(np.float64)


def box_denoise(v: np.ndarray, const: Constellation) -> np.ndarray:
    """Clip real and imaginary parts independently to the alphabet box, as
    the two lanes of ``real_view(v)``, into one fresh array."""
    a = const.max_amplitude
    out = np.maximum(real_view(v), -a)
    np.minimum(out, a, out=out)
    return out.view(np.complex128)[..., 0]


def pme_exact(v_axis: np.ndarray, omega: float, beta: float,
              pam_points: np.ndarray) -> np.ndarray:
    """Posterior mean of a PAM symbol given v = beta*s + Gaussian noise.

    ``omega`` is the noise precision scale; output is a weighted average of
    ``pam_points``. Stabilized by subtracting the dominant exponent.
    """
    if omega <= 0 or beta <= 0:
        raise ValueError("omega and beta must be positive")
    v = np.asarray(v_axis, dtype=np.float64)
    d = -omega * (v[..., None] - beta * pam_points) ** 2
    d -= d.max(axis=-1, keepdims=True)
    w = np.exp(d)
    return (w @ pam_points) / w.sum(axis=-1)


def pme_piecewise(v_axis: np.ndarray, rho: float, beta: float,
                  order: int) -> np.ndarray:
    """Piecewise-linear posterior-mean approximation for sqrt(order)-PAM.

    Sum of clipped unit ramps centered at multiples of 2*beta; output spans
    the odd-integer grid [-(sqrt(order)-1), +(sqrt(order)-1)].
    """
    if rho <= 0 or beta <= 0:
        raise ValueError("rho and beta must be positive")
    v = np.asarray(v_axis, dtype=np.float64)
    gamma = math.isqrt(order) // 2 - 1
    # summing the +k/-k ramps as pairs keeps the map exactly odd
    out = np.clip(rho * v, -1.0, 1.0)
    for k in range(1, gamma + 1):
        out = out + (np.clip(rho * (v + 2.0 * beta * k), -1.0, 1.0)
                     + np.clip(rho * (v - 2.0 * beta * k), -1.0, 1.0))
    return out


# ---------------------------------------------------------------------------
# slope/bias lookup tables

@dataclass
class PlmTable:
    """Piecewise-affine map evaluated as slope[bin] * x + bias[bin]."""

    boundaries: np.ndarray   # (n_bins - 1,) strictly increasing
    slopes: np.ndarray       # (n_bins,)
    biases: np.ndarray       # (n_bins,)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        idx = self.boundaries.searchsorted(x, side="right")
        out = self.slopes[idx]
        out *= x
        out += self.biases[idx]
        return out

    @property
    def n_bins(self) -> int:
        return self.slopes.size


def build_plm_table(rho: float, beta: float, order: int) -> PlmTable:
    """``pme_piecewise(., rho, beta, order)`` as a slope/bias lookup table.

    The breakpoints are where a ramp leaves [-1, 1]; each segment's slope
    (rho times its active ramps) and bias are read at one probe point
    inside it, the two outer probes beyond the outermost breakpoints.
    """
    gamma = math.isqrt(order) // 2 - 1
    shifts = 2.0 * beta * np.arange(-gamma, gamma + 1)
    b = np.unique(np.concatenate([-1.0 / rho - shifts, 1.0 / rho - shifts]))
    pad = 1.0 + (b[-1] - b[0])
    probes = np.concatenate([[b[0] - pad], (b[:-1] + b[1:]) / 2.0,
                             [b[-1] + pad]])
    active = np.abs(rho * (probes[:, None] + shifts)) < 1.0
    slopes = rho * active.sum(axis=-1)
    biases = pme_piecewise(probes, rho, beta, order) - slopes * probes
    return PlmTable(b, slopes, biases)


# ---------------------------------------------------------------------------
# denoiser objects consumed by the equalizer

class BoxDenoiser:
    def __init__(self, const: Constellation):
        self.const = const

    def apply(self, v: np.ndarray, k: int) -> np.ndarray:
        return box_denoise(v, self.const)


class PmeDenoiser:
    """Per-iteration piecewise posterior-mean denoiser.

    Each iteration's map is evaluated through its slope/bias table, built
    once; ``pme_piecewise`` is the direct reference. Raw table output lies
    on the odd-integer grid; multiplying by the constellation scale puts the
    estimate back on the unit-energy symbol grid, so it saturates exactly at
    the box corners.
    """

    def __init__(self, const: Constellation, rho, beta):
        self.const = const
        self.rho = np.atleast_1d(np.asarray(rho, dtype=np.float64))
        self.beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
        if self.rho.shape != self.beta.shape:
            raise ValueError("rho and beta schedules must have equal length")
        self.tables = [build_plm_table(r, b, const.order)
                       for r, b in zip(self.rho, self.beta)]

    def apply(self, v: np.ndarray, k: int) -> np.ndarray:
        if k >= self.rho.size:
            raise IndexError(f"no parameters for iteration {k}")
        out = self.tables[k](real_view(v))
        out *= self.const.scale
        return out.view(np.complex128)[..., 0]


def box_denoiser(const: Constellation) -> BoxDenoiser:
    return BoxDenoiser(const)


def pme_denoiser(const: Constellation, rho, beta) -> PmeDenoiser:
    return PmeDenoiser(const, rho, beta)


# ---------------------------------------------------------------------------
# soft outputs

@dataclass
class LlrParams:
    """Soft-output gains of one channel, or of a stack of channels along the
    leading axes ``...`` of ``mu``."""

    alpha: float | np.ndarray  # float, or one value per channel
    mu: np.ndarray           # (..., U) channel gains in (0, 1]
    xi: np.ndarray           # (..., U) noise-plus-interference variances (floored)
    xi_floored: np.ndarray   # (..., U) bool

    @classmethod
    def from_mu(cls, mu: np.ndarray, alpha: float | np.ndarray) -> "LlrParams":
        """Gains mu; variances (1 - mu) mu, floored at XI_FLOOR_FACTOR."""
        xi = (1.0 - mu) * mu
        floored = xi < XI_FLOOR_FACTOR
        alpha = float(alpha) if np.ndim(alpha) == 0 else np.asarray(alpha)
        return cls(alpha, mu, np.maximum(xi, XI_FLOOR_FACTOR), floored)

    @classmethod
    def from_diagonal(cls, d: np.ndarray, alpha: float | np.ndarray, *,
                      recip_fn=np.reciprocal) -> "LlrParams":
        """Neumann-approximated gains mu = d / (d + alpha) from the real
        Gram diagonal d (..., U), with a scalar ``alpha`` or one per
        channel."""
        if np.any(np.asarray(alpha) < 0):
            raise ValueError("alpha must be >= 0")
        a = alpha if np.ndim(alpha) == 0 else np.asarray(alpha)[..., None]
        return cls.from_mu(d * recip_fn(d + a), alpha)


@dataclass
class SoftOutput:
    llrs: np.ndarray         # (..., U, bits) or (..., U, bits, T)
    v_final: np.ndarray      # (..., U) or (..., U, T)
    params: LlrParams
    flags: dict = field(default_factory=dict)


def _gray_subsets(x: np.ndarray, mu: np.ndarray, const: Constellation,
                  reduce):
    """Per axis bit, in order, the pair ``(reduce(d0, i0), reduce(d1, i1))``:
    d0 and d1 are the squared distances of x to the gain-scaled PAM levels
    of the bit's Gray subsets 0 and 1, level-major, and i0 and i1 those
    subsets' ``pam_points`` indices. x is (..., U) or (..., U, T) with gains
    mu (..., U); d0 and d1 are the subset size plus x's shape, so a reduce
    over the levels runs along axis 0.

    This is the max-log stage's one distance pass: the LLRs reduce each
    subset to its min, the trainer to its argmin as well. The distances to
    all sqrt(Q) levels are computed once, mu a before x - mu a as in the
    elementwise formula; the pairs are generated lazily and each subset's
    copy lives only for its ``reduce`` call.
    """
    mu_b = mu[..., None] if x.ndim > mu.ndim else mu
    dist = x - const.pam_points.reshape((-1,) + (1,) * mu_b.ndim) * mu_b
    np.square(dist, out=dist)
    for j in range(const.axis_bits):
        yield tuple(reduce(dist[cols], cols)
                    for cols in const.pam_bit_indices(j))


def _axis_llrs(x: np.ndarray, mu: np.ndarray, const: Constellation):
    """Per-axis bit metrics min d0 - min d1 for every axis bit; shapes as in
    ``_gray_subsets``. ``starmap`` drops each bit's two minima before the
    next bit's are taken."""
    return list(starmap(operator.sub, _gray_subsets(
        x, mu, const, lambda d, _: np.minimum.reduce(d, axis=0))))


def compute_llrs_with_params(v_final: np.ndarray, params: LlrParams,
                             const: Constellation, *,
                             recip_fn=np.reciprocal) -> SoftOutput:
    """Max-log LLRs from the unconstrained estimates and explicit gains.

    ``v_final`` holds one vector (..., U) or a block (..., U, T) per
    channel of ``params`` (mu (..., U)); the LLRs are (..., U, bits) or
    (..., U, bits, T). The per-axis Gray labeling turns the full-alphabet
    search into sqrt(Q)-level minima per axis (``_gray_subsets``).
    """
    v = np.asarray(v_final, dtype=np.complex128)
    mu, xi = params.mu, params.xi
    m = const.bits_per_symbol
    block = v.ndim > mu.ndim
    inv_xi = recip_fn(xi)
    inv_xi_b = inv_xi[..., None] if block else inv_xi

    metrics = _axis_llrs(v.real, mu, const) + _axis_llrs(v.imag, mu, const)
    llrs = np.empty(mu.shape + (m,) + v.shape[mu.ndim:])
    for j, d in enumerate(metrics):
        np.multiply(d, inv_xi_b, out=llrs[..., j, :] if block else llrs[..., j])

    flags = {"xi_floored": int(params.xi_floored.sum())}
    return SoftOutput(llrs, v, params, flags)


def compute_llrs(v_final: np.ndarray, G: np.ndarray,
                 alpha: float | np.ndarray, const: Constellation, *,
                 recip_fn=np.reciprocal) -> SoftOutput:
    """Max-log LLRs with Neumann-approximated gains mu = G_uu / (G_uu + alpha);
    shapes as in ``compute_llrs_with_params``, with G (..., U, U)."""
    params = LlrParams.from_diagonal(G.diagonal(0, -2, -1).real, alpha,
                                     recip_fn=recip_fn)
    return compute_llrs_with_params(v_final, params, const, recip_fn=recip_fn)


def llr_to_prob(llr: np.ndarray) -> np.ndarray:
    """P(bit = 1) from an LLR under the package sign convention."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(llr, dtype=np.float64)))


# ---------------------------------------------------------------------------
# fidelity tracking between the exact and piecewise posterior means

def fit_omega(rho: float, beta: float, const: Constellation,
              span: float = 1.5, n_grid: int = 2001) -> float:
    """Least-squares fit of the exact posterior mean's precision to the
    piecewise approximation, over span * the alphabet box."""
    from scipy.optimize import minimize_scalar

    a = const.max_amplitude * span
    x = np.linspace(-a, a, n_grid)
    target = const.scale * pme_piecewise(x, rho, beta, const.order)
    beta_eff = beta / const.scale

    def cost(log_w):
        w = math.exp(log_w)
        return float(np.mean((pme_exact(x, w, beta_eff, const.pam_points) - target) ** 2))

    res = minimize_scalar(cost, bounds=(-6.0, 12.0), method="bounded")
    return math.exp(res.x)


def pme_fidelity(rho: float, beta: float, const: Constellation,
                 span: float = 1.5, n_grid: int = 4001) -> dict:
    """Sup-norm gap between the piecewise and exact posterior means with the
    fitted precision; tracked as a diagnostic, no hard bound asserted."""
    omega = fit_omega(rho, beta, const, span)
    a = const.max_amplitude * span
    x = np.linspace(-a, a, n_grid)
    approx = const.scale * pme_piecewise(x, rho, beta, const.order)
    exact = pme_exact(x, omega, beta / const.scale, const.pam_points)
    return {"omega": omega, "sup_gap": float(np.max(np.abs(approx - exact)))}
