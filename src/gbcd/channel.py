"""Channel, noise, and transmission generation for the uplink model y = H s + n.

Two synthetic propagation conditions are provided:

* ``nonlos`` -- i.i.d. circularly-symmetric complex Gaussian entries.
* ``los``    -- per-UE planar-wavefront steering vectors over a uniform
  linear array, mixed with a scattered Rayleigh component through a
  configurable Rician K-factor. The UE angles are uniform over the sets of
  U angles in [-60, 60] deg that lie at least ``min_sep_deg`` apart, in
  exchangeable UE order; they come from exactly U uniform draws. A config
  needs (U - 1) * min_sep_deg < 120: at equality only one set is allowed,
  and every draw would collapse to it.

Receive-power control clips every UE's column energy into a +/-3 dB band
around the mean, mirroring a basestation power-control loop.

SNR definition used throughout the package: the per-receive-antenna SNR is
``||H||_F^2 / (B * N0)`` for unit-energy symbols: received signal power per
antenna over noise power per antenna, evaluated on the realized channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation

CONDITIONS = ("nonlos", "los")
POWER_BAND_DB = 3.0   # receive-power control band around the mean, +/- dB

_BAND_LO = 10.0 ** (-POWER_BAND_DB / 10.0)
_BAND_HI = 10.0 ** (POWER_BAND_DB / 10.0)
_BAND_RATIO = 10 ** (2 * POWER_BAND_DB / 10.0) * (1 + 1e-12)
_SQRT2 = np.sqrt(2.0)
_ANGLE_SPAN_DEG = 120.0   # LOS UE angles lie within +/- 60 deg
LOS_K_FACTOR = 10.0       # default Rician K-factor of LOS channels
LOS_MIN_SEP_DEG = 1.0     # default minimum LOS UE angle separation, deg


@dataclass
class TransmissionBatch:
    S: np.ndarray            # (U, T) transmitted symbols
    bits: np.ndarray         # (U, T, log2 Q) bit labels of S
    Y: np.ndarray            # (B, T) receive vectors
    N0: float
    noise: np.ndarray        # (B, T), retained so Y == H S + noise is checkable
    symbol_indices: np.ndarray  # (U, T)


def _power_control(H: np.ndarray) -> np.ndarray:
    """Scale H's columns in place into the power band; returns H."""
    p = np.add.reduce(np.abs(H) ** 2, axis=0)
    if (p == 0.0).any():
        raise ValueError("channel has an all-zero column")
    mean_p = float(np.add.reduce(p)) / p.size
    clipped = np.minimum(np.maximum(p, mean_p * _BAND_LO), mean_p * _BAND_HI)
    assert (np.maximum.reduce(clipped) / np.minimum.reduce(clipped)
            <= _BAND_RATIO)
    H *= np.sqrt(clipped / p)
    return H


def steering_vector(B: int, theta_rad: float | np.ndarray) -> np.ndarray:
    """Half-wavelength uniform linear array response, one column per angle."""
    theta = np.atleast_1d(np.asarray(theta_rad, dtype=np.float64))
    n = np.arange(B)[:, None]
    return np.exp(1j * np.pi * n * np.sin(theta)[None, :])


def check_angle_separation(U: int, min_sep_deg: float) -> None:
    """Raise ValueError unless U angles ``min_sep_deg`` apart fit in the LOS
    angular sector with room to draw them."""
    if not (min_sep_deg >= 0.0 and (U - 1) * min_sep_deg < _ANGLE_SPAN_DEG):
        raise ValueError(f"cannot place U={U} UEs min_sep_deg={min_sep_deg} "
                         f"apart: need 0 <= (U - 1) * min_sep_deg < "
                         f"{_ANGLE_SPAN_DEG:g} deg")


def _draw_angles(U: int, rng: np.random.Generator,
                 min_sep_deg: float) -> np.ndarray:
    """U angles (rad) as the module doc says: U uniforms on the sector cut
    short by (U - 1) * min_sep_deg, each moved up by its rank times
    min_sep_deg, a one-to-one map with unit Jacobian onto the allowed sets."""
    check_angle_separation(U, min_sep_deg)
    half = _ANGLE_SPAN_DEG / 2.0
    deg = rng.uniform(-half, half - (U - 1) * min_sep_deg, size=U)
    deg += min_sep_deg * np.argsort(np.argsort(deg))
    return np.deg2rad(deg)


def gen_channel(B: int, U: int, condition: str, rng: np.random.Generator, *,
                k_factor: float = LOS_K_FACTOR,
                min_sep_deg: float = LOS_MIN_SEP_DEG,
                angles_rad: np.ndarray | None = None) -> np.ndarray:
    """One channel realization H (B, U) with receive-power control applied."""
    if U < 2 or B < U:
        raise ValueError(f"invalid dimensions B={B}, U={U} (need B >= U >= 2)")
    condition = condition.lower()
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; use one of {CONDITIONS}")

    if condition == "los" and angles_rad is None:
        angles_rad = _draw_angles(U, rng, min_sep_deg)
    W = unit_normals(rng, np.empty((B, U), dtype=np.complex128))
    W /= _SQRT2
    if condition == "nonlos":
        H = W
    else:
        A = steering_vector(B, angles_rad)
        if np.isinf(k_factor):
            H = A
        else:
            H = (np.sqrt(k_factor / (k_factor + 1.0)) * A
                 + np.sqrt(1.0 / (k_factor + 1.0)) * W)

    H = _power_control(H)
    if not np.isfinite(H).all():
        raise ValueError("channel contains non-finite entries")
    return H


def is_noiseless(snr_db: float) -> bool:
    """True for +inf dB, the noiseless case, False for a finite SNR; NaN and
    -inf raise ValueError."""
    if np.isnan(snr_db) or snr_db == -np.inf:
        raise ValueError(f"snr_db must be finite or +inf (noiseless), "
                         f"got {snr_db}")
    return snr_db == np.inf


def noise_variance_for_snr(H: np.ndarray, snr_db: float) -> float | np.ndarray:
    """N0 such that the per-antenna receive SNR matches snr_db (see module doc).

    ``H`` is one channel (B, U), which gives a float, or a stack (..., B, U),
    which gives one N0 per channel: each channel's B * U energies are summed
    in memory order, exactly as for that channel alone. +inf dB gives
    N0 = 0; NaN and -inf raise ValueError.
    """
    if is_noiseless(snr_db):
        N0 = np.zeros(H.shape[:-2])
    else:
        energy = np.abs(H.reshape(H.shape[:-2] + (-1,))) ** 2
        N0 = (np.add.reduce(energy, axis=-1) / H.shape[-2]
              / (10.0 ** (snr_db / 10.0)))
    return float(N0) if N0.ndim == 0 else N0


def unit_normals(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill complex ``out`` with standard normals, real parts drawn first."""
    out.real = rng.standard_normal(out.shape)
    out.imag = rng.standard_normal(out.shape)
    return out


def receive(H: np.ndarray, S: np.ndarray, w: np.ndarray | None,
            N0: float | np.ndarray) -> np.ndarray:
    """The transmit tail over leading channel axes: Y = H S + noise,
    noise ~ CN(0, N0) per entry.

    ``w`` (..., B, T) holds each channel's standard normals
    (``unit_normals``) and is scaled in place into the noise; it is None
    for a noiseless stack (N0 = 0), for which nothing was drawn.
    """
    hs = H @ S
    if w is None:
        w = np.zeros_like(hs)
    else:
        w *= np.sqrt(np.asarray(N0) / 2.0)[..., None, None]
    return hs + w


def apply_channel(H: np.ndarray, S: np.ndarray, N0: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Return Y = H S + noise, noise ~ CN(0, N0) per entry."""
    w = None if N0 == 0.0 else unit_normals(
        rng, np.empty((H.shape[0], S.shape[1]), dtype=np.complex128))
    return receive(H, S, w, N0)


def transmit(H: np.ndarray, const: Constellation, T: int, snr_db: float,
             rng: np.random.Generator) -> TransmissionBatch:
    """Draw i.i.d. uniform symbols and push them through the channel.

    The returned noise is the exact residual Y - H S, so the reconstruction
    identity holds bitwise for anyone recomputing the product.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    N0 = noise_variance_for_snr(H, snr_db)
    idx = rng.integers(0, const.order, size=(H.shape[1], T))
    S = const.points[idx]
    Y = apply_channel(H, S, N0, rng)
    return TransmissionBatch(S, const.bit_labels[idx], Y, N0, Y - H @ S, idx)

