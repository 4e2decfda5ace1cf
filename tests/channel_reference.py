"""Frozen per-sample channel oracle: ``gen_channel``, its power control,
``noise_variance_for_snr``, ``apply_channel`` and ``transmit`` written one
channel and one call at a time, with the library's random-stream order.

The stacked generators (``unfolding.transmit_samples`` and the transmit
tail ``channel.receive``) must give bitwise what these give, and leave the
generator in the same state.
"""

import numpy as np

from gbcd.channel import (CONDITIONS, POWER_BAND_DB, ChannelRealization,
                          TransmissionBatch, _draw_angles, steering_vector)
from gbcd.constellation import draw_symbols


def _power_control_reference(H):
    p = np.sum(np.abs(H) ** 2, axis=0)
    if np.any(p == 0.0):
        raise ValueError("channel has an all-zero column")
    mean_p = float(np.mean(p))
    lo = mean_p * 10.0 ** (-POWER_BAND_DB / 10.0)
    hi = mean_p * 10.0 ** (POWER_BAND_DB / 10.0)
    clipped = np.clip(p, lo, hi)
    assert clipped.max() / clipped.min() <= 10 ** (2 * POWER_BAND_DB / 10.0) * (1 + 1e-12)
    return H * np.sqrt(clipped / p)


def _gen_channel_reference(B, U, condition, rng, *, k_factor=10.0,
                           min_sep_deg=1.0, angles_rad=None):
    if U < 2 or B < U:
        raise ValueError(f"invalid dimensions B={B}, U={U} (need B >= U >= 2)")
    condition = condition.lower()
    if condition not in CONDITIONS:
        raise ValueError(f"unknown condition {condition!r}; use one of {CONDITIONS}")
    if condition == "nonlos":
        H = (rng.standard_normal((B, U)) + 1j * rng.standard_normal((B, U))) / np.sqrt(2.0)
    else:
        if angles_rad is None:
            angles_rad = _draw_angles(U, rng, min_sep_deg)
        A = steering_vector(B, angles_rad)
        W = (rng.standard_normal((B, U)) + 1j * rng.standard_normal((B, U))) / np.sqrt(2.0)
        if np.isinf(k_factor):
            H = A
        else:
            H = (np.sqrt(k_factor / (k_factor + 1.0)) * A
                 + np.sqrt(1.0 / (k_factor + 1.0)) * W)
    H = _power_control_reference(H)
    if not np.all(np.isfinite(H)):
        raise ValueError("channel contains non-finite entries")
    return ChannelRealization(H, condition)


def _noise_variance_for_snr_reference(H, snr_db):
    if np.isinf(snr_db):
        return 0.0
    B = H.shape[0]
    sig = float(np.sum(np.abs(H) ** 2)) / B
    return sig / (10.0 ** (snr_db / 10.0))


def _apply_channel_reference(H, S, N0, rng):
    B = H.shape[0]
    T = S.shape[1]
    if N0 == 0.0:
        noise = np.zeros((B, T), dtype=np.complex128)
    else:
        noise = np.sqrt(N0 / 2.0) * (rng.standard_normal((B, T))
                                     + 1j * rng.standard_normal((B, T)))
    hs = H @ S
    y = hs + noise
    return y, y - hs


def _transmit_reference(H, const, T, snr_db, rng):
    U = H.shape[1]
    N0 = _noise_variance_for_snr_reference(H, snr_db)
    idx, S = draw_symbols(const, (U, T), rng)
    Y, noise = _apply_channel_reference(H, S, N0, rng)
    bits = const.bit_labels[idx]
    return TransmissionBatch(S, bits, Y, float(N0), T, noise, idx)
