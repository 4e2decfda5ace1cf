"""Reference detectors: implicit LMMSE and channel-domain coordinate descent (OCD).

The float LMMSE detector solves the regularized Gram system with LAPACK
(``np.linalg.solve``); the Cholesky factorization and substitutions of a
hardware LMMSE are counted by ``hwmodel.complexity_lmmse`` and are not run.
OCD performs per-coordinate least squares directly on the channel columns
with a receive-domain residual and the BOX denoiser, in natural UE order.
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation
from .denoise import (LlrParams, SoftOutput, box_denoise, compute_llrs,
                      compute_llrs_with_params)
from .detector import FLOAT, FrontEnd, front_end


def lmmse_detect(H: np.ndarray, y: np.ndarray, N0: float | np.ndarray,
                 const: Constellation, *,
                 front: FrontEnd | None = None) -> SoftOutput:
    """Implicit LMMSE detection with exact per-UE gains and variances.

    ``H`` is one channel (B, U) or a stack (..., B, U); ``y`` holds one
    receive vector (..., B) or a block (..., B, T) per channel, and ``N0``
    is a scalar or one value per channel. One solve of A X = [G | y_mf],
    with A = G + N0 I, gives the gains diag(A^{-1} G) and the estimates
    A^{-1} y_mf. The LLRs are (..., U, bits[, T]); every channel of a stack
    gets what detecting it alone gives. G and y_mf come from ``front``, a
    float ``detector.FrontEnd`` of these inputs that other detectors may
    share; without one, the call builds its own.
    """
    front = front_end(H, y, N0, FLOAT, front)
    G = front.G
    U = G.shape[-1]
    A = G + np.asarray(N0, dtype=np.float64)[..., None, None] * np.eye(U)
    y_mf = front.y_mf
    vector = y_mf.ndim == G.ndim - 1
    X = np.linalg.solve(A, np.concatenate(
        [G, y_mf[..., None] if vector else y_mf], axis=-1))
    mu = X[..., :U].diagonal(0, -2, -1).real
    s_hat = X[..., U] if vector else X[..., U:]
    return compute_llrs_with_params(
        s_hat, LlrParams.from_mu(mu, N0), const)


# numpy copies a ufunc's broadcast operands into buffers of bufsize elements
# (8192 by default), so OCD's rank-one update made two 128 KB copies per
# column step. With 256-element buffers the update of 120-symbol rows runs
# unbuffered, to the same values, in about 60% of the time.
_UPDATE_BUFSIZE = 256


def ocd_equalize(H: np.ndarray, y: np.ndarray, K: int, const: Constellation):
    """K coordinate-descent sweeps over the channel columns, BOX denoising.

    ``H`` is (B, U) or a stack (..., B, U) and ``y`` one vector (..., B) or
    a block (..., B, T) per channel. Returns (z, v_last, r); the residual
    lives in the receive domain. Column norms are computed inside every
    call, as each detection task does.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == H.ndim - 1
    Y = y[..., None] if single else y
    U = H.shape[-1]
    T = Y.shape[-1]
    norms = np.sum(np.abs(H) ** 2, axis=-2)
    if np.any(norms == 0.0):
        raise ValueError("channel has a zero-norm column")
    inv_norms = 1.0 / norms
    # H's columns as contiguous rows: conjugated for the correlation, plain
    # for the residual update
    cols = np.ascontiguousarray(np.swapaxes(H, -1, -2))
    cols_h = cols.conj()
    z = np.zeros(Y.shape[:-2] + (U, T), dtype=np.complex128)
    r = Y.copy()
    update = np.empty_like(r)    # the rank-one residual update, reused
    v_last = np.empty_like(z)
    bufsize = np.setbufsize(_UPDATE_BUFSIZE)
    try:
        for k in range(K):
            for u in range(U):
                v = ((cols_h[..., u, None, :] @ r)[..., 0, :]
                     * inv_norms[..., u, None] + z[..., u, :])
                if k == K - 1:
                    v_last[..., u, :] = v
                z_new = box_denoise(v, const)
                np.multiply(cols[..., u, :, None],
                            (z_new - z[..., u, :])[..., None, :], out=update)
                r -= update
                z[..., u, :] = z_new
    finally:
        np.setbufsize(bufsize)
    if single:
        return z[..., 0], v_last[..., 0], r[..., 0]
    return z, v_last, r


def ocd_detect(H: np.ndarray, y: np.ndarray, N0: float | np.ndarray,
               K: int, const: Constellation, *,
               front: FrontEnd | None = None) -> SoftOutput:
    """Coordinate-descent detection with Neumann-approximated LLR gains.

    Shapes as in ``lmmse_detect``: one channel or a stack (..., B, U), with
    per-channel ``N0``. The gains read the Gram matrix of ``front`` as
    ``lmmse_detect`` does; the equalizer works on H and y themselves.
    """
    front = front_end(H, y, N0, FLOAT, front)
    v_last = ocd_equalize(H, y, K, const)[1]
    return compute_llrs(v_last, front.G, N0, const)
