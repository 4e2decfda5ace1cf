"""Reference detectors: implicit LMMSE and channel-domain coordinate descent (OCD).

The float LMMSE detector solves the regularized Gram system with LAPACK
(``np.linalg.solve``); the Cholesky factorization and substitutions of a
hardware LMMSE are counted by ``hwmodel.complexity_lmmse`` and are not run.
OCD is per-coordinate least squares with the BOX denoiser in natural UE
order. The hardware runs it on the channel columns with a receive-domain
residual; in float that equals the Gram-domain recursion at block size 1,
which the detector runs and which costs less per vector. The channel-domain
datapath is counted by ``hwmodel.complexity_ocd``, and the tests keep it
as their reference.
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation
from .denoise import (LlrParams, SoftOutput, box_denoiser, compute_llrs,
                      compute_llrs_with_params)
from .detector import FLOAT, FrontEnd, front_end, gbcd_equalize


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


def ocd_detect(H: np.ndarray, y: np.ndarray, N0: float | np.ndarray,
               K: int, const: Constellation, *,
               front: FrontEnd | None = None) -> SoftOutput:
    """Coordinate-descent detection with Neumann-approximated LLR gains.

    Shapes as in ``lmmse_detect``: one channel or a stack (..., B, U), with
    per-channel ``N0``. K sweeps over the UEs in natural order with BOX
    denoising run as ``detector.gbcd_equalize`` on the (1, unsorted)
    preprocessing of ``front``, so the result equals
    ``gbcd_detect(..., L=1, sort=False)[0]``. The LLR gains read the float
    Gram matrix of ``front``; without one, the call builds its own.
    """
    front = front_end(H, y, N0, FLOAT, front)
    state = gbcd_equalize(front.preprocess(1, False), front.y_mf, K,
                          box_denoiser(const))
    return compute_llrs(state.v_last, front.G, N0, const)
