"""Reference detectors: implicit LMMSE and channel-domain coordinate descent (OCD).

The LMMSE solve goes through an explicit Cholesky factorization of the
regularized Gram matrix followed by forward/backward substitution, both in
loop form. OCD performs per-coordinate least squares directly on the
channel columns with a receive-domain residual and the BOX denoiser, in
natural UE order.
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation
from .denoise import (LlrParams, SoftOutput, box_denoise, compute_llrs,
                      compute_llrs_with_params)
from .detector import gram, matched_filter


def cholesky_lower(A: np.ndarray) -> np.ndarray:
    """Loop-form complex Cholesky of A (n, n) or of a stack (..., n, n): the
    lower-triangular factor, with a real positive diagonal. Raises if any
    matrix is not positive definite. Each matrix of a stack is factored in
    the operation order of factoring it alone."""
    n = A.shape[-1]
    L = np.zeros(A.shape, dtype=np.complex128)
    for j in range(n):
        s = A[..., j, j].real - np.sum(np.abs(L[..., j, :j]) ** 2, axis=-1)
        if np.any(s <= 0):
            raise np.linalg.LinAlgError("matrix is not positive definite")
        L[..., j, j] = np.sqrt(s)
        Lj = L[..., j, :j, None].conj()
        for i in range(j + 1, n):
            v = A[..., i, j] - (L[..., i, None, :j] @ Lj)[..., 0, 0]
            L[..., i, j] = v / L[..., j, j].real
    return L


def _substitute(M: np.ndarray, b: np.ndarray, lower: bool) -> np.ndarray:
    """Solve the triangular M x = b row by row, top down when ``lower``.
    M is (..., n, n); b holds one vector (..., n) or a block (..., n, T)
    per matrix."""
    n = M.shape[-1]
    vector = b.ndim == M.ndim - 1
    x = np.array(b[..., None] if vector else b, dtype=np.complex128)
    for i in range(n) if lower else range(n - 1, -1, -1):
        done = slice(0, i) if lower else slice(i + 1, n)
        x[..., i, :] = ((x[..., i, :] - (M[..., i, None, done]
                                         @ x[..., done, :])[..., 0, :])
                        / M[..., i, i, None].real)
    return x[..., 0] if vector else x


def solve_lower(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward substitution L x = b for L (..., n, n); b is (..., n) or
    (..., n, T)."""
    return _substitute(L, b, True)


def solve_upper(LH: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Backward substitution L^H x = b with LH = L^H; shapes as in
    ``solve_lower``."""
    return _substitute(LH, b, False)


def lmmse_preprocess(H: np.ndarray, N0: float | np.ndarray):
    """Gram + Cholesky factor of the regularized Gram matrix, plus exact LLR
    gains, for H (..., B, U) with a scalar ``N0`` or one per channel."""
    G = gram(H)
    U = G.shape[-1]
    A = G + np.asarray(N0, dtype=np.float64)[..., None, None] * np.eye(U)
    L = cholesky_lower(A)
    # exact channel gains diag(A^{-1} G); part of the soft-output unit
    X = solve_upper(L.conj().swapaxes(-1, -2), solve_lower(L, G))
    mu = X.diagonal(0, -2, -1).real
    return G, L, mu


def lmmse_equalize(L: np.ndarray, y_mf: np.ndarray) -> np.ndarray:
    """(L L^H)^{-1} y_mf by forward then backward substitution, for the
    Cholesky factor ``L`` of ``lmmse_preprocess``."""
    return solve_upper(L.conj().swapaxes(-1, -2), solve_lower(L, y_mf))


def lmmse_detect(H: np.ndarray, y: np.ndarray, N0: float | np.ndarray,
                 const: Constellation) -> SoftOutput:
    """Implicit LMMSE detection with exact per-UE gains and variances.

    ``H`` is one channel (B, U) or a stack (..., B, U); ``y`` holds one
    receive vector (..., B) or a block (..., B, T) per channel, and ``N0``
    is a scalar or one value per channel. The LLRs are (..., U, bits[, T]);
    every channel of a stack gets what detecting it alone gives.
    """
    _, L, mu = lmmse_preprocess(H, N0)
    s_hat = lmmse_equalize(L, matched_filter(H, y))
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
               K: int, const: Constellation) -> SoftOutput:
    """Coordinate-descent detection with Neumann-approximated LLR gains.

    Shapes as in ``lmmse_detect``: one channel or a stack (..., B, U), with
    per-channel ``N0``.
    """
    v_last = ocd_equalize(H, y, K, const)[1]
    G = gram(H)
    return compute_llrs(v_last, G, N0, const)
