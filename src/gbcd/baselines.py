"""Reference detectors: implicit LMMSE and channel-domain coordinate descent (OCD).

The LMMSE solve goes through an explicit Cholesky factorization of the
regularized Gram matrix followed by forward/backward substitution; the loop
implementations carry optional multiplication counters for the hardware
cost model. OCD performs per-coordinate least squares directly on the
channel columns with a receive-domain residual and the BOX denoiser, in
natural UE order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation
from .counting import MultCounter
from .denoise import (LlrParams, SoftOutput, box_denoise, compute_llrs,
                      compute_llrs_with_params)
from .detector import gram, matched_filter


@dataclass
class CholeskyFactor:
    L: np.ndarray  # lower triangular, real positive diagonal


def cholesky_lower(A: np.ndarray, counter: MultCounter | None = None) -> CholeskyFactor:
    """Loop-form complex Cholesky; raises on a non-positive-definite matrix."""
    n = A.shape[0]
    L = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        s = A[j, j].real - np.sum(np.abs(L[j, :j]) ** 2)
        if counter is not None:
            counter.abs2(j)
        if s <= 0:
            raise np.linalg.LinAlgError("matrix is not positive definite")
        L[j, j] = np.sqrt(s)
        for i in range(j + 1, n):
            v = A[i, j] - np.dot(L[i, :j], L[j, :j].conj())
            L[i, j] = v / L[j, j].real
            if counter is not None:
                counter.cmul(j)
                counter.cdiv_real(1)
    return CholeskyFactor(L)


def solve_lower(L: np.ndarray, b: np.ndarray,
                counter: MultCounter | None = None) -> np.ndarray:
    """Forward substitution L x = b; b may be (U,) or (U, T)."""
    n = L.shape[0]
    x = np.array(b, dtype=np.complex128, copy=True)
    T = 1 if x.ndim == 1 else x.shape[1]
    for i in range(n):
        x[i] = (x[i] - L[i, :i] @ x[:i]) / L[i, i].real
        if counter is not None:
            counter.cmul(i * T)
            counter.cdiv_real(T)
    return x


def solve_upper(LH: np.ndarray, b: np.ndarray,
                counter: MultCounter | None = None) -> np.ndarray:
    """Backward substitution L^H x = b with LH = L^H ."""
    n = LH.shape[0]
    x = np.array(b, dtype=np.complex128, copy=True)
    T = 1 if x.ndim == 1 else x.shape[1]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - LH[i, i + 1:] @ x[i + 1:]) / LH[i, i].real
        if counter is not None:
            counter.cmul((n - 1 - i) * T)
            counter.cdiv_real(T)
    return x


def lmmse_preprocess(H: np.ndarray, N0: float, Es: float,
                     counter: MultCounter | None = None):
    """Gram + Cholesky of the regularized Gram matrix, plus exact LLR gains."""
    G = gram(H, counter)
    U = G.shape[0]
    A = G + (N0 / Es) * np.eye(U)
    chol = cholesky_lower(A, counter)
    # exact channel gains diag(A^{-1} G); part of the soft-output unit, uncounted
    X = solve_upper(chol.L.conj().T, solve_lower(chol.L, G))
    mu = X.diagonal().real
    return G, chol, mu


def lmmse_equalize(chol: CholeskyFactor, y_mf: np.ndarray,
                   counter: MultCounter | None = None) -> np.ndarray:
    return solve_upper(chol.L.conj().T, solve_lower(chol.L, y_mf, counter), counter)


def lmmse_detect(H: np.ndarray, y: np.ndarray, N0: float, Es: float,
                 const: Constellation,
                 counter: MultCounter | None = None) -> SoftOutput:
    """Implicit LMMSE detection with exact per-UE gains and variances."""
    G, chol, mu = lmmse_preprocess(H, N0, Es, counter)
    y_mf = matched_filter(H, y, counter)
    s_hat = lmmse_equalize(chol, y_mf, counter)
    return compute_llrs_with_params(s_hat, LlrParams.from_mu(mu, Es, N0 / Es),
                                    const)


def ocd_equalize(H: np.ndarray, y: np.ndarray, K: int, const: Constellation,
                 counter: MultCounter | None = None):
    """K coordinate-descent sweeps over the channel columns, BOX denoising.

    Returns (z, v_last, r); the residual lives in the receive domain. Column
    norms are computed inside every call, as each detection task does.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == 1
    Y = y[:, None] if single else y
    B, U = H.shape
    T = Y.shape[1]
    norms = np.sum(np.abs(H) ** 2, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("channel has a zero-norm column")
    inv_norms = 1.0 / norms
    if counter is not None:
        counter.abs2(B * U)
        counter.rdiv(U)
    z = np.zeros((U, T), dtype=np.complex128)
    r = Y.copy()
    v_last = np.empty((U, T), dtype=np.complex128)
    for k in range(K):
        for u in range(U):
            h = H[:, u]
            v = (h.conj() @ r) * inv_norms[u] + z[u]
            if k == K - 1:
                v_last[u] = v
            z_new = box_denoise(v, const)
            r -= np.outer(h, z_new - z[u])
            z[u] = z_new
            if counter is not None:
                counter.cmul(B * T)      # correlation h^H r
                counter.cmul_real(T)     # scaling by the reciprocal norm
                counter.cmul(B * T)      # residual update
    if single:
        return z[:, 0], v_last[:, 0], r[:, 0]
    return z, v_last, r


def ocd_detect(H: np.ndarray, y: np.ndarray, N0: float, Es: float, K: int,
               const: Constellation,
               counter: MultCounter | None = None) -> SoftOutput:
    """Coordinate-descent detection with Neumann-approximated LLR gains."""
    z, v_last, _ = ocd_equalize(H, y, K, const, counter)
    G = gram(H)
    return compute_llrs(v_last, G, N0, Es, N0 / Es, const)
