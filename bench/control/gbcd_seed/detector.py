"""Gram-domain block coordinate descent (GBCD) data detection.

Preprocessing computes, once per channel realization: the Gram matrix, the
reciprocal per-UE SINR metric, the SINR-sorted UE ordering and its block
partition, and the per-block inverses of the Gram submatrices. Equalization
then runs K outer iterations of per-block least squares plus denoising on
each receive vector, tracking interference through a residual recursion in
the Gram domain instead of touching the channel matrix again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counting import MultCounter


@dataclass
class PreprocOutput:
    G: np.ndarray            # (U, U) Hermitian Gram matrix
    inv_sinr: np.ndarray     # (U,) reciprocal SINR metric
    perm: np.ndarray         # (U,) UE ordering, ascending inv_sinr
    blocks: np.ndarray       # (M, L) UE index blocks in update order
    kinv: np.ndarray         # (M, L, L) per-block inverses
    N0: float
    Es: float
    L: int
    regularized: list = field(default_factory=list)  # block indices that needed eps*I

    @property
    def U(self) -> int:
        return self.G.shape[0]

    @property
    def M(self) -> int:
        return self.blocks.shape[0]


@dataclass
class EqualizerState:
    z: np.ndarray            # denoised estimates, (U,) or (U, T)
    r: np.ndarray            # final residual, same shape as z
    v_last: np.ndarray       # unconstrained estimates of the final iteration
    k: int                   # number of outer iterations performed


def gram(H: np.ndarray, counter: MultCounter | None = None) -> np.ndarray:
    """Hermitian Gram matrix; upper triangle computed, lower filled by conjugation."""
    B, U = H.shape
    F = H.conj().T @ H
    G = np.triu(F, 1)
    G = G + G.conj().T
    G[np.diag_indices(U)] = F.diagonal().real
    if counter is not None:
        counter.abs2(B * U)                 # diagonal entries are norms
        counter.cmul(B * U * (U - 1) // 2)  # strict upper triangle
    return G


def matched_filter(H: np.ndarray, y: np.ndarray,
                   counter: MultCounter | None = None) -> np.ndarray:
    """y_mf = H^H y for a single vector (B,) or a block of vectors (B, T)."""
    if counter is not None:
        B, U = H.shape
        T = 1 if y.ndim == 1 else y.shape[1]
        counter.cmul(B * U * T)
    return H.conj().T @ y


def reciprocal_sinr(G: np.ndarray, N0: float, Es: float,
                    counter: MultCounter | None = None,
                    recip_fn=np.reciprocal) -> np.ndarray:
    """Per-UE reciprocal SINR: row interference over squared diagonal plus
    the noise term scaled by the diagonal reciprocal."""
    d = G.diagonal().real
    if np.any(d <= 0):
        raise ValueError("Gram diagonal must be positive (degenerate channel column)")
    U = G.shape[0]
    off = np.abs(G) ** 2
    off[np.diag_indices(U)] = 0.0
    lam = off.sum(axis=1)
    r = recip_fn(d)
    a = r * r
    b = (N0 / Es) * r
    if counter is not None:
        counter.abs2(U * (U - 1))  # each UE squares its own row
        counter.rdiv(U)            # diagonal reciprocals
        counter.rmul(3 * U)        # square of reciprocal, noise term, product
    return lam * a + b


def _bitonic_argsort(keys: np.ndarray) -> np.ndarray:
    """Bitonic sorting network on (key, index) pairs; index breaks ties."""
    n = keys.size
    idx = np.arange(n)
    k_work = keys.copy()
    i_work = idx.copy()
    size = 2
    while size <= n:
        stride = size // 2
        while stride >= 1:
            for i in range(n):
                j = i ^ stride
                if j > i:
                    up = (i & size) == 0
                    a = (k_work[i], i_work[i])
                    b = (k_work[j], i_work[j])
                    if (a > b) == up:
                        k_work[i], k_work[j] = k_work[j], k_work[i]
                        i_work[i], i_work[j] = i_work[j], i_work[i]
            stride //= 2
        size *= 2
    return i_work


def sort_ues(inv_sinr: np.ndarray) -> np.ndarray:
    """Stable ascending argsort; a bitonic network is used when U is a power of two."""
    u = inv_sinr.size
    if u >= 2 and (u & (u - 1)) == 0:
        return _bitonic_argsort(np.asarray(inv_sinr, dtype=np.float64))
    return np.argsort(inv_sinr, kind="stable")


def make_blocks(perm: np.ndarray, L: int) -> np.ndarray:
    U = perm.size
    if U % L != 0:
        raise ValueError(f"U={U} must be divisible by block size L={L}")
    return perm.reshape(U // L, L)


def block_inverses(G: np.ndarray, blocks: np.ndarray,
                   counter: MultCounter | None = None,
                   recip_fn=np.reciprocal,
                   regularized: list | None = None) -> np.ndarray:
    """Closed-form inverses of the L x L Gram submatrices.

    L = 2 uses the adjugate form; near-singular blocks get eps*I added and
    are flagged. Other block sizes fall back to a dense solve.
    """
    M, L = blocks.shape
    kinv = np.empty((M, L, L), dtype=np.complex128)
    for m in range(M):
        A = blocks[m]
        Gb = G[np.ix_(A, A)]
        if L == 1:
            g = Gb[0, 0].real
            if abs(g) < 1e-300:
                g += 1e-6
                if regularized is not None:
                    regularized.append(m)
            kinv[m, 0, 0] = recip_fn(np.float64(g))
            if counter is not None:
                counter.rdiv(1)
            continue
        if L == 2:
            g11 = Gb[0, 0].real
            g22 = Gb[1, 1].real
            g12 = Gb[0, 1]
            # |g12|^2 is reused from the interference stage; not recounted.
            det = g11 * g22 - (g12.real ** 2 + g12.imag ** 2)
            tr = g11 + g22
            if abs(det) < 1e-10 * (tr / 2.0) ** 2:
                eps = 1e-6 * tr / 2.0
                g11 += eps
                g22 += eps
                det = g11 * g22 - (g12.real ** 2 + g12.imag ** 2)
                if regularized is not None:
                    regularized.append(m)
            d = recip_fn(np.float64(det))
            kinv[m, 0, 0] = g22 * d
            kinv[m, 1, 1] = g11 * d
            kinv[m, 0, 1] = -g12 * d
            kinv[m, 1, 0] = -np.conj(g12) * d
            if counter is not None:
                counter.rmul(1)       # g11 * g22
                counter.rdiv(1)       # 1 / det
                counter.rmul(2)       # diagonal scaling
                counter.cmul_real(1)  # off-diagonal scaling
        else:
            tr = Gb.diagonal().real.sum()
            try:
                kinv[m] = np.linalg.inv(Gb)
            except np.linalg.LinAlgError:
                kinv[m] = np.linalg.inv(Gb + (1e-6 * tr / L) * np.eye(L))
                if regularized is not None:
                    regularized.append(m)
    return kinv


def preprocess(H: np.ndarray, N0: float, Es: float = 1.0, *, L: int = 2,
               sort: bool = True, counter: MultCounter | None = None,
               recip_fn=np.reciprocal) -> PreprocOutput:
    """Run the once-per-channel stage: Gram, reciprocal SINR, ordering, inverses."""
    U = H.shape[1]
    G = gram(H, counter)
    inv_sinr = reciprocal_sinr(G, N0, Es, counter, recip_fn)
    perm = sort_ues(inv_sinr) if sort else np.arange(U)
    blocks = make_blocks(perm, L)
    regularized: list = []
    kinv = block_inverses(G, blocks, counter, recip_fn, regularized)
    return PreprocOutput(G, inv_sinr, perm, blocks, kinv, float(N0), float(Es),
                         L, regularized)


def gbcd_equalize(pre: PreprocOutput, y_mf: np.ndarray, K: int, denoiser, *,
                  counter: MultCounter | None = None,
                  trace_hook=None) -> EqualizerState:
    """K outer iterations of block least squares plus denoising.

    ``y_mf`` may be a single vector (U,) or a block (U, T); updates are
    Gauss-Seidel style, each new block estimate immediately enters the
    residual. The unconstrained estimates of the final iteration are kept
    for the soft-output stage.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    y_mf = np.asarray(y_mf, dtype=np.complex128)
    single = y_mf.ndim == 1
    ymat = y_mf[:, None] if single else y_mf
    U, T = ymat.shape
    z = np.zeros((U, T), dtype=np.complex128)
    r = ymat.copy()
    v_last = np.empty((U, T), dtype=np.complex128)
    for k in range(K):
        for m in range(pre.M):
            A = pre.blocks[m]
            v = pre.kinv[m] @ r[A] + z[A]
            if k == K - 1:
                v_last[A] = v
            z_new = denoiser.apply(v, k)
            dz = z_new - z[A]
            z[A] = z_new
            r -= pre.G[:, A] @ dz
            if counter is not None:
                counter.cmul(pre.L * pre.L * T)  # block solve
                counter.cmul(U * pre.L * T)      # residual update
            if trace_hook is not None:
                trace_hook(k, m, z.copy(), r.copy())
    if single:
        return EqualizerState(z[:, 0], r[:, 0], v_last[:, 0], K)
    return EqualizerState(z, r, v_last, K)


def _trace_writer(f):
    import csv

    writer = csv.writer(f)
    header_done = [False]

    def hook(k, m, z, r):
        if not header_done[0]:
            writer.writerow(["k", "m", "r_norm"]
                            + [f"z{u}_re" for u in range(z.shape[0])]
                            + [f"z{u}_im" for u in range(z.shape[0])])
            header_done[0] = True
        writer.writerow([k, m, float(np.linalg.norm(r))]
                        + [float(x) for x in z[:, 0].real]
                        + [float(x) for x in z[:, 0].imag])

    return hook


def gbcd_detect(H: np.ndarray, y: np.ndarray, N0: float, Es: float,
                const, K: int, *, mode: str = "box", rho=None, beta=None,
                alpha: float | None = None, L: int = 2, sort: bool = True,
                counter: MultCounter | None = None, trace_csv=None):
    """End-to-end detection: preprocessing, equalization, soft outputs.

    ``trace_csv`` writes one debug row per inner iteration (residual norm
    and estimate snapshot of the first transmission).
    """
    from .denoise import box_denoiser, pme_denoiser, compute_llrs

    pre = preprocess(H, N0, Es, L=L, sort=sort, counter=counter)
    if mode == "box":
        den = box_denoiser(const)
    elif mode == "pme":
        if rho is None or beta is None:
            raise ValueError("pme mode requires rho and beta schedules")
        den = pme_denoiser(const, rho, beta)
    else:
        raise ValueError(f"unknown denoiser mode {mode!r}")
    y_mf = matched_filter(H, y, counter)
    if trace_csv:
        with open(trace_csv, "w", newline="") as f:
            state = gbcd_equalize(pre, y_mf, K, den, counter=counter,
                                  trace_hook=_trace_writer(f))
    else:
        state = gbcd_equalize(pre, y_mf, K, den, counter=counter)
    if alpha is None:
        alpha = N0 / Es
    return compute_llrs(state.v_last, pre.G, N0, Es, alpha, const), state, pre
