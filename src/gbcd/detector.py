"""Gram-domain block coordinate descent (GBCD) data detection.

Preprocessing computes, once per channel realization: the Gram matrix, the
reciprocal per-UE SINR metric, the SINR-sorted UE ordering and its block
partition, the per-block inverses of the Gram submatrices, and the Gram
matrix permuted into that update order. Equalization then runs K outer
iterations of per-block least squares plus denoising on each receive
vector, tracking interference through a residual recursion on the permuted
Gram matrix instead of touching the channel matrix again. Float and
fixed-point detection share this path and differ only by their ``Numerics``.

A ``FrontEnd`` holds the channel-dependent inputs of one channel or stack
in one numeric context (Gram matrix, matched filter, preprocessing), each
built once, so that several detectors of the same data share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Numerics:
    """Numeric context of the detection datapath.

    ``quantize(signal, x)`` rounds the named signal (``h``, ``y``, ``g``,
    ``ymf``, ``z`` or ``llr``) to its word length; ``recip`` is the scalar
    reciprocal used in the SINR, block-inverse and LLR stages.
    """

    quantize: Callable = lambda signal, x: x
    recip: Callable = np.reciprocal


# float arithmetic: no rounding, exact reciprocals
FLOAT = Numerics()


@dataclass
class PreprocOutput:
    """Preprocessing of one channel, or of a stack of channels along the
    leading axes ``...`` shared by every field."""

    G: np.ndarray            # (..., U, U) Hermitian Gram matrices
    Gp: np.ndarray           # (..., U, U) G[..., perm, perm], each channel
                             # column-major (``_permuted_gram``)
    inv_sinr: np.ndarray     # (..., U) reciprocal SINR metric
    blocks: np.ndarray       # (..., M, L) UE index blocks in update order
    kinv: np.ndarray         # (..., M, L, L) per-block inverses
    N0: float | np.ndarray   # float, or one value per channel
    regularized: list = field(default_factory=list)  # flat indices into
                                                     # blocks[..., 0] that needed eps*I

    @property
    def U(self) -> int:
        return self.Gp.shape[-1]

    @property
    def L(self) -> int:
        return self.blocks.shape[-1]

    @property
    def perm(self) -> np.ndarray:
        """UE ordering (..., U): the blocks read in update order."""
        return self.blocks.reshape(self.blocks.shape[:-2] + (-1,))

    @property
    def M(self) -> int:
        """Number of L-blocks over all channels (per channel when unbatched)."""
        return math.prod(self.blocks.shape[:-1])


@dataclass
class EqualizerState:
    z: np.ndarray            # denoised estimates, (..., U) or (..., U, T)
    r: np.ndarray            # final residual, same shape as z
    v_last: np.ndarray       # unconstrained estimates of the final iteration


def _hermitian(H: np.ndarray) -> np.ndarray:
    return H.conj().swapaxes(-1, -2)


def gram(H: np.ndarray) -> np.ndarray:
    """Hermitian Gram matrix of H (..., B, U), filled in place from
    F = H^H H: the upper triangle is F with 0.0 added to its real parts,
    the lower the conjugate of the upper plus 0.0, the diagonal F's real
    part. That is bit for bit triu(F, 1) + triu(F, 1)^H with F's real
    diagonal, signed zeros included."""
    U = H.shape[-1]
    G = _hermitian(H) @ H
    d = np.arange(U)
    diag = G[..., d, d].real
    G.real += 0.0
    lo, up = np.tril_indices(U, -1)
    low = G[..., up, lo]
    np.conjugate(low, out=low)
    low += 0.0
    G[..., lo, up] = low
    G[..., d, d] = diag
    return G


def matched_filter(H: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y_mf = H^H y for H (..., B, U) and one vector (..., B) or a block of
    vectors (..., B, T) per channel."""
    if y.ndim == H.ndim - 1:
        return (_hermitian(H) @ y[..., None])[..., 0]
    return _hermitian(H) @ y


def reciprocal_sinr(G: np.ndarray, N0: float | np.ndarray,
                    recip_fn=np.reciprocal) -> np.ndarray:
    """Per-UE reciprocal SINR: row interference over squared diagonal plus
    the noise term scaled by the diagonal reciprocal. ``N0`` is a scalar or
    holds one value per channel of the stack G (..., U, U)."""
    U = G.shape[-1]
    i = np.arange(U)
    d = G[..., i, i].real
    if np.any(d <= 0):
        raise ValueError("Gram diagonal must be positive (degenerate channel column)")
    off = np.abs(G) ** 2
    off[..., i, i] = 0.0
    lam = off.sum(axis=-1)
    r = recip_fn(d)
    a = r * r
    b = np.asarray(N0, dtype=np.float64)[..., None] * r
    return lam * a + b


def sort_ues(inv_sinr: np.ndarray) -> np.ndarray:
    """Stable ascending argsort along the last axis; ties keep UE order."""
    return np.argsort(inv_sinr, axis=-1, kind="stable")


def make_blocks(perm: np.ndarray, L: int) -> np.ndarray:
    U = perm.shape[-1]
    if U % L != 0:
        raise ValueError(f"U={U} must be divisible by block size L={L}")
    return perm.reshape(perm.shape[:-1] + (U // L, L))


def _gather(G: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """G[..., rows, cols] for each channel of G (..., U, U) in one flat-index
    read; ``rows`` and ``cols`` (..., *) broadcast to the C-contiguous result."""
    lead, U = G.shape[:-2], G.shape[-1]
    idx = U * rows + cols
    base = U * U * np.arange(math.prod(lead))
    idx += base.reshape(lead + (1,) * (idx.ndim - len(lead)))
    return G.reshape(-1)[idx]


def _permuted_gram(G: np.ndarray, order: np.ndarray) -> np.ndarray:
    """G[..., order, order], each channel column-major: a block's columns are
    an F-contiguous (U, L) slice, the layout of a gathered G[:, A]; row-major
    sends numpy to another BLAS kernel and moves some T = 1 results an ulp."""
    return _gather(G, order[..., None, :], order[..., :, None]).swapaxes(-1, -2)


def block_inverses(G: np.ndarray, blocks: np.ndarray,
                   recip_fn=np.reciprocal,
                   regularized: list | None = None) -> np.ndarray:
    """Inverses of the L x L Gram submatrices, (..., M, L, L).

    The modeled datapath has block sizes L = 1 (a reciprocal) and L = 2
    (the adjugate); any other L is a ValueError. Near-singular blocks get
    eps*I added and their flat indices into blocks[..., 0] are appended to
    ``regularized``.
    """
    L = blocks.shape[-1]
    if L not in (1, 2):
        raise ValueError(f"block size L={L} is not modeled: the datapath "
                         "has L = 1 and L = 2")
    # Gb[..., m, i, j] = G[..., blocks[..., m, i], blocks[..., m, j]]
    Gb = _gather(G, blocks[..., :, None], blocks[..., None, :])
    if L == 1:
        g = Gb[..., 0, 0].real
        flagged = np.abs(g) < 1e-300
        kinv = recip_fn(np.where(flagged, g + 1e-6, g))[..., None, None]
        kinv = kinv.astype(np.complex128)
    else:
        g11 = Gb[..., 0, 0].real
        g22 = Gb[..., 1, 1].real
        g12 = Gb[..., 0, 1]
        abs2_12 = g12.real ** 2 + g12.imag ** 2
        det = g11 * g22 - abs2_12
        tr = g11 + g22
        flagged = np.abs(det) < 1e-10 * (tr / 2.0) ** 2
        if flagged.any():
            eps = 1e-6 * tr / 2.0
            g11 = np.where(flagged, g11 + eps, g11)
            g22 = np.where(flagged, g22 + eps, g22)
            det = np.where(flagged, g11 * g22 - abs2_12, det)
        d = recip_fn(det)
        kinv = np.empty(Gb.shape, dtype=np.complex128)
        kinv[..., 0, 0] = g22 * d
        kinv[..., 1, 1] = g11 * d
        kinv[..., 0, 1] = -g12 * d
        kinv[..., 1, 0] = -np.conj(g12) * d
    if regularized is not None:
        regularized.extend(np.flatnonzero(flagged).tolist())
    return kinv


def preprocess(H: np.ndarray, N0: float | np.ndarray, *,
               L: int = 2, sort: bool = True,
               numerics: Numerics = FLOAT,
               G: np.ndarray | None = None) -> PreprocOutput:
    """Run the once-per-channel stage: Gram, reciprocal SINR, ordering,
    inverses and the Gram matrix in update order.

    ``H`` is one channel (B, U) or a stack (..., B, U); for a stack, ``N0``
    is a scalar or holds one value per channel. ``G``, when given, is H's
    Gram matrix already quantized as ``g`` in ``numerics``, and the stage
    starts from it.
    """
    if G is None:
        G = numerics.quantize("g", gram(H))
    U = G.shape[-1]
    inv_sinr = reciprocal_sinr(G, N0, numerics.recip)
    perm = sort_ues(inv_sinr) if sort else \
        np.broadcast_to(np.arange(U), inv_sinr.shape).copy()
    blocks = make_blocks(perm, L)
    regularized: list = []
    kinv = block_inverses(G, blocks, numerics.recip, regularized)
    N0 = float(N0) if np.ndim(N0) == 0 else np.asarray(N0, dtype=np.float64)
    return PreprocOutput(G, _permuted_gram(G, perm), inv_sinr, blocks, kinv,
                         N0, regularized)


class FrontEnd:
    """The channel-dependent detector inputs of one channel or stack
    ``H`` with receive data ``y`` and noise variances ``N0`` (shapes as in
    ``gbcd_detect``) in one numeric context. Each is built once, on first
    use: ``H`` and ``y`` quantized as ``h`` and ``y``, then from them the
    Gram matrix ``G`` (quantized as ``g``) and the matched filter ``y_mf``
    (quantized as ``ymf``), and one ``PreprocOutput`` per block size and
    ordering, all from that one ``G``.

    Detectors handed the same front end read the same arrays, so sharing
    it changes no result. The arrays are shared, not copied: no reader
    may write to them.
    """

    def __init__(self, H: np.ndarray, y: np.ndarray,
                 N0: float | np.ndarray, numerics: Numerics = FLOAT):
        self.H, self.y, self.N0, self.numerics = H, y, N0, numerics
        self._pre: dict = {}

    @cached_property
    def _quantized(self) -> tuple[np.ndarray, np.ndarray]:
        return (self.numerics.quantize("h", self.H),
                self.numerics.quantize("y", self.y))

    @cached_property
    def G(self) -> np.ndarray:
        return self.numerics.quantize("g", gram(self._quantized[0]))

    @cached_property
    def y_mf(self) -> np.ndarray:
        return self.numerics.quantize("ymf", matched_filter(*self._quantized))

    def preprocess(self, L: int, sort: bool) -> PreprocOutput:
        if (L, sort) not in self._pre:
            self._pre[L, sort] = preprocess(
                self._quantized[0], self.N0, L=L, sort=sort,
                numerics=self.numerics, G=self.G)
        return self._pre[L, sort]


def front_end(H: np.ndarray, y: np.ndarray, N0: float | np.ndarray,
              numerics: Numerics = FLOAT,
              front: FrontEnd | None = None) -> FrontEnd:
    """``front`` once checked to hold these very inputs in this numeric
    context; without one, a new front end of them."""
    if front is None:
        return FrontEnd(H, y, N0, numerics)
    if (front.H is not H or front.y is not y or front.N0 is not N0
            or front.numerics != numerics):
        raise ValueError("front end holds other inputs or another numeric "
                         "context than the detector call")
    return front


def gbcd_equalize(pre: PreprocOutput, y_mf: np.ndarray, K: int, denoiser, *,
                  trace_hook=None,
                  numerics: Numerics = FLOAT) -> EqualizerState:
    """K outer iterations of block least squares plus denoising.

    ``pre`` is the preprocessing of one channel or of a stack of channels
    (leading axes ``...``); ``y_mf`` holds a single vector (..., U) or a
    block (..., U, T) per channel. Updates are Gauss-Seidel style, each new
    block estimate immediately enters the residual. The unconstrained
    estimates of the final iteration are kept for the soft-output stage;
    each denoiser output is quantized as ``z``.

    The recursion runs in update order, where block m is the slice
    m*L:(m+1)*L: it reads the Gram matrix as preprocessing permuted it,
    ``pre.Gp``, and permutes y_mf once. The results and the ``trace_hook``
    snapshots (..., U, T) are in UE order.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    lead = pre.blocks.shape[:-2]
    M, L = pre.blocks.shape[-2:]
    U = M * L
    y_mf = np.asarray(y_mf, dtype=np.complex128)
    single = y_mf.ndim == len(lead) + 1
    ymat = y_mf[..., None] if single else y_mf
    T = ymat.shape[-1]
    n = math.prod(lead)
    # flat row of each UE of the (n * U, T) view, in update order
    rows = (U * np.arange(n).reshape(lead + (1,)) + pre.perm).reshape(-1)
    ue_rows = np.empty_like(rows)
    ue_rows[rows] = np.arange(n * U)

    def ue_order(x):
        return x.reshape(-1, n * U, T)[:, ue_rows].reshape(x.shape)

    Gp = pre.Gp
    # r, z and v_last in one buffer, restored to UE order by one gather
    state = np.empty((3,) + lead + (U, T), dtype=np.complex128)
    r, z, v_last = state
    np.take(ymat.reshape(n * U, T), rows, axis=0, out=r.reshape(n * U, T))
    z.fill(0.0)
    for k in range(K):
        for m in range(M):
            A = slice(m * L, (m + 1) * L)
            v = pre.kinv[..., m, :, :] @ r[..., A, :] + z[..., A, :]
            if k == K - 1:
                v_last[..., A, :] = v
            z_new = numerics.quantize("z", denoiser.apply(v, k))
            dz = z_new - z[..., A, :]
            z[..., A, :] = z_new
            r -= Gp[..., :, A] @ dz
            if trace_hook is not None:
                trace_hook(k, m, ue_order(z), ue_order(r))
    r, z, v_last = ue_order(state)
    if single:
        return EqualizerState(z[..., 0], r[..., 0], v_last[..., 0])
    return EqualizerState(z, r, v_last)


def gbcd_detect(H: np.ndarray, y: np.ndarray, N0: float | np.ndarray,
                const, K: int, *, denoiser=None,
                alpha: float | np.ndarray | None = None, L: int = 2,
                sort: bool = True, numerics: Numerics = FLOAT,
                front: FrontEnd | None = None):
    """End-to-end detection: preprocessing, equalization, soft outputs.

    ``H`` is one channel (B, U) or a stack (..., B, U); ``y`` holds one
    receive vector (..., B) or a block (..., B, T) per channel, and ``N0``
    is a scalar or one value per channel. ``denoiser`` is any object with
    ``apply(v, k)``, such as ``denoise.pme_denoiser``; it defaults to
    ``denoise.box_denoiser(const)``. ``alpha`` defaults to N0 per
    channel. The LLRs are (..., U, bits[, T]) and every channel of a stack
    gets what detecting it alone gives.

    ``numerics`` also quantizes ``h`` and ``y`` on entry, ``ymf`` and the
    LLRs. The Gram matrix, matched filter and preprocessing come from
    ``front``, a ``FrontEnd`` of these inputs in ``numerics`` that other
    detectors may share; without one, the call builds its own.
    """
    from .denoise import box_denoiser, compute_llrs

    front = front_end(H, y, N0, numerics, front)
    pre = front.preprocess(L, sort)
    if denoiser is None:
        denoiser = box_denoiser(const)
    state = gbcd_equalize(pre, front.y_mf, K, denoiser, numerics=numerics)
    if alpha is None:
        alpha = pre.N0
    soft = compute_llrs(state.v_last, pre.G, alpha, const,
                        recip_fn=numerics.recip)
    soft.llrs = numerics.quantize("llr", soft.llrs)
    return soft, state, pre
