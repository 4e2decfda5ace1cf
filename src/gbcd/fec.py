"""Convolutional coding chain for the coded block-error-rate harness.

Rate-1/2 mother code with constraint length 7 and generators (133, 171)
octal, punctured to 3/4 or 5/6 with the de-facto standard masks, randomly
interleaved, and decoded with a max-log soft-input Viterbi over the 64-state
trellis. Blocks are terminated with six tail zeros, which are accounted for
inside the rate bookkeeping. The decoder keeps its path metrics in float32,
less state 0's metric, which it subtracts once per 8-step chunk, so their
precision does not depend on the block length.

LLR inputs follow the package convention (positive LLR means bit 1 more
likely); the branch metric maps bit values to +/-1 accordingly. Punctured
positions carry zero LLRs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GENERATORS = (0o133, 0o171)
CONSTRAINT_LENGTH = 7
_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)
_HALF = _N_STATES // 2
_TAIL = CONSTRAINT_LENGTH - 1

# keep-masks over one puncturing period, per output stream
_PUNCTURE = {
    Fraction(1, 2): (np.array([1], dtype=bool), np.array([1], dtype=bool)),
    Fraction(3, 4): (np.array([1, 1, 0], dtype=bool), np.array([1, 0, 1], dtype=bool)),
    Fraction(5, 6): (np.array([1, 1, 0, 1, 0], dtype=bool),
                     np.array([1, 0, 1, 0, 1], dtype=bool)),
}

RATES = ("1/2", "3/4", "5/6")

# largest |LLR| decode_batch accepts: far below float32's 3.4e38, and small
# enough that no path metric sinks to the -1e30 of the unreachable states
LLR_LIMIT = 1e20


def _taps(gen: int) -> np.ndarray:
    return np.array([(gen >> (CONSTRAINT_LENGTH - 1 - j)) & 1
                     for j in range(CONSTRAINT_LENGTH)], dtype=np.uint8)


@dataclass(frozen=True)
class CodeConfig:
    rate: str                # "1/2" | "3/4" | "5/6"
    n_coded: int             # transmitted (punctured) bits per block
    interleaver_seed: int = 0

    def __post_init__(self):
        if self.rate not in RATES:
            raise ValueError(f"unsupported rate {self.rate!r}; use one of {RATES}")
        r = self.rate_fraction
        n_in = self.n_coded * r
        if n_in.denominator != 1:
            raise ValueError(f"n_coded={self.n_coded} incompatible with rate {self.rate}")
        period = _PUNCTURE[r][0].size
        if int(n_in) % period != 0:
            raise ValueError(f"encoder input length {n_in} must be a multiple of "
                             f"the puncturing period {period}")
        if int(n_in) <= _TAIL:
            raise ValueError("block too short to terminate the trellis")

    @property
    def rate_fraction(self) -> Fraction:
        num, den = self.rate.split("/")
        return Fraction(int(num), int(den))

    @property
    def n_input(self) -> int:
        """Encoder input length including the six tail zeros."""
        return int(self.n_coded * self.rate_fraction)

    @property
    def payload_bits(self) -> int:
        return self.n_input - _TAIL


def _keep_mask(cfg: CodeConfig) -> np.ndarray:
    """Boolean mask over the 2*n_input mother-coded bits (streams interleaved)."""
    m0, m1 = _PUNCTURE[cfg.rate_fraction]
    period = m0.size
    reps = cfg.n_input // period
    mask = np.empty(2 * cfg.n_input, dtype=bool)
    mask[0::2] = np.tile(m0, reps)
    mask[1::2] = np.tile(m1, reps)
    return mask


def _mod2_convolve(u: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Mod-2 convolution of every row with ``taps``, truncated to the row
    length: the XOR of the row shifted right by each tapped delay."""
    out = np.zeros_like(u)
    n = u.shape[-1]
    for delay in np.flatnonzero(taps):
        out[..., delay:] ^= u[..., :n - delay]
    return out


def encode(payload: np.ndarray, cfg: CodeConfig) -> np.ndarray:
    """Encode payload bits into n_coded transmitted bits (tail appended)."""
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.shape[-1] != cfg.payload_bits:
        raise ValueError(f"payload length {payload.shape[-1]} != {cfg.payload_bits}")
    u = np.concatenate([payload, np.zeros(payload.shape[:-1] + (_TAIL,), dtype=np.uint8)],
                       axis=-1)
    g0, g1 = (_taps(g) for g in GENERATORS)
    mother = np.empty(u.shape[:-1] + (2 * cfg.n_input,), dtype=np.uint8)
    mother[..., 0::2] = _mod2_convolve(u, g0)
    mother[..., 1::2] = _mod2_convolve(u, g1)
    return mother[..., _keep_mask(cfg)]


def depuncture(llrs: np.ndarray, cfg: CodeConfig) -> np.ndarray:
    """Expand transmitted-position LLRs to the mother-code grid (zeros
    inserted). Unpunctured (rate 1/2) LLRs are returned as they are."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape[-1] != cfg.n_coded:
        raise ValueError(f"llr length {llrs.shape[-1]} != {cfg.n_coded}")
    if cfg.n_coded == 2 * cfg.n_input:
        return llrs
    full = np.zeros(llrs.shape[:-1] + (2 * cfg.n_input,), dtype=np.float64)
    full[..., _keep_mask(cfg)] = llrs
    return full


@functools.lru_cache(maxsize=32)
def _interleaver_perm(n: int, seed: int) -> np.ndarray:
    """The interleaver's permutation of n positions; cached, read-only."""
    perm = np.random.default_rng(seed).permutation(n)
    perm.flags.writeable = False
    return perm


def interleave(bits: np.ndarray, seed: int) -> np.ndarray:
    bits = np.asarray(bits)
    return bits[..., _interleaver_perm(bits.shape[-1], seed)]


def deinterleave_llrs(llrs: np.ndarray, seed: int,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Undo ``interleave`` along the last axis. ``out``, if given, must have
    the shape of ``llrs`` and share no memory with it."""
    llrs = np.asarray(llrs)
    perm = _interleaver_perm(llrs.shape[-1], seed)
    if out is None:
        out = np.empty_like(llrs)
    elif out.shape != llrs.shape or np.shares_memory(out, llrs):
        raise ValueError("out must have the shape of llrs and share no "
                         "memory with it")
    out[..., perm] = llrs
    return out


# ---------------------------------------------------------------------------
# trellis tables

def _butterfly_signs():
    """(32, 1) signs SA, SB of butterfly k's branch metric l0*SA + l1*SB.

    The transition into next state ns from predecessor 2*(ns % 32) + j has
    input bit ns >> 5. Both generators must tap the newest and the oldest
    register bit, so that flipping either one negates both outputs; then the
    butterfly of predecessors 2k, 2k+1 and successors k, k+32 needs a single
    branch metric.
    """
    ns = np.arange(_N_STATES)
    sgn = np.empty((2, _N_STATES, 2))     # (generator, next state, j)
    for j in range(2):
        w = ((ns >> (CONSTRAINT_LENGTH - 2)) << (CONSTRAINT_LENGTH - 1)) \
            | ((ns & (_HALF - 1)) * 2 + j)
        for i, gen in enumerate(GENERATORS):
            bits = np.array([bin(int(x) & gen).count("1") & 1 for x in w])
            sgn[i, :, j] = 2.0 * bits - 1.0
    if not (np.array_equal(sgn[:, :, 1], -sgn[:, :, 0])
            and np.array_equal(sgn[:, _HALF:, 0], -sgn[:, :_HALF, 0])):
        raise ValueError(f"generators {tuple(map(oct, GENERATORS))} do not tap "
                         "both the newest and the oldest register bit; the "
                         "butterfly Viterbi decoder needs both")
    return sgn[0, :_HALF, 0, None], sgn[1, :_HALF, 0, None]


def _metric_rows():
    """(32,) row of butterfly k's branch metric bm = l0*SA[k] + l1*SB[k] in
    the table [s, d, -d, -s] (s = l0 + l1, d = l0 - l1): 2*(SA < 0) + (SB < 0).
    Negation and rounding are symmetric in IEEE arithmetic, so the row holds
    bm exactly, up to the sign of a zero."""
    sa, sb = _butterfly_signs()
    return 2 * (sa[:, 0] < 0) + (sb[:, 0] < 0)


_METRIC_ROWS = _metric_rows()
_CHUNK = 8                       # trellis steps per branch-metric/decision chunk
# multiplying 8 bytes of 0/1 by this puts byte j's bit at bit 56 + j
_PACK_BYTE = np.uint64(0x0102040810204080)


def _viterbi_batch(llr_pairs: np.ndarray) -> np.ndarray:
    """Max-log Viterbi over (n_blocks, n_steps, 2) LLR pairs; zero-state
    start and end (terminated blocks). Returns decoded inputs (n_blocks, n_steps).

    Radix-2 butterflies over metrics laid out (parity, state // 2, block), so
    the even predecessors 2k and the odd ones 2k+1 are each contiguous.
    Butterfly k has the branch metric b = l0*SA[k] + l1*SB[k]; its successors
    take new[k] = max(m[2k] + b, m[2k+1] - b) and
    new[k+32] = max(m[2k] - b, m[2k+1] + b), choosing 2k+1 only when its
    candidate is strictly larger. Each step gathers b from a per-chunk table
    [s, d, -d, -s], forms the four candidate planes with two adds and two
    subtracts, then takes one compare and one maximum, whose output lands
    back in the (parity, state // 2) layout through a strided view.

    Metrics, table and candidates are float32: s and d are formed from the
    float64 LLRs and rounded once into the table. After each chunk every
    metric drops by state 0's, which is finite from the first step on, so
    the metrics stay within a few chunks' branch metrics of zero however long
    the block. The survivors are not those of a float64 decoder by
    construction, since a rounding near a tie can flip one; they equal the
    float64 per-state argmax oracle on every tested grid, and exactly for
    integer LLRs, whose sums float32 holds without rounding. Decisions are
    written state-major, transposed once per chunk, and packed to one 64-bit
    word per step and block; the traceback steps back with
    state = 2*(state % 32) + decision bit.
    """
    nb, n_steps, _ = llr_pairs.shape
    metric = np.full((2, _HALF, nb), -1e30, dtype=np.float32)   # [j, k]: 2k + j
    metric[0, 0] = 0.0
    even, odd = metric
    # successor k + 32*c, k = 2h + j, as [c, h, j] of the same memory
    new = metric.transpose(1, 0, 2).reshape(2, _HALF // 2, 2, nb)
    table = np.empty((_CHUNK, 4, nb), dtype=np.float32)   # s, d, -d, -s
    bm = np.empty((_HALF, nb), dtype=np.float32)
    cand = np.empty((2, 2, _HALF, nb), dtype=np.float32)  # 2k + j -> k + 32c
    from_even, from_odd = cand
    (even_lo, even_hi), (odd_lo, odd_hi) = cand
    even_chj, odd_chj = cand.reshape(2, 2, _HALF // 2, 2, nb)   # indexed as new
    dec_by_state = np.empty((_CHUNK, _N_STATES, nb), dtype=bool)
    step_dec = dec_by_state.reshape(_CHUNK, 2, _HALF, nb)
    dec = np.empty((_CHUNK, nb, _N_STATES), dtype=bool)   # state-minor
    packed = np.empty((_CHUNK, nb, _N_STATES // 8), dtype=np.uint64)
    words = np.empty((n_steps, nb), dtype="<u8")
    ref = np.empty(nb, dtype=np.float32)
    l0 = llr_pairs[:, :, 0].T
    l1 = llr_pairs[:, :, 1].T
    for t0 in range(0, n_steps, _CHUNK):
        n = min(_CHUNK, n_steps - t0)
        steps = slice(t0, t0 + n)
        np.add(l0[steps], l1[steps], out=table[:n, 0])
        np.subtract(l0[steps], l1[steps], out=table[:n, 1])
        np.negative(table[:n, 1::-1], out=table[:n, 2:])
        for i in range(n):
            # the rows are valid; mode="raise" would buffer `out`
            np.take(table[i], _METRIC_ROWS, axis=0, out=bm, mode="clip")
            np.add(even, bm, out=even_lo)
            np.subtract(even, bm, out=even_hi)
            np.subtract(odd, bm, out=odd_lo)
            np.add(odd, bm, out=odd_hi)
            np.greater(from_odd, from_even, out=step_dec[i])
            np.maximum(even_chj, odd_chj, out=new)
        np.copyto(dec[:n], dec_by_state[:n].transpose(0, 2, 1))
        # bool bytes are 0/1: each group of 8 states packs into one byte
        np.multiply(dec[:n].view("<u8"), _PACK_BYTE, out=packed[:n])
        np.right_shift(packed[:n], np.uint64(56), out=packed[:n])
        words[steps] = packed[:n].astype(np.uint8).view("<u8")[..., 0]
        # state 0 is reachable at every step, so its metric is finite
        np.copyto(ref, even[0])
        np.subtract(metric, ref, out=metric)
    decoded = np.empty((n_steps, nb), dtype=np.uint8)
    state = np.zeros(nb, dtype=np.uint64)
    bit = np.empty(nb, dtype=np.uint64)
    one, low, shift = np.uint64(1), np.uint64(_HALF - 1), np.uint64(CONSTRAINT_LENGTH - 2)
    for t in range(n_steps - 1, -1, -1):
        np.right_shift(state, shift, out=decoded[t], casting="unsafe")
        np.right_shift(words[t], state, out=bit)
        np.bitwise_and(bit, one, out=bit)
        np.bitwise_and(state, low, out=state)
        np.left_shift(state, one, out=state)
        np.bitwise_or(state, bit, out=state)
    return decoded.T


def decode_batch(llrs: np.ndarray, cfg: CodeConfig,
                 truth: np.ndarray | None = None):
    """Soft-decode a batch of blocks, (n_blocks, n_coded) LLRs.

    Returns (payload bits, block_ok); block_ok is None without ground truth.
    ``truth`` must hold one payload row per block. Every LLR must be finite
    and within +/-LLR_LIMIT.
    """
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    # two reductions, false on NaN, with no temporary the size of llrs
    ok = (llrs.max(axis=1) <= LLR_LIMIT) & (llrs.min(axis=1) >= -LLR_LIMIT)
    if not ok.all():
        i = int(np.argmin(ok))
        if not np.isfinite(llrs[i]).all():
            raise ValueError(f"non-finite LLR in block {i}")
        raise ValueError(f"LLR beyond +/-{LLR_LIMIT:g} in block {i}: float32 "
                         "path metrics cannot carry it")
    full = depuncture(llrs, cfg)
    pairs = full.reshape(full.shape[0], cfg.n_input, 2)
    u = _viterbi_batch(pairs)
    payload = u[:, :cfg.payload_bits]
    ok = None
    if truth is not None:
        truth = np.asarray(truth, dtype=np.uint8)
        if truth.shape != payload.shape:
            raise ValueError(f"truth shape {truth.shape} != decoded payload "
                             f"shape {payload.shape}")
        ok = np.all(payload == truth, axis=1)
    return payload, ok

