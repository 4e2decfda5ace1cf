"""Convolutional coding chain for the coded block-error-rate harness.

Rate-1/2 mother code with constraint length 7 and generators (133, 171)
octal, punctured to 3/4 or 5/6 with the de-facto standard masks, randomly
interleaved, and decoded with a max-log soft-input Viterbi over the 64-state
trellis. Blocks are terminated with six tail zeros, which are accounted for
inside the rate bookkeeping.

LLR inputs follow the package convention (positive LLR means bit 1 more
likely); the branch metric maps bit values to +/-1 accordingly. Punctured
positions carry zero LLRs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GENERATORS = (0o133, 0o171)
CONSTRAINT_LENGTH = 7
_N_STATES = 1 << (CONSTRAINT_LENGTH - 1)
_TAIL = CONSTRAINT_LENGTH - 1

# keep-masks over one puncturing period, per output stream
_PUNCTURE = {
    Fraction(1, 2): (np.array([1], dtype=bool), np.array([1], dtype=bool)),
    Fraction(3, 4): (np.array([1, 1, 0], dtype=bool), np.array([1, 0, 1], dtype=bool)),
    Fraction(5, 6): (np.array([1, 1, 0, 1, 0], dtype=bool),
                     np.array([1, 0, 1, 0, 1], dtype=bool)),
}

RATES = ("1/2", "3/4", "5/6")


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


def _mod2_convolve(u: np.ndarray, taps: np.ndarray, n: int) -> np.ndarray:
    return np.apply_along_axis(lambda row: np.convolve(row, taps)[:n] % 2, -1, u)


def encode(payload: np.ndarray, cfg: CodeConfig) -> np.ndarray:
    """Encode payload bits into n_coded transmitted bits (tail appended)."""
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.shape[-1] != cfg.payload_bits:
        raise ValueError(f"payload length {payload.shape[-1]} != {cfg.payload_bits}")
    u = np.concatenate([payload, np.zeros(payload.shape[:-1] + (_TAIL,), dtype=np.uint8)],
                       axis=-1)
    g0, g1 = (_taps(g) for g in GENERATORS)
    mother = np.empty(u.shape[:-1] + (2 * cfg.n_input,), dtype=np.uint8)
    mother[..., 0::2] = _mod2_convolve(u, g0, cfg.n_input)
    mother[..., 1::2] = _mod2_convolve(u, g1, cfg.n_input)
    return mother[..., _keep_mask(cfg)]


def depuncture(llrs: np.ndarray, cfg: CodeConfig) -> np.ndarray:
    """Expand transmitted-position LLRs to the mother-code grid (zeros inserted)."""
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape[-1] != cfg.n_coded:
        raise ValueError(f"llr length {llrs.shape[-1]} != {cfg.n_coded}")
    full = np.zeros(llrs.shape[:-1] + (2 * cfg.n_input,), dtype=np.float64)
    full[..., _keep_mask(cfg)] = llrs
    return full


def _interleaver_perm(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n)


def interleave(bits: np.ndarray, seed: int) -> np.ndarray:
    bits = np.asarray(bits)
    return bits[..., _interleaver_perm(bits.shape[-1], seed)]


def deinterleave_llrs(llrs: np.ndarray, seed: int) -> np.ndarray:
    llrs = np.asarray(llrs)
    perm = _interleaver_perm(llrs.shape[-1], seed)
    out = np.empty_like(llrs)
    out[..., perm] = llrs
    return out


# ---------------------------------------------------------------------------
# trellis tables

def _trellis():
    """Predecessor-oriented trellis: for each next state its two predecessor
    states, the common input bit, and the +/-1 signs of both output bits."""
    states = np.arange(_N_STATES)
    prev = np.empty((_N_STATES, 2), dtype=np.int64)
    prev_bit = states >> (CONSTRAINT_LENGTH - 2)
    prev[:, 0] = (states & (_N_STATES // 2 - 1)) * 2
    prev[:, 1] = prev[:, 0] + 1
    sgn = np.empty((2, _N_STATES, 2), dtype=np.float64)
    for j in range(2):
        s = prev[:, j]
        w = (prev_bit << (CONSTRAINT_LENGTH - 1)) | s
        for i, gen in enumerate(GENERATORS):
            bits = np.array([bin(int(x) & gen).count("1") & 1 for x in w])
            sgn[i, :, j] = 2.0 * bits - 1.0
    return prev, prev_bit, sgn


_PREV, _PREV_BIT, _SGN = _trellis()


def _viterbi_batch(llr_pairs: np.ndarray) -> np.ndarray:
    """Max-log Viterbi over (n_blocks, n_steps, 2) LLR pairs; zero-state
    start and end (terminated blocks). Returns decoded inputs (n_blocks, n_steps)."""
    nb, n_steps, _ = llr_pairs.shape
    metric = np.full((nb, _N_STATES), -1e30)
    metric[:, 0] = 0.0
    choice = np.empty((nb, n_steps, _N_STATES), dtype=np.uint8)
    s0 = _SGN[0]
    s1 = _SGN[1]
    for t in range(n_steps):
        bm = (llr_pairs[:, t, 0, None, None] * s0
              + llr_pairs[:, t, 1, None, None] * s1)
        cand = metric[:, _PREV] + bm
        best = cand.argmax(axis=2)
        choice[:, t] = best
        metric = np.take_along_axis(cand, best[:, :, None], axis=2)[:, :, 0]
    decoded = np.empty((nb, n_steps), dtype=np.uint8)
    state = np.zeros(nb, dtype=np.int64)
    rows = np.arange(nb)
    for t in range(n_steps - 1, -1, -1):
        decoded[:, t] = _PREV_BIT[state]
        j = choice[rows, t, state]
        state = _PREV[state, j]
    return decoded


def decode_batch(llrs: np.ndarray, cfg: CodeConfig,
                 truth: np.ndarray | None = None):
    """Soft-decode a batch of blocks, (n_blocks, n_coded) LLRs.

    Returns (payload bits, block_ok); block_ok is None without ground truth.
    """
    llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
    full = depuncture(llrs, cfg)
    pairs = full.reshape(full.shape[0], cfg.n_input, 2)
    u = _viterbi_batch(pairs)
    payload = u[:, :cfg.payload_bits]
    ok = None
    if truth is not None:
        truth = np.atleast_2d(np.asarray(truth, dtype=np.uint8))
        ok = np.all(payload == truth, axis=1)
    return payload, ok


def decode(llrs: np.ndarray, cfg: CodeConfig, truth: np.ndarray | None = None):
    """Single-block convenience wrapper around decode_batch."""
    payload, ok = decode_batch(llrs[None, :], cfg,
                               None if truth is None else truth[None, :])
    return payload[0], (None if ok is None else bool(ok[0]))
