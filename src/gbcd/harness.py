"""Monte-Carlo experiment harness: coded BLER / uncoded SER sweeps and the
incremental-technique ablation.

Every trial is one coherence block: a fresh channel carries T transmissions;
each UE's T symbols form one interleaved convolutional codeword, detected
to per-bit LLRs and soft-decoded. Trial randomness derives from
(seed, snr index, trial index) only, so detectors and ablation variants see
identical channels, symbols, and noise, and results are byte-reproducible.
Trials run in one thread, in groups whose codewords are decoded together;
within a group, each detector sees several trials' channels in one call,
and the detectors of one such stack share its Gram matrix, matched filter
and GBCD preprocessing (``detector.FrontEnd``).
A coded sweep point stops at the first trial at which every detector has
the requested number of block errors, always a decode group's last trial.

Every detector, sweep or ablation, is built from one spec: ``kind`` (gbcd,
lmmse or ocd) and, for GBCD, its block size ``L``, ``sort`` and, for a PME
denoiser, the ``source`` of its parameters (``_pme``); without one it uses
BOX. Each SNR point builds every GBCD denoiser once, before its first trial.
GBCD runs in fixed point when the config asks for it, at B <= 128 antennas.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import baselines, denoise, detector, fec, hwmodel, unfolding
from .channel import (CONDITIONS, LOS_K_FACTOR, LOS_MIN_SEP_DEG,
                      apply_channel, check_angle_separation, gen_channel,
                      noise_variance_for_snr)
from .config import (GBCD_L, SNR_DB_MAX, SNR_DB_MIN, ConfigError, check,
                     check_design, from_dict, key)
from .constellation import (SUPPORTED_ORDERS, hard_decision_indices,
                            make_constellation, symbol_indices_from_bits)

SWEEP_COLUMNS = ("snr_db", "detector", "bler", "ser", "trials", "block_errors")
ABLATE_COLUMNS = ("snr_db", "variant", "bler", "ser", "trials", "block_errors",
                  "data_hash")

DETECTOR_SPECS = {
    "gbcd-box": dict(kind="gbcd", L=GBCD_L, sort=True),
    "gbcd-pme": dict(kind="gbcd", L=GBCD_L, sort=True, source="store"),
    "lmmse": dict(kind="lmmse"),
    "ocd": dict(kind="ocd"),
}
DETECTORS = tuple(DETECTOR_SPECS)

ABLATION_VARIANTS = (
    ("cd-box", dict(kind="gbcd", L=1, sort=False)),
    ("cd-box+sort", dict(kind="gbcd", L=1, sort=True)),
    ("gbcd-box", dict(kind="gbcd", L=GBCD_L, sort=False)),
    ("gbcd-box+sort", dict(kind="gbcd", L=GBCD_L, sort=True)),
    ("gbcd-pme-empirical", dict(kind="gbcd", L=GBCD_L, sort=True,
                                source="empirical")),
    ("gbcd-pme-trained", dict(kind="gbcd", L=GBCD_L, sort=True,
                              source="trained")),
)
# PME sources in resolution order: a missing record fails before any search
PME_SOURCES = ("store", "trained", "empirical")

# Codeword blocks per fec.decode_batch call. The decoder's cost per block
# falls as the batch grows, but the group's LLR buffer and the decoder's
# per-call buffers grow with it. The group buffer is float32, so 256 blocks
# hold the bytes of 128 float64 ones and peak within about 0.2 MB of them
# (README, "Group decode").
DECODE_BLOCKS = 256

# Receive samples (B * T per trial) stacked per detector call. Each call
# pays the detectors' Python loops once for the whole stack, but every
# stacked 128x16, T = 120 trial adds about 1.5 MB of detector
# intermediates; two such trials per call keep peak memory within 2% of
# detecting one (README, "Trials"). Smaller designs stack more trials.
DETECT_SAMPLES = 2 * 128 * 120


@dataclass
class ExperimentConfig:
    """A ``gbcd simulate`` or ``gbcd ablate`` config; its keys' types and
    ranges are checked as ``config`` describes. Each trial is one
    coherence block: one channel carries its T transmissions."""

    B: int
    U: int
    Q: int = key(choices=SUPPORTED_ORDERS)
    # Infinity: noiseless
    snr_db: list[float] = key(ge=SNR_DB_MIN, lt=SNR_DB_MAX, inf=True)
    condition: str = key(choices=CONDITIONS)
    detectors: list[str] = key(choices=DETECTORS, unique=True)
    K: int = key(ge=1)
    seed: int = key(ge=0)
    code_rate: str = key("1/2", choices=fec.RATES)
    T: int = key(120, ge=1)
    trials: int = key(200, ge=1)
    min_block_errors: int = key(200, ge=1)
    fixed_point: bool = False
    params_path: str | None = None
    uncoded: bool = False
    k_factor: float = key(LOS_K_FACTOR, ge=0, inf=True)
    min_sep_deg: float = key(LOS_MIN_SEP_DEG, ge=0)

    def __post_init__(self):
        if not isinstance(self.snr_db, (list, tuple)):
            self.snr_db = [self.snr_db]     # a number is a one-point sweep
        check(self)
        try:
            check_angle_separation(self.U, self.min_sep_deg)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        check_design(self.B, self.U,
                     [DETECTOR_SPECS[d]["L"] for d in self.detectors
                      if DETECTOR_SPECS[d]["kind"] == "gbcd"])
        if self.fixed_point and self.B > hwmodel.PROFILED_B:
            raise ConfigError(
                f"fixed_point word lengths were profiled at the "
                f"{hwmodel.PROFILED_B}x16 design point and saturate beyond "
                f"{hwmodel.PROFILED_B} antennas, got B={self.B}")
        self.code   # builds the code: a ConfigError if T*log2(Q) misfits the rate

    @property
    def code(self) -> fec.CodeConfig | None:
        """The code of one UE's T symbols, or None when uncoded."""
        if self.uncoded:
            return None
        n_coded = self.T * (self.Q.bit_length() - 1)
        try:
            return fec.CodeConfig(self.code_rate, n_coded,
                                  interleaver_seed=self.seed)
        except ValueError as e:
            raise ConfigError(f"T={self.T} at Q={self.Q} gives {n_coded} "
                              f"coded bits: {e}") from e

    from_dict = classmethod(from_dict)


def _trial_rng(seed: int, snr_idx: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(snr_idx, trial)))


def _runner(spec: dict, cfg: ExperimentConfig, const, pme, snr_idx: int):
    """Detector of one spec as a function of a stack's front ends ->
    (soft output, hard indices). ``front(numerics)`` is the stack's
    ``detector.FrontEnd`` in a numeric context: channels H (N, B, U),
    receive blocks Y (N, B, T) and noise variances N0 (N,); the LLRs
    are (N, U, m, T). ``pme`` maps each PME source to its (denoiser,
    alpha) pairs, one per SNR."""
    kind = spec["kind"]
    numerics = (hwmodel.FIXED_POINT if kind == "gbcd" and cfg.fixed_point
                else detector.FLOAT)
    if kind == "lmmse":
        def detect(fe):
            return baselines.lmmse_detect(fe.H, fe.y, fe.N0, const, front=fe)
    elif kind == "ocd":
        def detect(fe):
            return baselines.ocd_detect(fe.H, fe.y, fe.N0, cfg.K, const,
                                        front=fe)
    else:
        denoiser, alpha = (pme[spec["source"]][snr_idx] if "source" in spec
                           else (denoise.box_denoiser(const), None))
        kw = dict(denoiser=denoiser, alpha=alpha, L=spec["L"],
                  sort=spec["sort"])

        def detect(fe):
            if cfg.fixed_point:
                return hwmodel.detect_fixed_point(fe.H, fe.y, fe.N0, const,
                                                  cfg.K, front=fe, **kw)
            return detector.gbcd_detect(fe.H, fe.y, fe.N0, const, cfg.K,
                                        front=fe, **kw)[0]

    def run(front):
        soft = detect(front(numerics))
        hard = hard_decision_indices(const, soft.v_final,
                                     soft.params.mu[..., None])
        return soft, hard

    return run


@dataclass
class _TrialStack:
    """Detector inputs of up to ``size`` trials, one channel per trial."""

    H: np.ndarray            # (size, B, U)
    Y: np.ndarray            # (size, B, T)
    N0: np.ndarray           # (size,)
    idx: np.ndarray          # (size, U, T) transmitted symbol indices

    @classmethod
    def empty(cls, cfg: ExperimentConfig, size: int) -> "_TrialStack":
        return cls(np.empty((size, cfg.B, cfg.U), dtype=np.complex128),
                   np.empty((size, cfg.B, cfg.T), dtype=np.complex128),
                   np.empty(size),
                   np.empty((size, cfg.U, cfg.T), dtype=np.int64))


def _draw_trial(cfg: ExperimentConfig, const, code: fec.CodeConfig | None,
                snr_idx: int, trial: int, stack: _TrialStack, slot: int,
                truth, hashed: bool) -> str | None:
    """Draw one trial, one channel carrying every UE's codeword, into
    ``slot`` of ``stack``: the symbols (or the payloads and their
    codewords), then H, then its noise. When coded, the payloads go to
    every runner's rows of ``truth`` (runners * U, payload_bits). Returns
    the hash of the trial's S, H and Y when ``hashed``, else None."""
    rng = _trial_rng(cfg.seed, snr_idx, trial)
    m = const.bits_per_symbol
    if code is None:
        idx = rng.integers(0, const.order, size=(cfg.U, cfg.T))
    else:
        payload = rng.integers(0, 2, size=(cfg.U, code.payload_bits)).astype(np.uint8)
        coded = fec.encode(payload, code)
        inter = fec.interleave(coded, code.interleaver_seed)
        idx = symbol_indices_from_bits(const, inter.reshape(cfg.U, cfg.T, m))
        truth.reshape(-1, cfg.U, code.payload_bits)[...] = payload
    S = const.points[idx]
    stack.idx[slot] = idx
    H = gen_channel(cfg.B, cfg.U, cfg.condition, rng,
                    k_factor=cfg.k_factor, min_sep_deg=cfg.min_sep_deg)
    N0 = noise_variance_for_snr(H, float(cfg.snr_db[snr_idx]))
    stack.H[slot] = H
    stack.N0[slot] = N0
    stack.Y[slot] = apply_channel(H, S, N0, rng)
    if not hashed:
        return None
    digest = hashlib.sha256(S.tobytes())
    digest.update(H.tobytes())
    digest.update(stack.Y[slot].tobytes())
    return digest.hexdigest()[:16]


def _front_ends(H: np.ndarray, Y: np.ndarray, N0: np.ndarray):
    """``front(numerics)``: the one ``detector.FrontEnd`` of (H, Y, N0)
    in a numeric context, built when first asked for."""
    fronts = {}

    def front(numerics):
        if numerics not in fronts:
            fronts[numerics] = detector.FrontEnd(H, Y, N0, numerics)
        return fronts[numerics]

    return front


def _detect(cfg: ExperimentConfig, code: fec.CodeConfig | None,
            runners: dict, stack: _TrialStack, n: int, llrs):
    """Run every runner once over the first ``n`` trials of ``stack``.

    The runners share one ``detector.FrontEnd`` of those trials per
    numeric context, built when a runner first asks for it and dropped on
    return: ``stack``'s buffers are refilled in place for the next stack.
    When coded, each runner's U codeword LLR streams per trial are
    deinterleaved into its rows of ``llrs`` (n, runners * U, n_coded),
    runner-major. Returns each runner's symbol errors over the stack.
    """
    U = cfg.U
    front = _front_ends(stack.H[:n], stack.Y[:n], stack.N0[:n])
    sym_errors = np.empty(len(runners), dtype=np.int64)
    for r, runner in enumerate(runners.values()):
        soft, hard = runner(front)
        sym_errors[r] = np.count_nonzero(hard != stack.idx[:n])
        if code is not None:
            # (n, U, m, T) in codeword order (n, U, T, m): one transposed
            # copy, deinterleaved into the runner's rows
            fec.deinterleave_llrs(soft.llrs.swapaxes(-1, -2).reshape(n, U, -1),
                                  code.interleaver_seed,
                                  out=llrs[:, r * U:(r + 1) * U])
    return sym_errors


def _run_point(cfg: ExperimentConfig, const, code, snr_idx: int,
               runners: dict, hashed: bool):
    """Run one SNR point's trials in decode groups of up to DECODE_BLOCKS
    codeword blocks (at least one trial), each decoded in one
    ``fec.decode_batch`` call. Within a group, trials are drawn and
    detected in stacks of up to DETECT_SAMPLES receive samples (at least
    one trial), one detector call per runner and stack.

    A coded point stops at the first trial at which every runner has
    reached ``min_block_errors``. A runner gains at most U block errors per
    trial, and a group holds at most ceil(short / U) trials, where short is
    what the runner furthest from the stop still needs. So the stop can
    only fall on a group's last trial: errors are summed per group and the
    stop is checked once per group, no trial past it is drawn, and grouping
    changes no result. Trial data is hashed only when ``hashed``.

    Returns the runners' block and symbol errors (int64, runner order), the
    trials run and the last trial's data hash."""
    n_rows = len(runners) * cfg.U
    per_call = max(1, min(DETECT_SAMPLES // (cfg.B * cfg.T), cfg.trials))
    group = per_call if code is None else \
        max(1, min(DECODE_BLOCKS // n_rows, cfg.trials))
    stack = _TrialStack.empty(cfg, min(per_call, group))
    if code is None:
        llrs = truth = [None] * group
    else:
        # float32, as the decoder rounds its branch metrics to float32
        llrs = np.empty((group, n_rows, code.n_coded), dtype=np.float32)
        truth = np.empty((group, n_rows, code.payload_bits), dtype=np.uint8)
    block_errors, sym_errors = np.zeros((2, len(runners)), dtype=np.int64)
    trial, data_hash = 0, None
    while trial < cfg.trials and (
            code is None or block_errors.min() < cfg.min_block_errors):
        n = min(group, cfg.trials - trial)
        if code is not None:
            short = cfg.min_block_errors - int(block_errors.min())
            n = min(n, -(-short // cfg.U))
        for a in range(0, n, per_call):
            b = min(n, a + per_call)
            for i in range(a, b):
                data_hash = _draw_trial(cfg, const, code, snr_idx, trial + i,
                                        stack, i - a, truth[i], hashed)
            sym_errors += _detect(cfg, code, runners, stack, b - a,
                                  llrs[a:b])
        if code is not None:
            _, ok = fec.decode_batch(llrs[:n].reshape(n * n_rows, -1), code,
                                     truth[:n].reshape(n * n_rows, -1))
            block_errors += np.sum(~ok.reshape(n, len(runners), cfg.U),
                                   axis=(0, 2))
        trial += n
    return block_errors, sym_errors, trial, data_hash


def _snr_key(snr_db: float) -> tuple[int, ...]:
    """Spawn-key words of an admitted SNR, non-negative as SeedSequence
    needs: round(100 snr_db) for a finite SNR >= 0, that of -snr_db and
    a word 1 below 0 dB, and (0, 2) for Infinity."""
    if snr_db == float("inf"):
        return 0, 2
    if snr_db < 0:
        return int(round(-snr_db * 100)), 1
    return (int(round(snr_db * 100)),)


def _pme(cfg: ExperimentConfig, const, store, snr_db: float, source: str):
    """(denoiser, alpha) of one PME source at one SNR; BOX has alpha None.
    ``store`` follows the store's fallback ladder, so it runs BOX only
    where the ladder mandates it, below ``TRAIN_SNR_RANGE_DB``; ``trained``
    needs a PME record; ``empirical`` grid-searches one (rho, beta) pair for
    all iterations and reads no record. A scenario the store holds no
    record of raises MissingParamsError for ``store`` and ``trained``."""
    if source == "empirical":
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=cfg.seed, spawn_key=(0xAB1A7E,) + _snr_key(snr_db)))
        batch = unfolding.make_batch(
            cfg.B, cfg.U, const, snr_db, cfg.condition, 200, rng,
            k_factor=cfg.k_factor, min_sep_deg=cfg.min_sep_deg)
        alpha = float(np.median(batch.N0))
        r, b = unfolding.grid_search_pme(
            batch, cfg.K, np.array([0.5, 1.0, 2.0, 4.0, 8.0]) / const.scale,
            const.scale * np.array([0.6, 0.8, 1.0, 1.2, 1.5]), alpha)
        return (denoise.pme_denoiser(const, np.full(cfg.K, r),
                                     np.full(cfg.K, b)), alpha)
    try:
        p = store.lookup(cfg.B, cfg.U, cfg.K, cfg.Q, cfg.condition,
                         snr_db).params
    except unfolding.MissingParamsError as e:
        raise unfolding.MissingParamsError(
            f"{e.args[0]} (params_path: {cfg.params_path or 'not set'})"
        ) from e
    if p is not None:
        return denoise.pme_denoiser(const, p.rho, p.beta), p.alpha
    if source == "trained":
        raise unfolding.MissingParamsError(
            "ablation needs trained parameters at every sweep SNR")
    return denoise.box_denoiser(const), None


def _run(cfg: ExperimentConfig, specs: dict, columns):
    """Run every SNR point for the named detector specs. Before the first
    trial, the specs' PME sources are resolved at every SNR, in PME_SOURCES
    order, from the store read once if a source reads it (or an empty one);
    an unreadable or malformed store is a ConfigError."""
    const = make_constellation(cfg.Q)
    code = cfg.code
    sources = [s for s in PME_SOURCES
               if any(spec.get("source") == s for spec in specs.values())]
    store = unfolding.ParamStore()
    if {"store", "trained"} & set(sources) and cfg.params_path is not None:
        store = unfolding.ParamStore.load(cfg.params_path)
    pme = {s: [_pme(cfg, const, store, float(snr_db), s)
               for snr_db in cfg.snr_db] for s in sources}
    rows = []
    for snr_idx, snr_db in enumerate(cfg.snr_db):
        runners = {name: _runner(spec, cfg, const, pme, snr_idx)
                   for name, spec in specs.items()}
        be, se, trials, data_hash = _run_point(cfg, const, code, snr_idx,
                                               runners, "data_hash" in columns)
        blocks = 0 if code is None else trials * cfg.U
        rows += [dict(zip(columns, (
            float(snr_db), name, b / blocks if blocks else float("nan"),
            s / (trials * cfg.U * cfg.T), trials, b, data_hash)))
            for name, b, s in zip(runners, be.tolist(), se.tolist())]
    return rows


def run_sweep(cfg: ExperimentConfig):
    """Monte-Carlo BLER/SER sweep; returns the rows of its CSV
    (``SWEEP_COLUMNS``) and writes nothing."""
    return _run(cfg, {d: DETECTOR_SPECS[d] for d in cfg.detectors},
                SWEEP_COLUMNS)


def run_ablation(cfg: ExperimentConfig, variants=None):
    """Incremental-technique comparison on identical per-trial data; of
    the variants, only ``gbcd-pme-trained`` reads the store (``_pme``).
    Returns the rows of its CSV (``ABLATE_COLUMNS``)."""
    spec_map = dict(ABLATION_VARIANTS)
    specs = {v: spec_map[v] for v in variants or spec_map}
    check_design(cfg.B, cfg.U, [spec["L"] for spec in specs.values()])
    return _run(cfg, specs, ABLATE_COLUMNS)
