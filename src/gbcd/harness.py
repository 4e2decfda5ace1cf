"""Monte-Carlo experiment harness: coded BLER / uncoded SER sweeps and the
incremental-technique ablation.

Every trial is one coherence block: a fresh channel carries T transmissions;
each UE's T symbols form one interleaved convolutional codeword, detected
to per-bit LLRs and soft-decoded. Trial randomness derives from
(seed, snr index, trial index) only, so detectors and ablation variants see
identical channels, symbols, and noise, and results are byte-reproducible.
Trials run in one thread, in groups whose codewords are decoded together;
within a group, each detector sees several trials' channels in one call.
A coded sweep point stops at the first trial at which every detector has
accumulated the requested number of block errors.

Every detector, sweep or ablation, is built from one spec: ``kind`` (gbcd,
lmmse or ocd) and, for GBCD, its block size ``L``, ``sort`` and, for a PME
denoiser, the ``source`` of its parameters; without one it uses BOX. Each
SNR point builds every GBCD denoiser once, before its first trial. GBCD
runs in fixed point when the config asks for it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
from dataclasses import dataclass

import numpy as np

from . import baselines, denoise, detector, fec, hwmodel, unfolding
from .channel import (CONDITIONS, apply_channel, check_angle_separation,
                      gen_channel, noise_variance_for_snr)
from .config import (GBCD_L, SNR_DB_MAX, SNR_DB_MIN, ConfigError, check,
                     check_design, from_dict, key)
from .constellation import (SUPPORTED_ORDERS, hard_decision_indices,
                            make_constellation, symbol_indices_from_bits)

SWEEP_COLUMNS = ("snr_db", "detector", "bler", "ser", "trials", "block_errors")
ABLATE_COLUMNS = ("snr_db", "variant", "bler", "ser", "trials", "block_errors",
                  "data_hash")

DETECTOR_SPECS = {
    "gbcd-box": dict(kind="gbcd", L=GBCD_L, sort=True),
    "gbcd-pme": dict(kind="gbcd", L=GBCD_L, sort=True, source="trained"),
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

# Codeword blocks per fec.decode_batch call. The decoder's cost per block
# falls as the batch grows, but the group's LLR buffer and the decoder's
# per-call buffers grow with it; 128 blocks keep peak memory within about 2%
# of decoding one trial per call (README, "FEC decoding").
DECODE_BLOCKS = 128

# Receive samples (B * T per trial) stacked per detector call. Each call
# pays the detectors' Python loops once for the whole stack, but every
# stacked 128x16, T = 120 trial adds about 1.5 MB of detector
# intermediates; two such trials per call keep peak memory within 2% of
# detecting one (README, "Trials"). Smaller designs stack more trials.
DETECT_SAMPLES = 2 * 128 * 120


@dataclass
class ExperimentConfig:
    """A ``gbcd simulate`` or ``gbcd ablate`` config; its keys' types and
    ranges are checked as ``config`` describes."""

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
    out: str | None = None
    params_path: str | None = None
    allow_box_fallback: bool = False
    uncoded: bool = False
    k_factor: float = key(10.0, ge=0, inf=True)
    min_sep_deg: float = key(1.0, ge=0)
    coherence_groups: int = key(1, ge=1)   # independent channels per coherence block

    @property
    def group_len(self) -> int:
        return self.T // self.coherence_groups

    def __post_init__(self):
        if not isinstance(self.snr_db, (list, tuple)):
            self.snr_db = [self.snr_db]     # a number is a one-point sweep
        check(self)
        if self.T % self.coherence_groups != 0:
            raise ConfigError(f"T={self.T} must be divisible by "
                              f"coherence_groups={self.coherence_groups}")
        try:
            check_angle_separation(self.U, self.min_sep_deg)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        check_design(self.B, self.U,
                     [DETECTOR_SPECS[d]["L"] for d in self.detectors
                      if DETECTOR_SPECS[d]["kind"] == "gbcd"])
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


def _resolve_pme(cfg: ExperimentConfig, const, store, snr_db: float):
    """The store's lookup, which follows the documented fallback ladder, as
    a (denoiser, alpha) pair; the BOX denoiser keeps the default alpha."""
    box = (denoise.box_denoiser(const), None)
    try:
        p = store.lookup(cfg.B, cfg.U, cfg.K, cfg.Q, cfg.condition,
                         snr_db).params
    except unfolding.MissingParamsError as e:
        if cfg.allow_box_fallback:
            return box
        raise unfolding.MissingParamsError(
            f"{e.args[0]} (params_path: {cfg.params_path or 'not set'})") from e
    return box if p is None else (denoise.pme_denoiser(const, p.rho, p.beta),
                                  p.alpha)


def _runner(spec: dict, cfg: ExperimentConfig, const, pme: dict):
    """Detector of one spec as a function (H, Y, N0) -> (llrs, hard indices)
    over a stack of channels H (N, B, U), receive blocks Y (N, B, glen) and
    noise variances N0 (N,); the LLRs are (N, U, m, glen). ``pme`` maps each
    PME source to its (denoiser, alpha) pair resolved at this SNR."""
    kind = spec["kind"]
    if kind == "lmmse":
        def detect(H, Y, N0):
            return baselines.lmmse_detect(H, Y, N0, const)
    elif kind == "ocd":
        def detect(H, Y, N0):
            return baselines.ocd_detect(H, Y, N0, cfg.K, const)
    else:
        denoiser, alpha = (pme[spec["source"]] if "source" in spec
                           else (denoise.box_denoiser(const), None))
        kw = dict(denoiser=denoiser, alpha=alpha, L=spec["L"],
                  sort=spec["sort"])

        def detect(H, Y, N0):
            if cfg.fixed_point:
                return hwmodel.detect_fixed_point(H, Y, N0, const, cfg.K, **kw)
            return detector.gbcd_detect(H, Y, N0, const, cfg.K, **kw)[0]

    def run(H, Y, N0):
        soft = detect(H, Y, N0)
        hard = hard_decision_indices(const, soft.v_final,
                                     soft.params.mu[..., None])
        return soft.llrs, hard

    return run


@dataclass
class _TrialStack:
    """Detector inputs of up to ``size`` trials along one channel axis:
    trial i's coherence groups are the channels i*G to (i+1)*G - 1."""

    H: np.ndarray            # (size * G, B, U)
    Y: np.ndarray            # (size * G, B, glen)
    N0: np.ndarray           # (size * G,)
    idx: np.ndarray          # (size, G, U, glen) transmitted symbol indices

    @classmethod
    def empty(cls, cfg: ExperimentConfig, size: int) -> "_TrialStack":
        G, glen = cfg.coherence_groups, cfg.group_len
        return cls(np.empty((size * G, cfg.B, cfg.U), dtype=np.complex128),
                   np.empty((size * G, cfg.B, glen), dtype=np.complex128),
                   np.empty(size * G),
                   np.empty((size, G, cfg.U, glen), dtype=np.int64))


def _draw_trial(cfg: ExperimentConfig, const, code: fec.CodeConfig | None,
                snr_idx: int, trial: int, stack: _TrialStack, slot: int,
                truth, hashed: bool) -> str | None:
    """Draw one trial (one or more coherence groups spanning a codeword)
    into ``slot`` of ``stack``. When coded, its payloads go to every
    runner's rows of ``truth`` (runners * U, payload_bits). Returns the
    trial's data hash when ``hashed``, else None."""
    rng = _trial_rng(cfg.seed, snr_idx, trial)
    snr_db = float(cfg.snr_db[snr_idx])
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

    G, glen = cfg.coherence_groups, cfg.group_len
    stack.idx[slot] = idx.reshape(cfg.U, G, glen).swapaxes(0, 1)
    digest = hashlib.sha256(S.tobytes()) if hashed else None
    for g in range(G):
        c = slot * G + g
        H = gen_channel(cfg.B, cfg.U, cfg.condition, rng,
                        k_factor=cfg.k_factor, min_sep_deg=cfg.min_sep_deg)
        N0 = noise_variance_for_snr(H, snr_db)
        stack.H[c] = H
        stack.N0[c] = N0
        stack.Y[c] = apply_channel(H, S[:, g * glen:(g + 1) * glen], N0, rng)
        if hashed:
            digest.update(H.tobytes())
            digest.update(stack.Y[c].tobytes())
    return digest.hexdigest()[:16] if hashed else None


def _detect(cfg: ExperimentConfig, code: fec.CodeConfig | None,
            runners: dict, stack: _TrialStack, n: int, llrs):
    """Run every runner once over the first ``n`` trials of ``stack``.

    When coded, each runner's U codeword LLR streams per trial are
    deinterleaved into its rows of ``llrs`` (n, runners * U, n_coded),
    runner-major. Returns the symbol errors (n, runners).
    """
    G, U, glen = cfg.coherence_groups, cfg.U, cfg.group_len
    channels = slice(0, n * G)
    sym_errors = np.empty((n, len(runners)), dtype=np.int64)
    for r, runner in enumerate(runners.values()):
        soft, hard = runner(stack.H[channels], stack.Y[channels],
                            stack.N0[channels])
        sym_errors[:, r] = np.sum(hard.reshape(n, G, U, glen)
                                  != stack.idx[:n], axis=(1, 2, 3))
        if code is not None:
            # (n*G, U, m, glen) in codeword order (n, U, G, glen, m): one
            # transposed copy, deinterleaved into the runner's rows
            m = soft.shape[-2]
            soft = soft.reshape(n, G, U, m, glen).transpose(0, 2, 1, 4, 3)
            fec.deinterleave_llrs(soft.reshape(n, U, -1),
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
    trial, so a group never holds more trials than the runner furthest
    from the stop still needs; no trial past the stop is drawn, and
    grouping changes no result. Trial data is hashed only when ``hashed``
    (a column reports it)."""
    totals = {name: [0, 0, 0, 0, None] for name in runners}
    n_rows = len(runners) * cfg.U
    per_call = max(1, min(DETECT_SAMPLES // (cfg.B * cfg.T), cfg.trials))
    group = per_call if code is None else \
        max(1, min(DECODE_BLOCKS // n_rows, cfg.trials))
    stack = _TrialStack.empty(cfg, min(per_call, group))
    if code is None:
        llrs = truth = [None] * group
    else:
        llrs = np.empty((group, n_rows, code.n_coded))
        truth = np.empty((group, n_rows, code.payload_bits), dtype=np.uint8)
    trial = 0
    while trial < cfg.trials:
        n = min(group, cfg.trials - trial)
        if code is not None:
            short = cfg.min_block_errors - min(t[0] for t in totals.values())
            n = min(n, max(1, -(-short // cfg.U)))
        hashes = []
        errors = np.zeros((n, len(runners)), dtype=np.int64)
        sym_errors = np.empty((n, len(runners)), dtype=np.int64)
        for a in range(0, n, per_call):
            b = min(n, a + per_call)
            hashes += [_draw_trial(cfg, const, code, snr_idx, trial + i,
                                   stack, i - a, truth[i], hashed)
                       for i in range(a, b)]
            sym_errors[a:b] = _detect(cfg, code, runners, stack, b - a,
                                      llrs[a:b])
        if code is not None:
            _, ok = fec.decode_batch(llrs[:n].reshape(n * n_rows, -1), code,
                                     truth[:n].reshape(n * n_rows, -1))
            errors = np.sum(~ok.reshape(n, len(runners), cfg.U), axis=2)
        for data_hash, trial_errors, trial_sym in zip(
                hashes, errors.tolist(), sym_errors.tolist()):
            trial += 1
            for name, be, se in zip(runners, trial_errors, trial_sym):
                tot = totals[name]
                tot[0] += be
                tot[1] += 0 if code is None else cfg.U
                tot[2] += se
                tot[3] += cfg.U * cfg.T
                tot[4] = data_hash
            if code is not None and all(t[0] >= cfg.min_block_errors
                                        for t in totals.values()):
                return totals, trial
    return totals, trial


def _rows_from_totals(snr_db, totals, trials, columns):
    """One row per runner; the sweep's columns end before the data hash."""
    return [dict(zip(columns, (snr_db, name,
                               be / blocks if blocks else float("nan"),
                               se / syms, trials, be, h)))
            for name, (be, blocks, se, syms, h) in totals.items()]


def _write_csv(path_or_buf, rows, columns):
    """Write ``rows`` as CSV to a path or an open text stream."""
    with (open(path_or_buf, "w", newline="") if isinstance(path_or_buf, str)
          else contextlib.nullcontext(path_or_buf)) as f:
        w = csv.DictWriter(f, fieldnames=columns)
        w.writeheader()
        w.writerows(rows)


def _run(cfg: ExperimentConfig, specs: dict, pme_sources, columns):
    """Run every SNR point for the named detector specs. Before the first
    trial, ``pme_sources(cfg, const, store, snr_db, sources)`` resolves the
    PME sources the specs name at every SNR, from the store read once (or
    an empty one); an unreadable or malformed store is a ConfigError."""
    const = make_constellation(cfg.Q)
    code = cfg.code
    sources = {spec["source"] for spec in specs.values() if "source" in spec}
    store = unfolding.ParamStore()
    if sources and cfg.params_path is not None:
        store = unfolding.ParamStore.load(cfg.params_path)
    pme = [pme_sources(cfg, const, store, float(snr_db), sources)
           if sources else {} for snr_db in cfg.snr_db]
    rows = []
    for snr_idx, snr_db in enumerate(cfg.snr_db):
        runners = {name: _runner(spec, cfg, const, pme[snr_idx])
                   for name, spec in specs.items()}
        totals, trials = _run_point(cfg, const, code, snr_idx, runners,
                                    "data_hash" in columns)
        rows.extend(_rows_from_totals(float(snr_db), totals, trials,
                                      columns))
    if cfg.out:
        _write_csv(cfg.out, rows, columns)
    return rows


def run_sweep(cfg: ExperimentConfig):
    """Monte-Carlo BLER/SER sweep; returns CSV rows and writes cfg.out if set."""
    return _run(cfg, {d: DETECTOR_SPECS[d] for d in cfg.detectors},
                _sweep_pme_sources, SWEEP_COLUMNS)


def _sweep_pme_sources(cfg: ExperimentConfig, const, store, snr_db: float,
                       sources) -> dict:
    return {"trained": _resolve_pme(cfg, const, store, snr_db)}


def run_ablation(cfg: ExperimentConfig, variants=None):
    """Incremental-technique comparison on identical per-trial data.

    The PME variants need trained parameters for every sweep SNR; the
    empirical pair comes from a coarse grid search, run once per SNR when
    ``gbcd-pme-empirical`` is selected.
    """
    spec_map = dict(ABLATION_VARIANTS)
    specs = {v: spec_map[v] for v in variants or spec_map}
    check_design(cfg.B, cfg.U, [spec["L"] for spec in specs.values()])
    return _run(cfg, specs, _ablation_pme_params, ABLATE_COLUMNS)


def _ablation_pme_params(cfg: ExperimentConfig, const, store, snr_db: float,
                         sources) -> dict:
    trained = _resolve_pme(cfg, const, store, snr_db)
    if isinstance(trained[0], denoise.BoxDenoiser):
        raise unfolding.MissingParamsError(
            "ablation needs trained parameters at every sweep SNR")
    if "empirical" not in sources:
        return {"trained": trained}
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(0xAB1A7E, int(round(snr_db * 100)))))
    batch = unfolding.make_batch(cfg.B, cfg.U, const, snr_db, cfg.condition,
                                 200, rng, k_factor=cfg.k_factor,
                                 min_sep_deg=cfg.min_sep_deg)
    alpha = float(np.median(batch.N0))
    scale = const.scale
    rho_grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0]) / scale
    beta_grid = scale * np.array([0.6, 0.8, 1.0, 1.2, 1.5])
    r, b = unfolding.grid_search_pme(batch, cfg.K, rho_grid, beta_grid, alpha)
    return {"trained": trained,
            "empirical": (denoise.pme_denoiser(const, np.full(cfg.K, r),
                                               np.full(cfg.K, b)), alpha)}
