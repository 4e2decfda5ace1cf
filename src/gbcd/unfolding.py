"""Deep-unfolding trainer for the piecewise posterior-mean detector.

The K outer iterations are unrolled into a differentiable computation with
2K + 1 scalar parameters: a slope and a half-spacing per iteration plus the
soft-output normalizer. Training minimizes the bitwise binary cross-entropy
of the detector's soft outputs with Adam; the gradient is an analytic
reverse-mode pass through the unrolled updates (clipped ramps carry
subgradient zero outside and at their kinks, the max-log minima
differentiate through the argmin branch).

The forward pass is ``detector.gbcd_equalize`` on the stack of samples, with
a denoiser that evaluates both axes in one clipped-ramp pass and records the
block estimates, and the LLR gains of ``denoise.LlrParams.from_gram``. The
max-log metric takes each Gray bit's subset minima, and the argmins the
backward pass needs, from ``denoise._gray_subsets``, the distance pass
behind the detectors' LLRs, so the stage exists once. The backward pass
evaluates the ramps' reductions once per outer iteration and runs in
the equalizer's update order, where each block is a slice.

Positivity is enforced by reparameterization: slopes and spacings live in
the log domain, the normalizer in the softplus domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from types import SimpleNamespace

import numpy as np

from . import denoise, detector
from .channel import (gen_channel, is_noiseless, noise_variance_for_snr,
                      receive, unit_normals)
from .config import (GBCD_L, TRAIN_SNR_RANGE_DB, ConfigError, Scenario,
                     check, check_design, from_dict, key, read_json)
from .constellation import Constellation, make_constellation

LOSS_CAP = -math.log(1e-12)  # per-bit cap, equivalent to clamping P at 1e-12
PREPROCESS_SLICE = 256       # samples stacked per preprocessing call


class MissingParamsError(KeyError):
    """No trained parameters stored for the requested scenario."""


class TrainingDiverged(ConfigError):
    """The training loss became non-finite; a smaller ``lr`` may train."""


@dataclass(frozen=True)
class TrainedScenario(Scenario):
    """A stored record's ``scenario``: a training scenario and its K."""

    K: int = key(ge=1)


@dataclass
class TrainedParams:
    """One parameter-store record: the schedule trained for a scenario, one
    slope and one half-spacing per iteration; checked when built or loaded."""

    rho: list[float] = key(gt=0)         # (K,) slopes
    beta: list[float] = key(gt=0)        # (K,) half-spacings
    alpha: float = key(ge=0)             # soft-output normalizer
    scenario: TrainedScenario
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        check(self)
        if not len(self.rho) == len(self.beta) == self.scenario.K:
            raise ConfigError(f"rho and beta need K={self.scenario.K} "
                              f"entries, got {len(self.rho)} and {len(self.beta)}")


@dataclass
class TrainBatch:
    """Per-sample channels and transmissions plus cached preprocessing."""

    const: Constellation
    bits: np.ndarray         # (N, U, log2 Q)
    G: np.ndarray            # (N, U, U)
    y_mf: np.ndarray         # (N, U)
    blocks: np.ndarray       # (N, M, L)
    kinv: np.ndarray         # (N, M, L, L)
    N0: np.ndarray           # (N,)

    @property
    def n(self) -> int:
        return self.bits.shape[0]


def make_batch(B: int, U: int, const: Constellation, snr_db: float,
               condition: str, n: int, rng: np.random.Generator, *,
               k_factor: float = 10.0, min_sep_deg: float = 1.0) -> TrainBatch:
    """Generate n samples, each with its own channel, symbols, and noise,
    preprocessed as ``gbcd-pme`` detects: block size GBCD_L, sorted.

    ``k_factor`` and ``min_sep_deg`` shape LOS channels as in
    ``gen_channel``. Per sample the random stream is consumed as by
    ``gen_channel`` followed by ``transmit`` with T = 1: [LOS angles,] H,
    the symbols, the noise (none when snr_db is +inf; NaN and -inf raise
    ValueError before any draw). Only these draws run per sample, straight
    into stacked buffers of up to PREPROCESS_SLICE samples, so the random
    stream does not depend on PREPROCESS_SLICE; N0, the transmit tail, the
    bit labels and preprocessing run once per slice.
    """
    M, L = U // GBCD_L, GBCD_L
    bits = np.empty((n, U, const.bits_per_symbol), dtype=np.uint8)
    G = np.empty((n, U, U), dtype=np.complex128)
    y_mf = np.empty((n, U), dtype=np.complex128)
    blocks = np.empty((n, M, L), dtype=np.int64)
    kinv = np.empty((n, M, L, L), dtype=np.complex128)
    N0 = np.empty(n)
    for start in range(0, n, PREPROCESS_SLICE):
        stop = min(n, start + PREPROCESS_SLICE)
        H = np.empty((stop - start, B, U), dtype=np.complex128)
        idx = np.empty((stop - start, U, 1), dtype=np.int64)
        w = None if is_noiseless(snr_db) else np.empty((stop - start, B, 1),
                                                       dtype=np.complex128)
        for i in range(stop - start):
            H[i] = gen_channel(B, U, condition, rng, k_factor=k_factor,
                               min_sep_deg=min_sep_deg)
            idx[i] = rng.integers(0, const.order, size=(U, 1))
            if w is not None:
                unit_normals(rng, w[i])
        N0[start:stop] = noise_variance_for_snr(H, snr_db)
        Y = receive(H, const.points[idx], w, N0[start:stop])
        bits[start:stop] = const.bit_labels[idx[..., 0]]
        pre = detector.preprocess(H, N0[start:stop], L=L)
        G[start:stop] = pre.G
        y_mf[start:stop] = detector.matched_filter(H, Y[..., 0])
        blocks[start:stop] = pre.blocks
        kinv[start:stop] = pre.kinv
    return TrainBatch(const, bits, G, y_mf, blocks, kinv, N0)


# ---------------------------------------------------------------------------
# unrolled forward / backward

def _plm_forward(x: np.ndarray, rho: float, beta: float, offsets: np.ndarray):
    """The reductions the backward pass needs of the clipped-ramp sum over
    the offsets: the active count, active-argument sum and
    active-offset-derivative sum. ``grad`` calls it once per outer
    iteration, on that iteration's M block estimates in update order with
    the real and imaginary parts stacked last."""
    arg = x[..., None] + 2.0 * beta * offsets
    active = np.abs(rho * arg) < 1.0
    cnt = active.sum(axis=-1).astype(np.float64)
    svb = np.where(active, arg, 0.0).sum(axis=-1)
    s2t = np.where(active, 2.0 * offsets, 0.0).sum(axis=-1)
    return cnt, svb, s2t


def _unrolled_forward(rho: np.ndarray, beta: np.ndarray, alpha: float,
                      batch: TrainBatch, K: int, want_cache: bool):
    for name, p in (("slope", rho), ("half-spacing", beta)):
        if p.size != K:
            raise ValueError(f"need {K} {name} parameters, got {p.size}")
    if batch.n == 0:
        raise ValueError("empty batch")
    const = batch.const
    gamma = const.n_pam // 2 - 1
    offsets = np.arange(-gamma, gamma + 1, dtype=np.float64)
    steps = []

    def apply(v, k):
        """The clipped-ramp map on both axes of each sample's transmission
        in one pass (the real and imaginary parts of ``v`` viewed as a
        trailing pair); with ``want_cache``, records ``v``."""
        if want_cache:
            steps.append(v[..., 0])
        x = v.view(np.float64)[..., None]
        raw = np.clip(rho[k] * (x + 2.0 * beta[k] * offsets), -1.0, 1.0)
        return const.scale * raw.sum(axis=-1).view(np.complex128)

    pre = detector.PreprocOutput(batch.G, None, batch.blocks, batch.kinv, batch.N0)
    v_final = detector.gbcd_equalize(pre, batch.y_mf, K,
                                     SimpleNamespace(apply=apply)).v_last

    # soft-output stage (unit symbol energy throughout the package)
    gains = denoise.LlrParams.from_gram(batch.G, alpha)
    mu = gains.mu
    inv_xi = 1.0 / gains.xi

    # per Gray bit: the metric d0 - d1, and the residual x - mu a and level a
    # at each subset's argmin for the backward pass
    def argmin(d, cols):
        i = np.argmin(d, axis=0)
        return (np.take_along_axis(d, i[None], axis=0)[0],
                const.pam_points[cols[i]])

    metrics, mins = [], []
    for ax in (v_final.real, v_final.imag):
        for (d0, a0), (d1, a1) in denoise._gray_subsets(ax, mu, const, argmin):
            metrics.append(d0 - d1)
            mins.append((ax - mu * a0, a0, ax - mu * a1, a1))
    metric = np.stack(metrics, axis=-1)          # (n, U, m) [re bits, im bits]
    llr = metric * inv_xi[..., None]

    X = batch.bits.astype(np.float64)
    sgn = 1.0 - 2.0 * X                          # +1 for bit 0, -1 for bit 1
    terms = np.logaddexp(0.0, sgn * llr)
    capped = terms > LOSS_CAP
    terms = np.minimum(terms, LOSS_CAP)
    loss = float(terms.sum(axis=(1, 2)).mean())

    cache = None
    if want_cache:
        # every step's estimate, (n, K, U, [re, im]) in update order
        n, U = batch.y_mf.shape
        x = np.concatenate(steps, axis=1).view(np.float64).reshape(n, K, U, 2)
        cache = {"x": x, "mu": mu,
                 "floored": gains.xi_floored, "llr": llr, "mins": mins,
                 "capped": capped, "X": X, "offsets": offsets,
                 "inv_xi": inv_xi}
    return loss, cache


def _params_arrays(params) -> tuple[np.ndarray, np.ndarray, float]:
    return (np.asarray(params["rho"], dtype=np.float64),
            np.asarray(params["beta"], dtype=np.float64),
            float(params["alpha"]))


def forward_loss(params, batch: TrainBatch, K: int) -> float:
    """Mean over the batch of the per-transmission bitwise BCE."""
    rho, beta, alpha = _params_arrays(params)
    loss, _ = _unrolled_forward(rho, beta, alpha, batch, K, want_cache=False)
    return loss


def grad(params, batch: TrainBatch, K: int):
    """Analytic gradient of forward_loss in the natural (rho, beta, alpha)
    coordinates. Returns (loss, {"rho": (K,), "beta": (K,), "alpha": float}).

    The backward pass runs in update order, like ``gbcd_equalize``: block m
    of G's columns, of the estimates and of their gradient ``gz`` is the
    slice m*L:(m+1)*L. The residual's gradient ``gr`` stays in UE order, the
    order in which each block's column sum runs.
    """
    rho, beta, alpha = _params_arrays(params)
    const = batch.const
    loss, c = _unrolled_forward(rho, beta, alpha, batch, K, want_cache=True)
    n, M, L = batch.blocks.shape
    U = M * L
    scale = const.scale

    # loss stage: d loss / d llr = (P - X) / n, zero where the cap is active
    P = denoise.llr_to_prob(c["llr"])
    gllr = np.where(c["capped"], 0.0, P - c["X"]) / n

    inv_xi = c["inv_xi"]
    gmetric = gllr * inv_xi[..., None]
    gxi = -(gllr * c["llr"]).sum(axis=-1) * inv_xi

    m_axis = const.axis_bits
    gx = np.zeros((n, U))
    gy = np.zeros((n, U))
    gmu = np.zeros((n, U))
    for b, (e0, a0, e1, a1) in enumerate(c["mins"]):
        gm = gmetric[..., b]
        target = gx if b < m_axis else gy
        target += gm * 2.0 * (e0 - e1)
        gmu += gm * 2.0 * (a1 * e1 - a0 * e0)
    mu = c["mu"]
    dxi_dmu = np.where(c["floored"], 0.0, 1.0 - 2.0 * mu)
    gmu += gxi * dxi_dmu
    dmu_dalpha = -mu / (batch.G.diagonal(0, 1, 2).real + alpha)
    galpha = float((gmu * dmu_dalpha).sum())

    # per block m: the positions of its UEs in a flattened (n, U) array,
    # and G's columns and the block inverse at those UEs, conjugated, as
    # contiguous (n, U, L) and (n, L, L) arrays
    blocks = batch.blocks.transpose(1, 0, 2)
    flat = blocks + U * np.arange(n)[:, None]
    rows = U * np.arange(n * U).reshape(n, U, 1)
    Gc = batch.G.reshape(-1)[rows + blocks[:, :, None, :]].conj()
    kc = np.ascontiguousarray(batch.kinv.transpose(1, 0, 2, 3)).conj()
    gv_final = (gx + 1j * gy).reshape(-1)[flat]

    gz = np.zeros((n, U), dtype=np.complex128)
    gr = np.zeros((n, U), dtype=np.complex128)
    grf = gr.reshape(-1)
    grho = np.zeros(K)
    gbeta = np.zeros(K)
    for k in reversed(range(K)):
        cnt, svb, s2t = _plm_forward(c["x"][:, k], rho[k], beta[k],
                                     c["offsets"])
        for m in reversed(range(M)):
            A = slice(m * L, (m + 1) * L)
            gdz = -np.einsum("nul,nu->nl", Gc[m], gr)
            gzn = gz[:, A] + gdz
            gre = gzn.real
            gim = gzn.imag
            grho[k] += scale * float((svb[:, A, 0] * gre
                                      + svb[:, A, 1] * gim).sum())
            gbeta[k] += scale * rho[k] * float((s2t[:, A, 0] * gre
                                                + s2t[:, A, 1] * gim).sum())
            gv = scale * rho[k] * (cnt[:, A, 0] * gre + 1j * cnt[:, A, 1] * gim)
            if k == K - 1:
                gv = gv + gv_final[m]
            gz[:, A] = -gdz + gv
            grf[flat[m]] += np.einsum("nji,nj->ni", kc[m], gv)

    return loss, {"rho": grho, "beta": gbeta, "alpha": galpha}


# ---------------------------------------------------------------------------
# training

@dataclass
class TrainConfig:
    """The ``training`` section of a train config."""

    n_train: int = key(2000, ge=1)
    n_val: int = key(2000, ge=1)
    batch_size: int = key(100, ge=1)
    lr: float = key(1e-2, gt=0)
    max_epochs: int = key(150, ge=1)
    patience: int = key(10, ge=1)   # early-stopping window on the validation loss
    lr_decay_patience: int = key(5, ge=1)
    lr_decay: float = key(0.5, gt=0, le=1)
    seed: int = key(0, ge=0)
    # None: 1/init_beta (the initial denoiser is the box), the constellation
    # scale and the median N0 of the training set
    init_rho: float | None = key(None, gt=0)
    init_beta: float | None = key(None, gt=0)
    init_alpha: float | None = key(None, gt=0)

    def __post_init__(self):
        check(self)


@dataclass
class TrainJob:
    """A ``gbcd train`` config: the scenario to train for, the iteration
    count K and the training settings."""

    scenario: Scenario
    K: int = key(ge=1)
    training: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        check(self)
        check_design(self.scenario.B, self.scenario.U, (GBCD_L,))


class _Adam:
    def __init__(self, n: int, lr: float, b1: float = 0.9, b2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.b1, self.b2, self.eps = b1, b2, eps
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = self.b1 * self.m + (1 - self.b1) * g
        self.v = self.b2 * self.v + (1 - self.b2) * g * g
        mh = self.m / (1 - self.b1 ** self.t)
        vh = self.v / (1 - self.b2 ** self.t)
        return theta - self.lr * mh / (np.sqrt(vh) + self.eps)


def _softplus(x: float) -> float:
    return float(np.logaddexp(0.0, x))


def _softplus_inv(y: float) -> float:
    """Inverse softplus of y > 0 (init_alpha's schema, or a median N0)."""
    return float(y + np.log(-np.expm1(-y))) if y > 1e-10 else float(np.log(np.expm1(y)))


def _theta_to_params(theta: np.ndarray, K: int):
    rho = np.exp(theta[:K])
    beta = np.exp(theta[K:2 * K])
    alpha = _softplus(theta[2 * K])
    return rho, beta, alpha


def train(scenario, config: TrainConfig, K: int) -> TrainedParams:
    """Train (rho, beta, alpha) for one scenario by unrolled gradient descent.

    ``scenario`` is a ``Scenario``, so its snr_db lies in
    ``TRAIN_SNR_RANGE_DB``. Training and validation sets come from disjoint
    seed streams. Adam runs on mini-batches; the learning rate halves after
    ``lr_decay_patience`` epochs without validation improvement and training
    stops after ``patience`` such epochs, returning the best parameters seen.
    """
    snr = scenario.snr_db
    const = make_constellation(scenario.Q)
    ss = np.random.SeedSequence(config.seed)
    s_train, s_val, s_shuffle = ss.spawn(3)
    train_set = make_batch(scenario.B, scenario.U, const, snr,
                           scenario.condition, config.n_train,
                           np.random.default_rng(s_train))
    val_set = make_batch(scenario.B, scenario.U, const, snr,
                         scenario.condition, config.n_val,
                         np.random.default_rng(s_val))

    init_beta = config.init_beta if config.init_beta is not None else const.scale
    init_rho = config.init_rho if config.init_rho is not None else 1.0 / init_beta
    init_alpha = config.init_alpha if config.init_alpha is not None \
        else float(np.median(train_set.N0))
    theta = np.concatenate([
        np.full(K, math.log(init_rho)),
        np.full(K, math.log(init_beta)),
        [_softplus_inv(init_alpha)],
    ])
    adam = _Adam(theta.size, config.lr)
    shuffle_rng = np.random.default_rng(s_shuffle)

    def val_loss(th):
        rho, beta, alpha = _theta_to_params(th, K)
        return forward_loss({"rho": rho, "beta": beta, "alpha": alpha}, val_set, K)

    best_loss = val_loss(theta)
    best_theta = theta.copy()
    best_epoch = 0
    stall = 0
    lr_stall = 0
    history = [best_loss]
    n = train_set.n
    for epoch in range(1, config.max_epochs + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            mb = TrainBatch(const, train_set.bits[idx], train_set.G[idx],
                            train_set.y_mf[idx], train_set.blocks[idx],
                            train_set.kinv[idx], train_set.N0[idx])
            rho, beta, alpha = _theta_to_params(theta, K)
            loss, g = grad({"rho": rho, "beta": beta, "alpha": alpha}, mb, K)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"training diverged: loss {loss} at "
                                       f"epoch {epoch} with lr {config.lr}")
            # chain rule through the positivity reparameterization
            g_theta = np.concatenate([
                g["rho"] * rho,
                g["beta"] * beta,
                [g["alpha"] * (1.0 / (1.0 + math.exp(-theta[2 * K])))],
            ])
            theta = adam.step(theta, g_theta)
        vl = val_loss(theta)
        history.append(vl)
        if vl < best_loss:
            best_loss = vl
            best_theta = theta.copy()
            best_epoch = epoch
            stall = 0
            lr_stall = 0
        else:
            stall += 1
            lr_stall += 1
            if lr_stall >= config.lr_decay_patience:
                adam.lr *= config.lr_decay
                lr_stall = 0
            if stall >= config.patience:
                break
    rho, beta, alpha = _theta_to_params(best_theta, K)
    meta = {"epochs_run": len(history) - 1, "best_epoch": best_epoch,
            "final_val_loss": best_loss, "seed": config.seed,
            "val_history": [float(v) for v in history]}
    return TrainedParams(rho.tolist(), beta.tolist(), alpha,
                         TrainedScenario(K=K, **vars(scenario)), meta)


def grid_search_pme(batch: TrainBatch, K: int, rho_grid, beta_grid,
                    alpha: float) -> tuple[float, float]:
    """Empirical tuning: one (rho, beta) pair shared by all iterations,
    selected by exhaustive search on the batch loss."""
    best = (None, None, np.inf)
    for r in rho_grid:
        for b in beta_grid:
            params = {"rho": np.full(K, r), "beta": np.full(K, b), "alpha": alpha}
            loss = forward_loss(params, batch, K)
            if loss < best[2]:
                best = (float(r), float(b), loss)
    return best[0], best[1]


# ---------------------------------------------------------------------------
# parameter store

@dataclass
class LookupResult:
    params: TrainedParams | None    # None: the box denoiser
    fallback: str | None            # None when the match is exact


class ParamStore:
    """Per-scenario parameter records behind a human-readable JSON file."""

    def __init__(self, records: list[TrainedParams] | None = None):
        self.records = list(records or [])

    def add(self, params: TrainedParams) -> None:
        """Add a record, replacing any of the same scenario."""
        self.records = [r for r in self.records
                        if r.scenario != params.scenario]
        self.records.append(params)

    def save(self, path) -> None:
        payload = {"records": sorted((asdict(r) for r in self.records),
                                     key=lambda d: json.dumps(d["scenario"],
                                                              sort_keys=True))}
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def load(cls, path) -> "ParamStore":
        """Read a store; a missing or malformed file or record is a
        ConfigError that names the store and the record."""
        where = f"parameter store {path}"
        try:
            payload = read_json(path)
            records = (payload.get("records") if isinstance(payload, dict)
                       else None)
            if not isinstance(records, list):
                raise ConfigError("records must be a list")
            for i, r in enumerate(records):
                where = f"parameter store {path}, record {i}"
                records[i] = from_dict(TrainedParams, r, "record")
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}") from e
        return cls(records)

    def lookup(self, B: int, U: int, K: int, Q: int, condition: str,
               snr_db: float) -> LookupResult:
        """Resolve parameters for a scenario: the one place that picks PME
        or BOX. Below ``TRAIN_SNR_RANGE_DB`` BOX is mandated; above it
        the highest trained SNR is reused; otherwise the nearest trained SNR
        is used, flagged unless exact. Raises MissingParamsError when no
        record matches (B, U, K, Q, condition).
        """
        lo, hi = TRAIN_SNR_RANGE_DB
        if snr_db < lo:
            return LookupResult(None, "snr-below-training-range")
        key = (B, U, K, Q, condition)
        cands = [r for r in self.records if key == tuple(
            getattr(r.scenario, k) for k in ("B", "U", "K", "Q", "condition"))]
        if not cands:
            raise MissingParamsError(f"no trained parameters for {key}")
        snrs = np.array([r.scenario.snr_db for r in cands])
        if snr_db > hi:
            idx = int(np.argmax(snrs))
            return LookupResult(cands[idx], "snr-above-training-range")
        idx = int(np.argmin(np.abs(snrs - snr_db)))
        fallback = None if snrs[idx] == snr_db else "nearest-trained-snr"
        return LookupResult(cands[idx], fallback)
