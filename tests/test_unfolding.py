import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from gbcd import denoise, detector, unfolding
from gbcd.channel import gen_channel, transmit
from gbcd.constellation import make_constellation
from gbcd.config import ConfigError, Scenario

from channel_reference import _gen_channel_reference, _transmit_reference
from unfolding_reference import forward_diagnostics


def small_batch(rng, n=12, B=8, U=4, snr=12.0, Q=16):
    const = make_constellation(Q)
    return unfolding.make_batch(B, U, const, snr, "nonlos", n, rng), const


def rand_params(rng, K, const):
    return {"rho": rng.uniform(1.0, 4.0, K),
            "beta": const.scale * rng.uniform(0.8, 1.2, K),
            "alpha": float(rng.uniform(0.01, 0.2))}


def _make_batch_reference(B, U, const, snr_db, condition, n, rng, *, L=2,
                          sort=True, **channel):
    """Per-sample draws and preprocessing through the frozen per-sample
    channel oracle, as make_batch did before it stacked channels."""
    M = U // L
    bits = np.empty((n, U, const.bits_per_symbol), dtype=np.uint8)
    G = np.empty((n, U, U), dtype=np.complex128)
    y_mf = np.empty((n, U), dtype=np.complex128)
    blocks = np.empty((n, M, L), dtype=np.int64)
    kinv = np.empty((n, M, L, L), dtype=np.complex128)
    N0 = np.empty(n)
    for i in range(n):
        H = _gen_channel_reference(B, U, condition, rng, **channel)
        batch = _transmit_reference(H, const, 1, snr_db, rng)
        pre = detector.preprocess(H, batch.N0, L=L, sort=sort)
        bits[i] = batch.bits[:, 0, :]
        G[i] = pre.G
        y_mf[i] = detector.matched_filter(H, batch.Y[:, 0])
        blocks[i] = pre.blocks
        kinv[i] = pre.kinv
        N0[i] = batch.N0
    return unfolding.TrainBatch(const, bits, G, y_mf, blocks, kinv, N0)


BATCH_FIELDS = ("bits", "G", "y_mf", "blocks", "kinv", "N0")


@pytest.mark.parametrize("Q, n, slice_, case", [
    pytest.param(4, 300, None, {}, id="4-300-None"),
    pytest.param(256, 12, None, {}, id="256-12-None"),
    pytest.param(256, 12, 5, {}, id="256-12-5"),
    pytest.param(4, 10, 10, {}, id="4-10-10"),
    pytest.param(16, 12, 5, dict(condition="los", k_factor=5.0,
                                 min_sep_deg=3.0), id="los-k5-sep3"),
    pytest.param(16, 12, 5, dict(condition="los", k_factor=np.inf),
                 id="los-kinf"),
    pytest.param(16, 12, 5, dict(snr_db=np.inf), id="noiseless"),
    pytest.param(4, 12, None, dict(condition="los", snr_db=np.inf, B=16,
                                   U=16), id="los-noiseless-16x16"),
])
def test_make_batch_matches_per_sample_reference(Q, n, slice_, case,
                                                 monkeypatch):
    if slice_ is not None:
        monkeypatch.setattr(unfolding, "PREPROCESS_SLICE", slice_)
    case = dict(case)
    const = make_constellation(Q)
    args = (case.pop("B", 8), case.pop("U", 4), const,
            case.pop("snr_db", 10.0), case.pop("condition", "nonlos"), n)
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    new = unfolding.make_batch(*args, rng, **case)
    ref = _make_batch_reference(*args, ref_rng, **case)
    for f in BATCH_FIELDS:
        assert np.array_equal(getattr(new, f), getattr(ref, f)), f
    # the same draws, and no noise draws when noiseless
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_make_batch_preprocesses_once_per_slice(monkeypatch):
    calls = []
    preprocess = detector.preprocess

    def counting(H, *a, **k):
        calls.append(H.shape[0])
        return preprocess(H, *a, **k)

    monkeypatch.setattr(unfolding, "PREPROCESS_SLICE", 4)
    monkeypatch.setattr(detector, "preprocess", counting)
    unfolding.make_batch(8, 4, make_constellation(4), 10.0, "nonlos", 10,
                         np.random.default_rng(0))
    assert calls == [4, 4, 2]


# ---------------------------------------------------------------------------
# loss

def test_zero_llrs_give_log2_per_bit(rng):
    llr = np.zeros((3, 4, 4))
    X = rng.integers(0, 2, llr.shape)
    terms = np.logaddexp(0.0, (1 - 2 * X) * llr)
    assert np.allclose(terms, math.log(2.0))
    # per transmission the sum is U * log2(Q) * log(2)
    assert abs(terms[0].sum() - 4 * 4 * math.log(2.0)) < 1e-12


def test_perfect_llrs_give_zero_loss():
    llr = np.full((2, 4, 4), 40.0)
    X = np.ones((2, 4, 4))
    terms = np.logaddexp(0.0, (1 - 2 * X) * llr)
    assert terms.max() < 1e-12


def test_forward_loss_matches_detector_recomputation(rng):
    batch, const = small_batch(rng, n=6)
    K = 3
    params = rand_params(rng, K, const)
    loss = unfolding.forward_loss(params, batch, K)

    # recompute per sample through the detector path from its stored LLRs;
    # the cross-entropy uses the numerically stable form of the clamped
    # -(X log P + (1-X) log(1-P)), which it equals exactly
    total = 0.0
    for i in range(batch.n):
        pre = detector.PreprocOutput(batch.G[i], np.zeros(4),
                                     batch.blocks[i], batch.kinv[i],
                                     batch.N0[i])
        den = denoise.pme_denoiser(const, params["rho"], params["beta"])
        st = detector.gbcd_equalize(pre, batch.y_mf[i], K, den)
        soft = denoise.compute_llrs(st.v_last, batch.G[i],
                                    params["alpha"], const)
        X = batch.bits[i]
        terms = np.logaddexp(0.0, (1.0 - 2.0 * X) * soft.llrs)
        total += float(np.minimum(terms, unfolding.LOSS_CAP).sum())
    assert abs(loss - total / batch.n) < 1e-10


def test_forward_and_grad_run_through_the_detector_equalizer(rng,
                                                           monkeypatch):
    batch, const = small_batch(rng, n=5)
    params = rand_params(rng, 3, const)
    calls = []
    equalize = detector.gbcd_equalize

    def counting(pre, y_mf, K, den, **kw):
        calls.append((pre.blocks.shape, y_mf.shape, K))
        return equalize(pre, y_mf, K, den, **kw)

    monkeypatch.setattr(detector, "gbcd_equalize", counting)
    unfolding.forward_loss(params, batch, 3)
    unfolding.grad(params, batch, 3)
    forward_diagnostics(params, batch, 3)
    assert calls == [((5, 2, 2), (5, 4), 3)] * 3


def test_bce_cap_equals_probability_clamp(rng):
    # the capped stable form equals clamping P at [1e-12, 1 - 1e-12]; the
    # comparison range keeps the naive form clear of its own cancellation
    llr = rng.uniform(-15, 15, 1000)
    X = rng.integers(0, 2, 1000)
    from gbcd.denoise import llr_to_prob

    P = np.clip(llr_to_prob(llr), 1e-12, 1 - 1e-12)
    naive = -(X * np.log(P) + (1 - X) * np.log(1 - P))
    stable = np.minimum(np.logaddexp(0.0, (1 - 2 * X) * llr),
                        unfolding.LOSS_CAP)
    assert np.max(np.abs(naive - stable)) < 1e-8
    # far past the clamp both forms agree exactly
    big = np.array([80.0, -80.0])
    Xb = np.array([0, 1])
    stable_big = np.minimum(np.logaddexp(0.0, (1 - 2 * Xb) * big),
                            unfolding.LOSS_CAP)
    assert np.allclose(stable_big, -np.log(1e-12))


def test_forward_loss_validates_inputs(rng):
    batch, const = small_batch(rng, n=2)
    with pytest.raises(ValueError):
        unfolding.forward_loss({"rho": np.ones(2), "beta": np.ones(2),
                                "alpha": 0.1}, batch, 3)


@pytest.mark.parametrize("fn", [unfolding.forward_loss, unfolding.grad,
                                forward_diagnostics],
                         ids=["forward_loss", "grad", "forward_diagnostics"])
@pytest.mark.parametrize("case, match", [
    ("rho-4", "need 3 slope parameters, got 4"),
    ("beta-4", "need 3 half-spacing parameters, got 4"),
    ("beta-2", "need 3 half-spacing parameters, got 2"),
    ("empty", "empty batch"),
], ids=["rho-4", "beta-4", "beta-2", "empty"])
def test_trainer_entry_points_check_arguments(fn, case, match, rng):
    batch, const = small_batch(rng, n=3)
    params = rand_params(rng, 3, const)
    if case == "empty":
        batch = unfolding.TrainBatch(
            const, *(getattr(batch, f)[:0] for f in BATCH_FIELDS))
    else:
        name, size = case.split("-")
        params[name] = np.full(int(size), params[name][0])
    with pytest.raises(ValueError, match=match):
        fn(params, batch, 3)


# ---------------------------------------------------------------------------
# gradient

def test_gradient_matches_finite_differences(rng):
    checked = 0
    attempts = 0
    while checked < 20 and attempts < 200:
        attempts += 1
        batch, const = small_batch(np.random.default_rng(1000 + attempts), n=4)
        K = 3
        params = rand_params(np.random.default_rng(2000 + attempts), K, const)
        diag = forward_diagnostics(params, batch, K)
        if (diag["min_kink_distance"] < 1e-3 or diag["min_argmin_gap"] < 1e-4
                or diag["min_cap_distance"] < 0.05 or diag["n_floored"]):
            continue
        loss, g = unfolding.grad(params, batch, K)

        def loss_at(p):
            return unfolding.forward_loss(p, batch, K)

        for name in ("rho", "beta"):
            for k in range(K):
                h = 1e-4 * params[name][k]
                up = {kk: np.array(v, copy=True) if isinstance(v, np.ndarray)
                      else v for kk, v in params.items()}
                dn = {kk: np.array(v, copy=True) if isinstance(v, np.ndarray)
                      else v for kk, v in params.items()}
                up[name][k] += h
                dn[name][k] -= h
                fd = (loss_at(up) - loss_at(dn)) / (2 * h)
                if abs(fd) > 1e-9:
                    assert abs(fd - g[name][k]) / abs(fd) < 1e-3
        h = 1e-4 * params["alpha"]
        up = dict(params)
        dn = dict(params)
        up["alpha"] = params["alpha"] + h
        dn["alpha"] = params["alpha"] - h
        fd = (loss_at(up) - loss_at(dn)) / (2 * h)
        if abs(fd) > 1e-9:
            assert abs(fd - g["alpha"]) / abs(fd) < 1e-3
        checked += 1
    assert checked >= 20


def _gray_subsets_per_bit(x, mu, const, reduce):
    """The shared distance pass with each Gray bit's subset distances built
    for that bit alone, handed over level-major as the pass hands them."""
    for j in range(const.axis_bits):
        yield tuple(reduce(np.moveaxis((x[..., None] - mu[..., None]
                                        * const.pam_points[cols]) ** 2,
                                       -1, 0), cols)
                    for cols in const.pam_bit_indices(j))


@pytest.mark.parametrize("Q", [4, 16, 64, 256])
def test_forward_and_grad_match_per_bit_distances(Q, monkeypatch):
    rng = np.random.default_rng(Q)
    batch, const = small_batch(rng, n=16, snr=8.0, Q=Q)
    params = rand_params(rng, 3, const)
    loss = unfolding.forward_loss(params, batch, 3)
    loss_g, g = unfolding.grad(params, batch, 3)
    diag = forward_diagnostics(params, batch, 3)
    calls = []

    def per_bit(x, mu, const, reduce):
        calls.append(x.shape)
        return _gray_subsets_per_bit(x, mu, const, reduce)

    monkeypatch.setattr(denoise, "_gray_subsets", per_bit)
    assert loss == unfolding.forward_loss(params, batch, 3)
    ref_loss, ref_g = unfolding.grad(params, batch, 3)
    assert loss_g == ref_loss
    for name in ("rho", "beta", "alpha"):
        assert np.array_equal(g[name], ref_g[name]), name
    assert diag == forward_diagnostics(params, batch, 3)
    # both axes in each forward pass, and again for the diagnostics' gaps
    assert calls == [(16, 4)] * 8


# the gradient as it was computed before the backward pass ran in update
# order: each step's clipped-ramp reductions recorded per axis by the
# denoiser, G's block columns and the gradients gathered and scattered
# through the UE indices at every step

def _plm_reference(x, rho, beta, offsets):
    arg = x[..., None] + 2.0 * beta * offsets
    pre = rho * arg
    active = np.abs(pre) < 1.0
    out = np.clip(pre, -1.0, 1.0).sum(axis=-1)
    cnt = active.sum(axis=-1).astype(np.float64)
    svb = np.where(active, arg, 0.0).sum(axis=-1)
    s2t = np.where(active, 2.0 * offsets, 0.0).sum(axis=-1)
    return out, cnt, svb, s2t


def _axis_minima_reference(x, mu, const):
    pam = const.pam_points
    diff = x[..., None] - mu[..., None] * pam
    d2 = diff ** 2
    metrics, mins = [], []
    for j in range(const.axis_bits):
        per = []
        for cols in const.pam_bit_indices(j):
            sub = d2[..., cols]
            idx = cols[np.argmin(sub, axis=-1)]
            dmin = np.take_along_axis(d2, idx[..., None], axis=-1)[..., 0]
            e = np.take_along_axis(diff, idx[..., None], axis=-1)[..., 0]
            gap = np.partition(sub, 1, axis=-1)[..., 1] - dmin \
                if cols.size > 1 else np.full_like(dmin, np.inf)
            per.append((dmin, e, pam[idx], gap))
        (d0, e0, a0, gap0), (d1, e1, a1, gap1) = per
        metrics.append(d0 - d1)
        mins.append((e0, a0, e1, a1, np.minimum(gap0, gap1)))
    return metrics, mins


def _grad_reference(params, batch, K):
    """(loss, gradient, diagnostics) through the gather-based backward."""
    rho = np.asarray(params["rho"], dtype=np.float64)
    beta = np.asarray(params["beta"], dtype=np.float64)
    alpha = float(params["alpha"])
    const = batch.const
    gamma = const.n_pam // 2 - 1
    offsets = np.arange(-gamma, gamma + 1, dtype=np.float64)
    steps = []

    def apply(v, k):
        v = v[..., 0]
        raw_re, *red_re = _plm_reference(v.real, rho[k], beta[k], offsets)
        raw_im, *red_im = _plm_reference(v.imag, rho[k], beta[k], offsets)
        steps.append((v, *red_re, *red_im))
        return (const.scale * (raw_re + 1j * raw_im))[..., None]

    pre = detector.PreprocOutput(batch.G, None, batch.blocks, batch.kinv,
                                 batch.N0)
    v_final = detector.gbcd_equalize(pre, batch.y_mf, K,
                                     SimpleNamespace(apply=apply)).v_last
    gains = denoise.LlrParams.from_gram(batch.G, alpha)
    mu = gains.mu
    inv_xi = 1.0 / gains.xi
    metrics, mins = [], []
    for axis_vals in (v_final.real, v_final.imag):
        axis_metrics, axis_mins = _axis_minima_reference(axis_vals, mu, const)
        metrics += axis_metrics
        mins += axis_mins
    llr = np.stack(metrics, axis=-1) * inv_xi[..., None]
    X = batch.bits.astype(np.float64)
    sgn = 1.0 - 2.0 * X
    terms = np.logaddexp(0.0, sgn * llr)
    capped = terms > unfolding.LOSS_CAP
    loss = float(np.minimum(terms, unfolding.LOSS_CAP).sum(axis=(1, 2)).mean())

    n, U = batch.y_mf.shape
    M = batch.blocks.shape[1]
    scale = const.scale
    P = 0.5 * (1.0 + np.tanh(0.5 * llr))
    gllr = np.where(capped, 0.0, P - X) / n
    gmetric = gllr * inv_xi[..., None]
    gxi = -(gllr * llr).sum(axis=-1) * inv_xi
    gx = np.zeros((n, U))
    gy = np.zeros((n, U))
    gmu = np.zeros((n, U))
    for b, (e0, a0, e1, a1, _) in enumerate(mins):
        gm = gmetric[..., b]
        target = gx if b < const.axis_bits else gy
        target += gm * 2.0 * (e0 - e1)
        gmu += gm * 2.0 * (a1 * e1 - a0 * e0)
    gmu += gxi * np.where(gains.xi_floored, 0.0, 1.0 - 2.0 * mu)
    dmu_dalpha = -mu / (batch.G.diagonal(0, 1, 2).real + alpha)
    galpha = float((gmu * dmu_dalpha).sum())
    gv_final = gx + 1j * gy
    gz = np.zeros((n, U), dtype=np.complex128)
    gr = np.zeros((n, U), dtype=np.complex128)
    grho = np.zeros(K)
    gbeta = np.zeros(K)
    for i in reversed(range(K * M)):
        k, m = divmod(i, M)
        _, cnt_re, svb_re, s2t_re, cnt_im, svb_im, s2t_im = steps[i]
        A = batch.blocks[:, m]
        Gcols = np.take_along_axis(batch.G, A[:, None, :], axis=2)
        gdz = -np.einsum("nul,nu->nl", Gcols.conj(), gr)
        gzn = np.take_along_axis(gz, A, axis=1) + gdz
        gre = gzn.real
        gim = gzn.imag
        grho[k] += scale * float((svb_re * gre + svb_im * gim).sum())
        gbeta[k] += scale * rho[k] * float((s2t_re * gre + s2t_im * gim).sum())
        gv = scale * rho[k] * (cnt_re * gre + 1j * cnt_im * gim)
        if k == K - 1:
            gv = gv + np.take_along_axis(gv_final, A, axis=1)
        np.put_along_axis(gz, A, -gdz + gv, axis=1)
        grA = np.einsum("nji,nj->ni", batch.kinv[:, m].conj(), gv)
        cur = np.take_along_axis(gr, A, axis=1)
        np.put_along_axis(gr, A, cur + grA, axis=1)

    kink = np.inf
    for i, (v, *_) in enumerate(steps):
        k = i // M
        for ax in (v.real, v.imag):
            pre = rho[k] * (ax[..., None] + 2.0 * beta[k] * offsets)
            kink = min(kink, float(np.min(np.abs(np.abs(pre) - 1.0))))
    diag = {"min_kink_distance": kink,
            "min_argmin_gap": min(float(np.min(g)) for *_, g in mins),
            "min_cap_distance": float(np.min(np.abs(sgn * llr
                                                    - unfolding.LOSS_CAP))),
            "n_floored": int(gains.xi_floored.sum())}
    return loss, {"rho": grho, "beta": gbeta, "alpha": galpha}, diag


def _regularized_batch(const):
    """Six samples at L = 2 without sorting; the first sample's UEs 0 and 1
    share a channel column, so its first 2x2 block is singular."""
    rng = np.random.default_rng(5)
    H = np.stack([gen_channel(8, 4, "nonlos", rng) for _ in range(6)])
    H[0, :, 1] = H[0, :, 0]
    tx = [transmit(h, const, 1, 10.0, rng) for h in H]
    N0 = np.array([t.N0 for t in tx])
    pre = detector.preprocess(H, N0, L=2, sort=False)
    assert pre.regularized == [0]
    y = np.stack([t.Y[:, 0] for t in tx])
    return unfolding.TrainBatch(const, np.stack([t.bits[:, 0] for t in tx]),
                                pre.G, detector.matched_filter(H, y),
                                pre.blocks, pre.kinv, N0)


def _assert_matches_reference(params, batch, K):
    ref_loss, ref_g, ref_diag = _grad_reference(params, batch, K)
    loss, g = unfolding.grad(params, batch, K)
    assert loss == ref_loss
    for name in ("rho", "beta", "alpha"):
        assert np.array_equal(g[name], ref_g[name]), name
    assert unfolding.forward_loss(params, batch, K) == ref_loss
    assert forward_diagnostics(params, batch, K) == ref_diag


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("sort", [True, False], ids=["sort", "nosort"])
@pytest.mark.parametrize("U, L", [(6, 1), (6, 2), (16, 1), (16, 2), (16, 4)])
@pytest.mark.parametrize("Q", [4, 16, 64, 256])
def test_grad_matches_gather_reference(Q, U, L, sort, K):
    rng = np.random.default_rng([Q, U, L, K, sort])
    const = make_constellation(Q)
    batch = _make_batch_reference(U + 4, U, const, 8.0, "nonlos", 10, rng,
                                  L=L, sort=sort)
    _assert_matches_reference(rand_params(rng, K, const), batch, K)


@pytest.mark.parametrize("K", [1, 4])
def test_grad_matches_gather_reference_with_regularized_block(K):
    const = make_constellation(16)
    _assert_matches_reference(rand_params(np.random.default_rng(K), K, const),
                              _regularized_batch(const), K)


def test_ramp_reductions_run_once_per_iteration(rng, monkeypatch):
    batch, const = small_batch(rng, n=5)
    params = rand_params(rng, 3, const)
    calls = []
    plm_forward = unfolding._plm_forward

    def counting(x, *args):
        calls.append(x.shape)
        return plm_forward(x, *args)

    monkeypatch.setattr(unfolding, "_plm_forward", counting)
    unfolding.forward_loss(params, batch, 3)
    assert calls == []
    unfolding.grad(params, batch, 3)
    assert calls == [(5, 4, 2)] * 3


def test_gradient_linear_regime_hand_derivative(qam16):
    # tiny rho puts every clip in its linear region: the raw output is
    # rho * sum_k (x + 2 beta k) = rho * n_terms * x (odd offsets cancel)
    x = np.array([0.3])
    rho, beta = 1e-3, qam16.scale
    cnt, svb, s2t = unfolding._plm_forward(x, rho, beta,
                                           np.arange(-1, 2, dtype=float))
    assert cnt[0] == 3
    assert abs(svb[0] - 3 * 0.3) < 1e-12     # d out / d rho
    assert abs(s2t[0]) < 1e-12               # offsets cancel for d beta
    out = denoise.pme_piecewise(x, rho, beta, qam16.order)
    assert abs(out[0] - rho * 3 * 0.3) < 1e-12


def test_gradients_vanish_under_full_saturation(rng):
    # alpha = 0 drives mu -> 1 and floors xi; the resulting giant LLRs all
    # sit past the probability clamp, so every parameter path is frozen
    batch, const = small_batch(rng, n=3)
    params = {"rho": np.full(3, 2.0), "beta": np.full(3, const.scale),
              "alpha": 0.0}
    loss, g = unfolding.grad(params, batch, 3)
    assert g["alpha"] == 0.0
    assert np.all(g["rho"] == 0.0)


# ---------------------------------------------------------------------------
# training

def test_train_deterministic_and_well_formed():
    scen = Scenario(B=8, U=4, Q=16, snr_db=12.0, condition="nonlos")
    cfg = unfolding.TrainConfig(n_train=120, n_val=120, batch_size=40,
                                max_epochs=4, seed=5)
    a = unfolding.train(scen, cfg, K=2)
    b = unfolding.train(scen, cfg, K=2)
    assert a == b
    assert len(a.rho) == len(a.beta) == a.scenario.K == 2
    assert type(a.alpha) is float
    assert min(a.rho + a.beta) > 0 and a.alpha >= 0


def test_train_improves_validation_loss():
    scen = Scenario(B=8, U=4, Q=16, snr_db=12.0, condition="nonlos")
    cfg = unfolding.TrainConfig(n_train=300, n_val=300, batch_size=50,
                                max_epochs=10, seed=7,
                                init_rho=1.0)  # start away from the optimum
    params = unfolding.train(scen, cfg, K=2)
    # compare against the loss of the initial parameters on the same data
    const = make_constellation(16)
    ss = np.random.SeedSequence(7)
    _, s_val, _ = ss.spawn(3)
    val = unfolding.make_batch(8, 4, const, 12.0, "nonlos", 300,
                               np.random.default_rng(s_val))
    init = {"rho": np.full(2, 1.0), "beta": np.full(2, const.scale),
            "alpha": float(np.median(val.N0))}
    assert params.meta["final_val_loss"] < unfolding.forward_loss(init, val, 2)


def test_train_rejects_out_of_range_snr():
    cfg = unfolding.TrainConfig(n_train=10, n_val=10, max_epochs=1)
    with pytest.raises(ValueError):
        unfolding.train(Scenario(B=8, U=4, Q=16, snr_db=30.0,
                                 condition="nonlos"), cfg, K=2)


def test_grid_search_returns_best_cell(rng):
    batch, const = small_batch(rng, n=30)
    rho_grid = [1.0, 3.0]
    beta_grid = [const.scale]
    r, b = unfolding.grid_search_pme(batch, 2, rho_grid, beta_grid, 0.05)
    losses = {rr: unfolding.forward_loss({"rho": np.full(2, rr),
                                          "beta": np.full(2, const.scale),
                                          "alpha": 0.05}, batch, 2)
              for rr in rho_grid}
    assert r == min(losses, key=losses.get)
    assert b == const.scale


# ---------------------------------------------------------------------------
# parameter store

def make_params(snr, B=8, U=4, K=2, Q=16, cond="nonlos"):
    return unfolding.TrainedParams(
        [1.5, 2.5], [0.3, 0.31], 0.05,
        unfolding.TrainedScenario(B=B, U=U, K=K, Q=Q, condition=cond,
                                  snr_db=snr), {"seed": 0})


def test_store_round_trip_bit_identical(tmp_path):
    store = unfolding.ParamStore([make_params(10.0), make_params(25.0)])
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    store.save(p1)
    unfolding.ParamStore.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_store_lookup_rules(tmp_path):
    store = unfolding.ParamStore([make_params(10.0), make_params(25.0)])
    exact = store.lookup(8, 4, 2, 16, "nonlos", 10.0)
    assert exact.fallback is None
    assert exact.params.scenario.snr_db == 10.0

    high = store.lookup(8, 4, 2, 16, "nonlos", 30.0)
    assert high.params.scenario.snr_db == 25.0
    assert high.fallback == "snr-above-training-range"

    # below the training range: the box denoiser, whatever the store holds
    low = store.lookup(8, 4, 2, 16, "nonlos", -5.0)
    assert low.params is None and low.fallback == "snr-below-training-range"
    low = store.lookup(8, 4, 2, 64, "nonlos", -5.0)
    assert low.params is None and low.fallback == "snr-below-training-range"

    near = store.lookup(8, 4, 2, 16, "nonlos", 12.0)
    assert near.fallback == "nearest-trained-snr"
    assert near.params.scenario.snr_db == 10.0

    with pytest.raises(unfolding.MissingParamsError):
        store.lookup(8, 4, 2, 64, "nonlos", 10.0)


def test_store_add_replaces_same_key():
    store = unfolding.ParamStore([make_params(10.0)])
    store.add(dataclasses.replace(make_params(10.0), alpha=0.9))
    assert len(store.records) == 1
    assert store.records[0].alpha == 0.9
    store.add(make_params(12.0))
    assert [r.scenario.snr_db for r in store.records] == [10.0, 12.0]


@pytest.mark.parametrize("over, message", [
    (dict(rho=[1.5]), "rho and beta need K=2 entries, got 1 and 2"),
    (dict(beta=[0.3, 0.31, 0.32]), "got 2 and 3"),
    (dict(rho=np.array([1.5, 2.5])), "rho must be a non-empty list"),
    (dict(beta=[0.3, -0.31]), "beta must be > 0"),
    (dict(alpha=math.nan), "alpha must be a finite number"),
    (dict(meta=[]), "meta must be a JSON object"),
])
def test_record_is_checked(over, message):
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(make_params(10.0), **over)


def test_early_stop_returns_best_validation_epoch():
    scen = Scenario(B=8, U=4, Q=16, snr_db=12.0, condition="nonlos")
    cfg = unfolding.TrainConfig(n_train=200, n_val=200, batch_size=50,
                                max_epochs=12, patience=3, seed=9)
    p = unfolding.train(scen, cfg, K=2)
    hist = p.meta["val_history"]
    assert p.meta["final_val_loss"] == min(hist)
    assert hist[p.meta["best_epoch"]] == min(hist)
