"""Detection over a stack of channels: every channel of a stack gets exactly
what detecting it alone gives."""

import numpy as np
import pytest

from gbcd import baselines, denoise, detector, hwmodel
from gbcd.channel import apply_channel, gen_channel, noise_variance_for_snr
from gbcd.constellation import hard_decision_indices, make_constellation

from datapath_reference import _llrs_exhaustive_reference

N = 5   # channels per stack
K = 3


def _stack(Q, U, T, dup=None):
    """N channels (N, 2U, U) with their own noise variances; T = 1 gives
    one receive vector (N, 2U) per channel, otherwise a block (N, 2U, T).
    In channel ``dup``, if given, UE 1 shares UE 0's column."""
    rng = np.random.default_rng([Q, U, T])
    const = make_constellation(Q)
    B = 2 * U
    H = np.empty((N, B, U), dtype=complex)
    Y = np.empty((N, B, T), dtype=complex)
    N0 = np.empty(N)
    for n in range(N):
        H[n] = gen_channel(B, U, "nonlos", rng)
        if n == dup:
            H[n, :, 1] = H[n, :, 0]
        N0[n] = noise_variance_for_snr(H[n], rng.uniform(0.0, 20.0))
        idx = rng.integers(0, Q, size=(U, T))
        Y[n] = apply_channel(H[n], const.points[idx], N0[n], rng)
    return const, H, (Y[..., 0] if T == 1 else Y), N0


def _pme(const):
    rho = np.array([1.0, 2.0, 4.0]) / const.scale
    den = denoise.pme_denoiser(const, rho, np.full(K, const.scale))
    return dict(denoiser=den, alpha=0.05)


DETECTORS = {
    "gbcd-box": lambda H, Y, N0, const: detector.gbcd_detect(
        H, Y, N0, const, K)[0],
    "gbcd-pme": lambda H, Y, N0, const: detector.gbcd_detect(
        H, Y, N0, const, K, **_pme(const))[0],
    "gbcd-box-fixed": lambda H, Y, N0, const: detector.gbcd_detect(
        H, Y, N0, const, K, numerics=hwmodel.FIXED_POINT)[0],
    "gbcd-pme-fixed": lambda H, Y, N0, const: hwmodel.detect_fixed_point(
        H, Y, N0, const, K, **_pme(const)),
    "lmmse": lambda H, Y, N0, const: baselines.lmmse_detect(
        H, Y, N0, const),
    "ocd": lambda H, Y, N0, const: baselines.ocd_detect(
        H, Y, N0, K, const),
}


def _assert_soft_equal(got, want):
    for field in ("llrs", "v_final"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    for field in ("mu", "xi", "xi_floored"):
        assert np.array_equal(getattr(got.params, field),
                              getattr(want.params, field)), field


def _assert_stack_equals_per_channel(name, const, H, Y, N0):
    U = H.shape[-1]
    T = 1 if Y.ndim == 2 else Y.shape[-1]
    detect = DETECTORS[name]
    soft = detect(H, Y, N0, const)
    m = const.bits_per_symbol
    assert soft.llrs.shape == (N, U, m) + (() if T == 1 else (T,))
    for n in range(N):
        one = detect(H[n], Y[n], N0[n], const)
        stacked = denoise.SoftOutput(
            soft.llrs[n], soft.v_final[n],
            denoise.LlrParams(None, soft.params.mu[n], soft.params.xi[n],
                              soft.params.xi_floored[n]))
        _assert_soft_equal(stacked, one)


@pytest.mark.parametrize("T", [1, 120])
@pytest.mark.parametrize("U", [4, 6, 16])
@pytest.mark.parametrize("Q", [4, 16, 64, 256])
@pytest.mark.parametrize("name", DETECTORS)
def test_stack_equals_per_channel_detection(name, Q, U, T):
    _assert_stack_equals_per_channel(name, *_stack(Q, U, T))


@pytest.mark.parametrize("T", [1, 120])
@pytest.mark.parametrize("Q", [4, 16, 64, 256])
@pytest.mark.parametrize("name", DETECTORS)
def test_stack_with_regularized_block_equals_per_channel_detection(name, Q,
                                                                   T):
    const, H, Y, N0 = _stack(Q, 4, T, dup=2)
    # UEs 0 and 1 of channel 2 tie on the largest reciprocal SINR, so the
    # sort puts them in that channel's last 2x2 block, which is singular
    pre = detector.preprocess(H, N0)
    assert pre.regularized == [2 * 2 + 1]   # flat index: channel 2, block 1
    assert sorted(pre.blocks[2, -1]) == [0, 1]
    _assert_stack_equals_per_channel(name, const, H, Y, N0)


def test_default_alpha_is_per_channel_noise():
    const, H, Y, N0 = _stack(16, 4, 120)
    soft = detector.gbcd_detect(H, Y, N0, const, K)[0]
    assert np.array_equal(soft.params.alpha, N0)


@pytest.mark.parametrize("oracle", ["axis", "exhaustive"])
@pytest.mark.parametrize("T", [1, 120])
@pytest.mark.parametrize("Q", [4, 16, 64, 256])
def test_llrs_with_params_per_channel_alpha(Q, T, oracle):
    """A stack with one alpha per channel against each channel alone
    ("axis", exact) and against the full-alphabet search over the whole
    stack ("exhaustive", to 1e-10)."""
    rng = np.random.default_rng([Q, T])
    const = make_constellation(Q)
    U = 4
    shape = (N, U) if T == 1 else (N, U, T)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    G = np.empty((N, U, U), dtype=complex)
    for n in range(N):
        Hn = rng.standard_normal((8, U)) + 1j * rng.standard_normal((8, U))
        G[n] = detector.gram(Hn)
    alpha = rng.uniform(0.01, 1.0, N)
    params = denoise.LlrParams.from_diagonal(G.diagonal(0, 1, 2).real, alpha)
    soft = denoise.compute_llrs_with_params(v, params, const)
    if oracle == "exhaustive":
        want = _llrs_exhaustive_reference(v, params, const)
        assert soft.llrs.shape == want.shape
        assert np.max(np.abs(soft.llrs - want)) < 1e-10
        return
    for n in range(N):
        one = denoise.compute_llrs(v[n], G[n], alpha[n], const)
        assert one.params.alpha == alpha[n]
        stacked = denoise.SoftOutput(
            soft.llrs[n], soft.v_final[n],
            denoise.LlrParams(None, params.mu[n], params.xi[n],
                              params.xi_floored[n]))
        _assert_soft_equal(stacked, one)


@pytest.mark.parametrize("name", ["gbcd-box", "lmmse", "ocd"])
def test_noiseless_channels_in_a_noisy_stack(name):
    # N0 = 0 (snr_db = inf) gives alpha = 0, unit gains and a zero
    # variance that must hit the floor, without touching the noisy channel
    rng = np.random.default_rng(2024)
    const = make_constellation(16)
    B, U = 32, 8
    N0 = np.array([0.0, 0.0, 0.0])
    H = np.empty((3, B, U), dtype=complex)
    Y = np.empty((3, B), dtype=complex)
    for n in range(3):
        H[n] = gen_channel(B, U, "nonlos", rng)
        if n == 1:
            N0[n] = noise_variance_for_snr(H[n], 10.0)
        idx = rng.integers(0, 16, size=(U, 1))
        Y[n] = apply_channel(H[n], const.points[idx], N0[n], rng)[:, 0]
    detect = DETECTORS[name]
    soft = detect(H, Y, N0, const)
    assert np.all(np.isfinite(soft.llrs))
    floored = soft.params.xi_floored
    assert floored[N0 == 0].all() and not floored[N0 > 0].any()
    assert floored.sum() == 16
    for n in range(3):
        one = detect(H[n], Y[n], N0[n], const)
        stacked = denoise.SoftOutput(
            soft.llrs[n], soft.v_final[n],
            denoise.LlrParams(None, soft.params.mu[n], soft.params.xi[n],
                              soft.params.xi_floored[n]))
        _assert_soft_equal(stacked, one)


def _ocd_equalize_reference(H, Y, K, const):
    """Channel-domain OCD over a stack (N, B, U), (N, B, T), as the hardware
    datapath runs it: each column step correlates H's column with a
    receive-domain residual and subtracts its rank-one update."""
    U, T = H.shape[-1], Y.shape[-1]
    inv_norms = 1.0 / np.sum(np.abs(H) ** 2, axis=-2)
    z = np.zeros(Y.shape[:-2] + (U, T), dtype=np.complex128)
    r = Y.copy()
    update = np.empty_like(r)
    v_last = np.empty_like(z)
    for k in range(K):
        for u in range(U):
            h = H[..., :, u]
            v = ((h.conj()[..., None, :] @ r)[..., 0, :]
                 * inv_norms[..., u, None] + z[..., u, :])
            if k == K - 1:
                v_last[..., u, :] = v
            z_new = denoise.box_denoise(v, const)
            np.multiply(h[..., :, None], (z_new - z[..., u, :])[..., None, :],
                        out=update)
            r -= update
            z[..., u, :] = z_new
    return z, v_last, r


@pytest.mark.parametrize("T", [1, 12, 120])
@pytest.mark.parametrize("U", [4, 16])
@pytest.mark.parametrize("Q", [4, 256])
def test_ocd_equalize_matches_reference(Q, U, T):
    # stacked OCD gives the channel-domain loop's estimates to rounding and
    # its hard decisions, and exactly the unsorted L = 1 GBCD detection
    const, H, Y, N0 = _stack(Q, U, T)
    Y = Y.reshape(N, 2 * U, T)
    soft = baselines.ocd_detect(H, Y, N0, K, const)
    v_ref = _ocd_equalize_reference(H, Y, K, const)[1]
    assert (np.max(np.abs(soft.v_final - v_ref))
            <= 1e-12 * np.max(np.abs(v_ref)))
    gain = soft.params.mu[..., None]
    assert np.array_equal(hard_decision_indices(const, soft.v_final, gain),
                          hard_decision_indices(const, v_ref, gain))
    _assert_soft_equal(soft, detector.gbcd_detect(H, Y, N0, const, K, L=1,
                                                  sort=False)[0])
