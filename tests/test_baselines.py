import numpy as np
import pytest

from gbcd import baselines, denoise, detector

from channel_reference import draw_symbols
from conftest import random_channel
from counted_reference import lmmse_reference, ocd_reference


# ---------------------------------------------------------------------------
# LMMSE detector

def test_substitution_pair_count_4u_squared(rng):
    B, U = 8, 4
    H = random_channel(rng, B, U)
    _, per = lmmse_reference(H, np.ones(B, dtype=complex), 0.1)[1]
    # the matched filter's B U complex products, then the substitution pair
    assert per - 4 * B * U == 4 * U * U


def test_lmmse_matches_dense_inverse(qam16, rng):
    # one receive vector and a block of 6
    for shape in [(10,)] * 10 + [(10, 6)] * 10:
        H = random_channel(rng, 10, 4)
        N0 = rng.uniform(0.05, 0.5)
        y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        soft = baselines.lmmse_detect(H, y, N0, qam16)
        G = detector.gram(H)
        A_inv = np.linalg.inv(G + N0 * np.eye(4))
        want = A_inv @ detector.matched_filter(H, y)
        assert soft.v_final.shape == want.shape
        assert np.max(np.abs(soft.v_final - want)) < 1e-8
        assert np.max(np.abs(soft.params.mu
                             - np.diagonal(A_inv @ G).real)) < 1e-12


def test_lmmse_noiseless_orthogonal_recovery(qam16, rng):
    q, _ = np.linalg.qr(random_channel(rng, 16, 4))
    H = np.sqrt(16.0) * q
    idx, s = draw_symbols(qam16, (4,), rng)
    y = H @ s
    soft = baselines.lmmse_detect(H, y, 1e-10, qam16)
    assert np.max(np.abs(soft.v_final - s)) < 1e-6


def test_lmmse_gains_in_unit_interval(qam16, rng):
    for _ in range(10):
        H = random_channel(rng, 12, 6)
        soft = baselines.lmmse_detect(H, np.zeros(12, complex), 0.3, qam16)
        assert np.all(soft.params.mu > 0)
        assert np.all(soft.params.mu < 1)


def test_lmmse_residual_orthogonality(qam16, rng):
    H = random_channel(rng, 12, 5)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    N0 = 0.2
    soft = baselines.lmmse_detect(H, y, N0, qam16)
    A = detector.gram(H) + N0 * np.eye(5)
    y_mf = detector.matched_filter(H, y)
    resid = y_mf - A @ soft.v_final
    assert np.max(np.abs(resid)) < 1e-8 * np.abs(y_mf).max()


def test_lmmse_batched(qam16, rng):
    H = random_channel(rng, 12, 4)
    Y = rng.standard_normal((12, 6)) + 1j * rng.standard_normal((12, 6))
    soft = baselines.lmmse_detect(H, Y, 0.1, qam16)
    single = baselines.lmmse_detect(H, Y[:, 2], 0.1, qam16)
    assert np.max(np.abs(soft.v_final[:, 2] - single.v_final)) < 1e-12
    assert np.max(np.abs(soft.llrs[:, :, 2] - single.llrs)) < 1e-10


# ---------------------------------------------------------------------------
# OCD

def test_ocd_orthogonal_noiseless_one_sweep(qam16, rng):
    q, _ = np.linalg.qr(random_channel(rng, 16, 4))
    H = np.sqrt(16.0) * q
    idx, s = draw_symbols(qam16, (4,), rng)
    v = baselines.ocd_detect(H, H @ s, 1e-10, 1, qam16).v_final
    assert np.max(np.abs(denoise.box_denoise(v, qam16) - s)) < 1e-10


def test_ocd_single_user_is_scalar_ls(qam16, rng):
    h = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    H = h[:, None]
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v = baselines.ocd_detect(H, y, 0.1, 1, qam16).v_final
    ls = np.vdot(h, y) / np.sum(np.abs(h) ** 2)
    assert abs(v[0] - ls) < 1e-12


def test_ocd_zero_column_rejected(qam16):
    H = np.zeros((4, 2), dtype=complex)
    H[:, 0] = 1.0
    with pytest.raises(ValueError, match="Gram diagonal"):
        baselines.ocd_detect(H, np.ones(4, complex), 0.1, 1, qam16)


def test_ocd_objective_nonincreasing_per_coordinate(qam16, rng):
    H = random_channel(rng, 12, 6)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    # replay the sweep manually and track ||y - Hz||^2 after each update
    z = np.zeros(6, dtype=complex)
    r = y.copy()
    norms = np.sum(np.abs(H) ** 2, axis=0)
    obj = [np.linalg.norm(y - H @ z) ** 2]
    for k in range(3):
        for u in range(6):
            v = np.vdot(H[:, u], r) / norms[u] + z[u]
            zn = denoise.box_denoise(np.array([v]), qam16)[0]
            r -= H[:, u] * (zn - z[u])
            z[u] = zn
            obj.append(np.linalg.norm(y - H @ z) ** 2)
    assert all(b <= a + 1e-10 for a, b in zip(obj, obj[1:]))


def test_ocd_equals_gbcd_l1_unsorted(qam16, rng):
    # the channel-domain datapath and the Gram-domain recursion at L = 1
    for _ in range(10):
        H = random_channel(rng, 12, 4)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        z_o, v_o, _, _ = ocd_reference(H, y, 3, qam16)
        pre = detector.preprocess(H, 0.1, L=1, sort=False)
        st = detector.gbcd_equalize(pre, detector.matched_filter(H, y), 3,
                                    denoise.box_denoiser(qam16))
        assert np.max(np.abs(st.z - z_o)) < 1e-8
        assert np.max(np.abs(st.v_last - v_o)) < 1e-8


def test_ocd_soft_output_matches_gbcd_l1(qam16, rng):
    H = random_channel(rng, 12, 4)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    N0 = 0.15
    soft_o = baselines.ocd_detect(H, y, N0, 3, qam16)
    soft_g, _, _ = detector.gbcd_detect(H, y, N0, qam16, 3, L=1,
                                        sort=False)
    assert np.max(np.abs(soft_o.llrs - soft_g.llrs)) < 1e-8
