import numpy as np
import pytest
from scipy.stats import ks_2samp

from gbcd.channel import (_draw_angles, apply_channel, gen_channel,
                          noise_variance_for_snr, transmit)
from gbcd.detector import gram
from gbcd.unfolding import make_batch

from channel_reference import (_apply_channel_reference,
                               _draw_angles_rejection,
                               _gen_channel_reference,
                               _noise_variance_for_snr_reference,
                               _transmit_reference)


def test_seeded_determinism(qam16):
    a = gen_channel(8, 4, "nonlos", np.random.default_rng(3))
    b = gen_channel(8, 4, "nonlos", np.random.default_rng(3))
    assert a.tobytes() == b.tobytes()
    ba = transmit(a, qam16, 5, 12.0, np.random.default_rng(9))
    bb = transmit(a, qam16, 5, 12.0, np.random.default_rng(9))
    assert ba.Y.tobytes() == bb.Y.tobytes()
    assert ba.S.tobytes() == bb.S.tobytes()


@pytest.mark.parametrize("condition", ["nonlos", "los"])
def test_power_control_band(condition, rng):
    for _ in range(20):
        H = gen_channel(32, 8, condition, rng)
        p = np.sum(np.abs(H) ** 2, axis=0)
        assert p.max() / p.min() <= 10 ** 0.6 + 1e-9
        assert np.all(np.isfinite(H))
        assert np.all(p > 0)


def test_invalid_dimensions(rng):
    with pytest.raises(ValueError):
        gen_channel(4, 8, "nonlos", rng)
    with pytest.raises(ValueError):
        gen_channel(8, 1, "nonlos", rng)


def test_los_colinear_users_rank_one(rng):
    angles = np.deg2rad(np.array([17.0, 17.0]))
    H = gen_channel(16, 2, "los", rng, k_factor=np.inf, angles_rad=angles)
    G = gram(H)
    assert abs(abs(G[0, 1]) - np.sqrt(G[0, 0].real * G[1, 1].real)) < 1e-9


def test_los_separated_users_not_colinear(rng):
    angles = np.deg2rad(np.array([-30.0, 40.0]))
    H = gen_channel(16, 2, "los", rng, k_factor=np.inf, angles_rad=angles)
    G = gram(H)
    assert abs(G[0, 1]) < 0.9 * np.sqrt(G[0, 0].real * G[1, 1].real)


# ---------------------------------------------------------------------------
# LOS angles

@pytest.mark.parametrize("U, sep", [(16, 7.0), (64, 1.8), (2, 59.0)])
def test_los_angles_in_sector_and_separated(U, sep):
    rng = np.random.default_rng(21)
    for _ in range(2000):
        deg = np.sort(np.rad2deg(_draw_angles(U, rng, sep)))
        assert -60.0 <= deg[0] and deg[-1] <= 60.0
        assert np.diff(deg).min() >= sep - 1e-9


@pytest.mark.parametrize("U, sep", [(3, 10.0), (4, 15.0)])
def test_los_angles_match_rejection_sampler(U, sep):
    # the same distribution as redrawing all U angles until they are
    # separated: each UE's angle and each order statistic, two-sample KS.
    # The smallest p is 0.31 at (3, 10) and 0.033 at (4, 15); angles left in
    # sorted UE order, or moved by argsort instead of rank, give p < 1e-90
    n = 20000
    rng, ref_rng = np.random.default_rng(22), np.random.default_rng(23)
    got = np.array([_draw_angles(U, rng, sep) for _ in range(n)])
    ref = np.array([_draw_angles_rejection(U, ref_rng, sep)
                    for _ in range(n)])
    for a, b in ((got, ref), (np.sort(got, axis=1), np.sort(ref, axis=1))):
        for u in range(U):
            assert ks_2samp(a[:, u], b[:, u]).pvalue > 1e-3, u


@pytest.mark.parametrize("U, sep", [(2, 0.0), (8, 0.0), (8, 1.0), (16, 7.0)])
def test_los_angles_take_exactly_u_uniforms(U, sep):
    rng, ref_rng = np.random.default_rng(24), np.random.default_rng(24)
    angles = _draw_angles(U, rng, sep)
    deg = ref_rng.uniform(-60.0, 60.0, U)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if sep == 0.0:
        assert angles.tobytes() == np.deg2rad(deg).tobytes()


def test_condition_number_matches_marchenko_pastur():
    # 128 x 16 i.i.d.: eigenvalue-ratio edge prediction
    # ((1 + sqrt(U/B)) / (1 - sqrt(U/B)))^2
    B, U = 128, 16
    r = np.sqrt(U / B)
    predicted = ((1 + r) / (1 - r)) ** 2
    ratios = []
    for seed in range(1000):
        H = gen_channel(B, U, "nonlos", np.random.default_rng(seed))
        w = np.linalg.eigvalsh(gram(H))
        ratios.append(w[-1] / w[0])
    median = np.median(ratios)
    assert abs(median - predicted) / predicted < 0.20


def test_reconstruction_exact(qam16, rng):
    H = gen_channel(16, 4, "nonlos", rng)
    b = transmit(H, qam16, 7, 10.0, rng)
    assert np.max(np.abs(b.Y - H @ b.S - b.noise)) == 0.0


def test_noiseless_limit(qam16, rng):
    H = gen_channel(16, 4, "nonlos", rng)
    b = transmit(H, qam16, 3, np.inf, rng)
    assert np.array_equal(b.Y, H @ b.S)
    assert b.N0 == 0.0


@pytest.mark.parametrize("snr_db", [-np.inf, np.nan])
def test_nan_and_minus_inf_snr_rejected(snr_db, qam16, rng):
    # -inf dB is not the noiseless case and NaN is no SNR at all
    H = gen_channel(16, 4, "nonlos", rng)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="snr_db"):
        noise_variance_for_snr(H, snr_db)
    with pytest.raises(ValueError, match="snr_db"):
        noise_variance_for_snr(np.stack([H, H]), snr_db)
    with pytest.raises(ValueError, match="snr_db"):
        transmit(H, qam16, 3, snr_db, rng)
    with pytest.raises(ValueError, match="snr_db"):
        make_batch(16, 4, qam16, snr_db, "nonlos", 2, rng)
    assert rng.bit_generator.state == state  # rejected before any draw


def test_noise_only_variance(rng):
    H = gen_channel(64, 4, "nonlos", rng)
    N0 = noise_variance_for_snr(H, 10.0)
    zeros = np.zeros((4, 400), dtype=np.complex128)
    # 64 x 400 = 25600 entries per batch; pool several batches to reach 1e5
    Y = np.concatenate([apply_channel(H, zeros, N0, rng) for _ in range(4)],
                       axis=1)
    emp = np.mean(np.abs(Y) ** 2)
    assert abs(emp - N0) / N0 < 0.05


def test_fresh_noise_per_transmission():
    # cross-correlation between the two noise columns vanishes relative to
    # their energy, so the second transmission sees fresh noise
    cross = 0.0
    energy = 0.0
    zeros = np.zeros((2, 2), dtype=np.complex128)
    for seed in range(400):
        rng = np.random.default_rng(seed)
        H = gen_channel(8, 2, "nonlos", rng)
        Y = apply_channel(H, zeros, noise_variance_for_snr(H, 5.0), rng)
        cross += np.vdot(Y[:, 0], Y[:, 1])
        energy += 0.5 * (np.sum(np.abs(Y[:, 0]) ** 2)
                         + np.sum(np.abs(Y[:, 1]) ** 2))
    assert abs(cross) / energy < 0.05


def test_snr_definition(qam16, rng):
    H = gen_channel(32, 4, "nonlos", rng)
    snr_db = 13.0
    N0 = noise_variance_for_snr(H, snr_db)
    sig = np.sum(np.abs(H) ** 2) / 32
    assert abs(10 * np.log10(sig / N0) - snr_db) < 1e-12


def test_transmit_preconditions(qam16, rng):
    H = gen_channel(8, 4, "nonlos", rng)
    with pytest.raises(ValueError):
        transmit(H, qam16, 0, 10.0, rng)
    with pytest.raises(ValueError):
        transmit(H, qam16, 2, float("nan"), rng)


# ---------------------------------------------------------------------------
# the frozen per-sample oracle

def _same(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@pytest.mark.parametrize("B, U, condition, kw", [
    (16, 16, "nonlos", {}),
    (32, 8, "NonLOS", {}),
    (32, 8, "los", {}),
    (32, 8, "los", dict(k_factor=5.0, min_sep_deg=3.0)),
    (16, 4, "los", dict(k_factor=np.inf)),
    (16, 2, "los", dict(angles_rad=np.deg2rad([-20.0, 35.0]))),
])
def test_gen_channel_matches_reference(B, U, condition, kw):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(5):
        H = gen_channel(B, U, condition, rng, **kw)
        ref = _gen_channel_reference(B, U, condition, ref_rng, **kw)
        assert _same(H, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("T, snr_db", [(1, 6.0), (7, 12.0), (3, np.inf)])
def test_transmit_matches_reference(qam16, T, snr_db):
    H = gen_channel(16, 4, "nonlos", np.random.default_rng(1))
    rng, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    for _ in range(3):
        b = transmit(H, qam16, T, snr_db, rng)
        ref = _transmit_reference(H, qam16, T, snr_db, ref_rng)
        for f in ("S", "bits", "Y", "noise", "symbol_indices"):
            assert _same(getattr(b, f), getattr(ref, f)), f
        assert type(b.N0) is float and b.N0 == ref.N0
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("N0", [0.0, 0.3])
def test_apply_channel_matches_reference(qam16, N0):
    H = gen_channel(16, 4, "nonlos", np.random.default_rng(2))
    S = qam16.points[np.random.default_rng(3).integers(0, 16, (4, 5))]
    rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
    assert _same(apply_channel(H, S, N0, rng),
                 _apply_channel_reference(H, S, N0, ref_rng)[0])
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("snr_db", [-3.0, 7.5, np.inf])
def test_noise_variance_takes_leading_axes(snr_db):
    rng = np.random.default_rng(14)
    H = np.stack([[gen_channel(32, 8, "nonlos", rng) for _ in range(3)]
                  for _ in range(2)])
    N0 = noise_variance_for_snr(H, snr_db)
    assert N0.shape == (2, 3)
    for i in np.ndindex(2, 3):
        ref = _noise_variance_for_snr_reference(H[i], snr_db)
        assert N0[i] == ref
        one = noise_variance_for_snr(H[i], snr_db)
        assert type(one) is float and one == ref
