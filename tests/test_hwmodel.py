from types import SimpleNamespace

import numpy as np
import pytest

from gbcd import baselines, denoise, detector, hwmodel
from gbcd.channel import gen_channel, transmit
from gbcd.constellation import make_constellation

from conftest import random_channel
from counted_reference import gbcd_reference, lmmse_reference, ocd_reference
from datapath_reference import (LAYOUTS, _box_denoise_reference,
                                _pme_apply_reference, _quantize_reference,
                                probe)


# ---------------------------------------------------------------------------
# closed-form counts

def test_gbcd_preprocessing_count_128x16():
    rep = hwmodel.complexity_gbcd(128, 16, 3)
    assert rep.preprocessing_mults == 2 * 128 * 256 + 16 * 34 + 48 == 66128


def test_gbcd_per_transmission_count_128x16():
    rep = hwmodel.complexity_gbcd(128, 16, 3)
    assert rep.per_transmission_mults == 8192 + 384 + 3072 == 11648


def test_total_at_t_zero_is_preprocessing_only():
    rep = hwmodel.complexity_gbcd(64, 8, 2)
    assert rep.total(0) == rep.preprocessing_mults


def test_lmmse_preprocessing_count():
    rep = hwmodel.complexity_lmmse(128, 16)
    assert rep.preprocessing_mults == 65536 + 2720 == 68256


def test_lmmse_single_user_no_cholesky_term():
    rep = hwmodel.complexity_lmmse(8, 1)
    assert rep.preprocessing_mults == 2 * 8 * 1


def test_lmmse_measured_per_transmission(rng):
    B, U = 32, 4
    rep = hwmodel.complexity_lmmse(B, U)
    assert rep.per_transmission_mults == 4 * B * U + 4 * U * U


# ---------------------------------------------------------------------------
# counted scalar references vs closed forms and the library's detectors

GRID = [(8, 4, 1), (16, 8, 2), (32, 8, 3), (128, 16, 3), (24, 6, 4)]


def _instance(B, U, seed=0):
    rng = np.random.default_rng([B, U, seed])
    return (random_channel(rng, B, U),
            rng.standard_normal(B) + 1j * rng.standard_normal(B))


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("B,U,K", GRID)
def test_instrumented_gbcd_matches_closed_form(B, U, K):
    H, y = _instance(B, U)
    const = make_constellation(4)
    z, v_last, (pre, eq) = gbcd_reference(H, y, 0.1, K, const)
    rep = hwmodel.complexity_gbcd(B, U, K)
    assert pre == rep.preprocessing_mults
    assert eq == rep.per_transmission_mults
    st = detector.gbcd_equalize(detector.preprocess(H, 0.1),
                                detector.matched_filter(H, y), K,
                                denoise.box_denoiser(const))
    _assert_close(z, st.z)
    _assert_close(v_last, st.v_last)


@pytest.mark.parametrize("B,U", sorted({(B, U) for B, U, _ in GRID}))
def test_counted_lmmse_matches_closed_form_and_detector(B, U):
    H, y = _instance(B, U)
    s_hat, counts = lmmse_reference(H, y, 0.1)
    rep = hwmodel.complexity_lmmse(B, U)
    assert counts == (rep.preprocessing_mults, rep.per_transmission_mults)
    _assert_close(s_hat, baselines.lmmse_detect(
        H, y, 0.1, make_constellation(4)).v_final)


@pytest.mark.parametrize("B,U,K", GRID)
def test_counted_ocd_matches_closed_form_and_detector(B, U, K):
    H, y = _instance(B, U)
    const = make_constellation(4)
    *out, counts = ocd_reference(H, y, K, const)
    rep = hwmodel.complexity_ocd(B, U, K)
    assert counts == (rep.preprocessing_mults, rep.per_transmission_mults)
    for got, want in zip(out, baselines.ocd_equalize(H, y, K, const)):
        _assert_close(got, want)


def test_counted_references_match_closed_forms_on_the_size_grid():
    # every U up to min(B, 33): odd U, single UEs and single antennas too
    const = make_constellation(4)
    for B in (1, 2, 3, 8, 17, 128, 256):
        for U in range(1, min(B, 33) + 1):
            H, y = _instance(B, U)
            lm = hwmodel.complexity_lmmse(B, U)
            assert lmmse_reference(H, y, 0.1)[1] == (
                lm.preprocessing_mults, lm.per_transmission_mults), (B, U)
            for K in (1, 2, 5):
                oc = hwmodel.complexity_ocd(B, U, K)
                assert ocd_reference(H, y, K, const)[3] == (
                    0, oc.per_transmission_mults), (B, U, K)
                if U % 2 == 0:
                    gb = hwmodel.complexity_gbcd(B, U, K)
                    assert gbcd_reference(H, y, 0.1, K, const)[2] == (
                        gb.preprocessing_mults,
                        gb.per_transmission_mults), (B, U, K)


def test_instrumented_lmmse_preprocessing_matches_formula(rng):
    B, U = 16, 4
    H = random_channel(rng, B, U)
    y = rng.standard_normal(B) + 1j * rng.standard_normal(B)
    pre, _ = lmmse_reference(H, y, 0.1)[1]
    assert pre == 2 * B * U * U + (2 * U ** 3 - 2 * U) // 3


def test_ocd_single_run_self_consistency(rng):
    B, U, K = 32, 8, 2
    rep = hwmodel.complexity_ocd(B, U, K)
    const = make_constellation(4)
    H = random_channel(rng, B, U)
    y = rng.standard_normal(B) + 1j * rng.standard_normal(B)
    pre, per = ocd_reference(H, y, K, const)[3]
    assert per == rep.per_transmission_mults
    assert pre == rep.preprocessing_mults == 0


def test_ocd_intercept_below_gbcd():
    gb = hwmodel.complexity_gbcd(128, 16, 3)
    oc = hwmodel.complexity_ocd(128, 16, 3)
    assert oc.preprocessing_mults < gb.preprocessing_mults


def test_gbcd_beats_ocd_three_fold_past_t10():
    gb = hwmodel.complexity_gbcd(128, 16, 3)
    oc = hwmodel.complexity_ocd(128, 16, 3)
    # the ratio is increasing in T, so checking T = 11 plus a spread suffices
    for T in (11, 12, 15, 25, 100, 1000):
        assert 3 * gb.total(T) < oc.total(T)
    assert 3 * gb.total(10) > oc.total(10)  # and the bound is tight


# ---------------------------------------------------------------------------
# timing

def test_throughput_asymptote_256qam():
    asym = hwmodel.throughput_asymptote(256, 887e6)
    assert abs(asym - 7.0960e9) < 1e6
    big = hwmodel.throughput(10 ** 9, 256, 16, 887e6)
    assert abs(big - asym) / asym < 1e-6


def test_throughput_half_at_t9():
    theta = hwmodel.throughput(9, 256, 16, 887e6)
    assert abs(theta - 0.5 * hwmodel.throughput_asymptote(256, 887e6)) < 1.0


def test_throughput_qpsk():
    assert abs(hwmodel.throughput_asymptote(4, 887e6) - 1.774e9) < 1e6


def test_throughput_monotone_and_below_asymptote():
    asym = hwmodel.throughput_asymptote(64, 887e6)
    prev = 0.0
    for T in range(1, 200):
        th = hwmodel.throughput(T, 64, 16, 887e6)
        assert th > prev
        assert th < asym
        prev = th


def test_throughput_rejects_bad_t():
    with pytest.raises(ValueError):
        hwmodel.throughput(0, 256)


def test_utilization_values():
    assert hwmodel.utilization(0) == 0.0
    assert hwmodel.utilization(9) == 0.5
    assert hwmodel.utilization(54) == 54 / 63
    for T in range(0, 100):
        eta = hwmodel.utilization(T)
        assert 0.0 <= eta < 1.0
        assert abs(eta + 9.0 / (T + 9.0) - 1.0) < 1e-15


# ---------------------------------------------------------------------------
# power fit

def test_power_fit_exact_recovery():
    ts = np.arange(6, 55, 6)
    p = 0.420 + ts / (ts + 9.0) * 0.367
    p_idle, p_equ, r2 = hwmodel.fit_power(list(zip(ts, p)))
    assert abs(p_idle - 0.420) < 1e-9
    assert abs(p_equ - 0.367) < 1e-9
    assert abs(r2 - 1.0) < 1e-12
    assert abs((p_idle + p_equ) - 0.787) < 1e-9


@pytest.mark.parametrize("B, U", [(64, 8), (64, 16), (32, 8)])
def test_power_fit_at_other_design_points(B, U):
    # 64x8 idles (64 + 8) / 8 = 9 vectors per block like 128x16; 64x16 and
    # 32x8 idle 5, which a fit hard-wired to 128x16 gets wrong
    ts = np.arange(6, 55, 6)
    p = np.array([0.420 + hwmodel.utilization(t, U, B) * 0.367 for t in ts])
    p_idle, p_equ, _ = hwmodel.fit_power(list(zip(ts, p)), U=U, B=B)
    assert abs(p_idle - 0.420) / 0.420 < 0.01
    assert abs(p_equ - 0.367) / 0.367 < 0.01


def test_power_fit_two_samples_interpolate():
    pts = [(6, 0.5), (54, 0.7)]
    p_idle, p_equ, r2 = hwmodel.fit_power(pts)
    for t, p in pts:
        assert abs(p_idle + t / (t + 9) * p_equ - p) < 1e-12
    assert abs(r2 - 1.0) < 1e-12


def test_power_fit_noisy_methodology():
    # At 0.5% multiplicative noise on these nine samples the standard error
    # of one fit is ~1.25% for P_idle and ~2.0% for P_equ, so a single draw
    # misses the 3% P_equ tolerance on ~14% of seeds. The medians over 50
    # draws have standard errors of ~0.22% and ~0.35%.
    rng = np.random.default_rng(4)
    ts = np.arange(6, 55, 6)
    truth = 0.420 + ts / (ts + 9.0) * 0.367
    fits = [hwmodel.fit_power(list(zip(
                ts, truth * (1.0 + 0.005 * rng.standard_normal(ts.size)))))
            for _ in range(50)]
    p_idle, p_equ, r2 = np.median(fits, axis=0)
    assert abs(p_idle - 0.420) / 0.420 < 0.03
    assert abs(p_equ - 0.367) / 0.367 < 0.03
    assert r2 > 0.99


def test_power_fit_small_noise_reaches_reference_r2():
    # at the ~0.2% noise level that corresponds to R^2 = 0.9994, the fit
    # reproduces that grade of fit across seeds
    ts = np.arange(6, 55, 6)
    truth = 0.420 + ts / (ts + 9.0) * 0.367
    r2s = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        noisy = truth * (1.0 + 0.002 * rng.standard_normal(ts.size))
        r2s.append(hwmodel.fit_power(list(zip(ts, noisy)))[2])
    assert np.median(r2s) > 0.999


def test_power_fit_rejects_degenerate_design():
    with pytest.raises(ValueError):
        hwmodel.fit_power([(10, 0.5), (10, 0.6)])
    with pytest.raises(ValueError):
        hwmodel.fit_power([(10, 0.5)])


# ---------------------------------------------------------------------------
# quantization

def test_quantize_idempotent(rng):
    fmt = hwmodel.FxpFormat(12, 7)
    x = rng.standard_normal(1000) * 10
    q = hwmodel.quantize(x, fmt)
    assert np.array_equal(hwmodel.quantize(q, fmt), q)


def test_quantize_exact_values_unchanged():
    fmt = hwmodel.FxpFormat(12, 4)
    x = np.array([0.0, 1.0, -2.5, 0.0625, 5.1875])
    assert np.array_equal(hwmodel.quantize(x, fmt), x)


def test_quantize_saturates():
    fmt = hwmodel.FxpFormat(8, 4)
    assert hwmodel.quantize(np.array([100.0]), fmt)[0] == fmt.max_value
    assert hwmodel.quantize(np.array([-100.0]), fmt)[0] == fmt.min_value
    assert fmt.max_value == (2 ** 7 - 1) / 16.0
    assert fmt.min_value == -(2 ** 7) / 16.0


def test_quantize_error_bounded_by_half_lsb(rng):
    fmt = hwmodel.FxpFormat(12, 6)
    x = rng.uniform(fmt.min_value, fmt.max_value, 10 ** 6)
    err = np.abs(hwmodel.quantize(x, fmt) - x)
    assert err.max() <= 0.5 * fmt.lsb + 1e-15


def test_quantize_round_half_even():
    fmt = hwmodel.FxpFormat(8, 0)
    x = np.array([0.5, 1.5, 2.5, -0.5, -1.5])
    assert np.array_equal(hwmodel.quantize(x, fmt), [0.0, 2.0, 2.0, -0.0, -2.0])


def test_quantize_complex(rng):
    fmt = hwmodel.FxpFormat(12, 8)
    z = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    q = hwmodel.quantize(z, fmt)
    assert np.array_equal(q.real, hwmodel.quantize(z.real, fmt))
    assert np.array_equal(q.imag, hwmodel.quantize(z.imag, fmt))


FORMATS = dict(hwmodel.DEFAULT_FORMATS,
               unsigned=hwmodel.FxpFormat(8, 3, signed=False))


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("name", list(FORMATS))
def test_quantize_matches_split_reference(name, layout, rng):
    fmt = FORMATS[name]
    lsb = fmt.lsb
    steps = np.arange(-4.0, 5.0)
    special = np.concatenate([
        steps * lsb, (steps + 0.5) * lsb,                  # codes and ties
        fmt.max_value + lsb * np.array([0.0, 0.5, 1.0, 1e6]),
        fmt.min_value - lsb * np.array([0.0, 0.5, 1.0, 1e6]),
        [1e300, -1e300, 0.0, -0.0]])
    v = LAYOUTS[layout](probe(rng, special, scale=1.5 * fmt.max_value))
    for x in (v, v.real):
        before = x.copy()
        got = hwmodel.quantize(x, fmt)
        if x.ndim == 0 and np.iscomplexobj(x):
            # the split reference cannot write a 0-d complex result
            ref = _quantize_reference(x.reshape(1), fmt).reshape(())
        else:
            ref = _quantize_reference(x, fmt)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert x.tobytes() == before.tobytes()
        assert not np.shares_memory(got, x)


# ---------------------------------------------------------------------------
# lookup reciprocal

def test_lut_reciprocal_accuracy(rng):
    x = 10.0 ** rng.uniform(-6, 6, 20000)
    x = np.concatenate([x, -x])
    rel = np.abs(hwmodel.lut_reciprocal(x) - 1.0 / x) * np.abs(x)
    assert rel.max() < 2e-4


def test_lut_reciprocal_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        hwmodel.lut_reciprocal(np.array([0.0]))


# ---------------------------------------------------------------------------
# fixed-point pipeline

def test_fixed_point_pipeline_tracks_float(qam16, rng):
    agree = tot = 0
    for _ in range(20):
        H = gen_channel(16, 4, "nonlos", rng)
        b = transmit(H, qam16, 20, 12.0, rng)
        sf, _, _ = detector.gbcd_detect(H, b.Y, b.N0, qam16, 3)
        sq = hwmodel.detect_fixed_point(H, b.Y, b.N0, qam16, 3)
        agree += np.sum(np.sign(sf.llrs) == np.sign(sq.llrs))
        tot += sf.llrs.size
    assert agree / tot > 0.99


def test_fixed_point_outputs_quantized(qam16, rng):
    H = gen_channel(16, 4, "nonlos", rng)
    b = transmit(H, qam16, 4, 12.0, rng)
    sq = hwmodel.detect_fixed_point(H, b.Y, b.N0, qam16, 3)
    fmt = hwmodel.DEFAULT_FORMATS["llr"]
    assert np.array_equal(hwmodel.quantize(sq.llrs, fmt), sq.llrs)


def _detect_fixed_point_reference(H, y, N0, const, K, *, denoiser=None,
                                  alpha=None, L=2, sort=True):
    """The fixed-point detector written out stage by stage: quantized H, y,
    G and y_mf, lookup reciprocals, a denoiser whose output is quantized,
    and quantized LLRs."""
    formats = hwmodel.DEFAULT_FORMATS
    q, lut = hwmodel.quantize, hwmodel.lut_reciprocal
    Hq = q(H, formats["h"])
    yq = q(y, formats["y"])
    G = q(detector.gram(Hq), formats["g"])
    inv_sinr = detector.reciprocal_sinr(G, N0, recip_fn=lut)
    perm = detector.sort_ues(inv_sinr) if sort else np.arange(H.shape[1])
    blocks = detector.make_blocks(perm, L)
    regularized = []
    kinv = detector.block_inverses(G, blocks, recip_fn=lut,
                                   regularized=regularized)
    pre = detector.PreprocOutput(G, inv_sinr, blocks, kinv, float(N0),
                                 regularized)
    y_mf = q(detector.matched_filter(Hq, yq), formats["ymf"])
    base = denoise.box_denoiser(const) if denoiser is None else denoiser

    class _QuantizedDenoiser:
        def apply(self, v, k):
            return q(base.apply(v, k), formats["z"])

    state = detector.gbcd_equalize(pre, y_mf, K, _QuantizedDenoiser())
    if alpha is None:
        alpha = N0
    soft = denoise.compute_llrs(state.v_last, G, alpha, const,
                                recip_fn=lut)
    soft.llrs = q(soft.llrs, formats["llr"])
    return soft


@pytest.mark.parametrize("L", [1, 2, 4])
@pytest.mark.parametrize("Q", [4, 16, 64, 256])
def test_fixed_point_matches_reference(Q, L):
    const = make_constellation(Q)
    rng = np.random.default_rng(100 * Q + L)
    K = 3
    rho = np.array([1.0, 2.0, 4.0]) / const.scale
    beta = np.full(K, const.scale)
    pme = denoise.pme_denoiser(const, rho, beta)
    for (B, U), condition in (((32, 8), "nonlos"), ((16, 4), "los"),
                              ((8, 8), "nonlos")):
        H = gen_channel(B, U, condition, rng)
        b = transmit(H, const, 6, 8.0, rng)
        for sort in (False, True):
            for mode, kw in (("box", {}),
                             ("pme", dict(denoiser=pme, alpha=0.5 * b.N0))):
                args = (H, b.Y, b.N0, const, K)
                kw = dict(kw, L=L, sort=sort)
                got = hwmodel.detect_fixed_point(*args, **kw)
                ref = _detect_fixed_point_reference(*args, **kw)
                case = (B, U, condition, sort, mode)
                assert np.array_equal(got.llrs, ref.llrs), case
                assert np.array_equal(got.v_final, ref.v_final), case
                assert np.array_equal(got.params.mu, ref.params.mu), case
                assert np.array_equal(got.params.xi, ref.params.xi), case


@pytest.mark.parametrize("mode", ["box", "pme"])
def test_fixed_point_matches_frozen_datapath(mode, qam16, rng):
    # every quantized signal and denoiser output against the split-part
    # oracle, on a stack of channels detected in one call
    formats = hwmodel.DEFAULT_FORMATS
    K = 3
    pme = denoise.pme_denoiser(qam16, np.array([1.0, 2.0, 4.0]) / qam16.scale,
                               np.full(K, qam16.scale))
    live, ref = {
        "box": (None, lambda v, k: _box_denoise_reference(v, qam16)),
        "pme": (pme, lambda v, k: _pme_apply_reference(pme, v, k)),
    }[mode]
    frozen = detector.Numerics(
        lambda signal, x: _quantize_reference(x, formats[signal]),
        hwmodel.lut_reciprocal)
    H = np.stack([gen_channel(16, 6, "nonlos", rng) for _ in range(3)])
    b = [transmit(h, qam16, 7, 8.0, rng) for h in H]
    Y = np.stack([x.Y for x in b])
    N0 = np.array([x.N0 for x in b])
    got, st, _ = detector.gbcd_detect(H, Y, N0, qam16, K, denoiser=live,
                                      numerics=hwmodel.FIXED_POINT)
    want, st_ref, _ = detector.gbcd_detect(
        H, Y, N0, qam16, K, denoiser=SimpleNamespace(apply=ref),
        numerics=frozen)
    assert np.array_equal(got.llrs, want.llrs)
    for field in ("z", "r", "v_last"):
        assert np.array_equal(getattr(st, field), getattr(st_ref, field)), field


def test_float_numerics_is_the_identity():
    x = np.array([0.1 + 0.2j, -3.0])
    for signal in ("h", "y", "g", "ymf", "z", "llr"):
        assert detector.FLOAT.quantize(signal, x) is x
    assert detector.FLOAT.recip is np.reciprocal


def test_profile_formats_matches_recorded_levels():
    # recorded with per-sample gen_channel + transmit draws, which
    # profile_formats makes; the levels must stay exact
    recorded = {
        50.0: {"h": 2.0197646605805977, "y": 3.083358507496304,
               "g": 18.843049361972895, "ymf": 18.220969185533935,
               "z": 0.8266173176296011, "llr": 377.82535459416476},
        99.99: {"h": 2.747237273268507, "y": 4.7472752382476235,
                "g": 26.665564724291617, "ymf": 28.74501394173327,
                "z": 0.9486832980505138, "llr": 1173.5777368932725},
    }
    for percentile, levels in recorded.items():
        prof = hwmodel.profile_formats(B=16, U=4, orders=(4, 16),
                                       snrs_db=(5.0, 20.0), n=24, seed=3,
                                       percentile=percentile)
        assert {k: v["percentile_level"] for k, v in prof.items()} == levels


def test_profiler_smoke():
    prof = hwmodel.profile_formats(B=16, U=4, orders=(16,), snrs_db=(10.0,),
                                   n=20, seed=1)
    for key in ("h", "y", "g", "ymf", "z", "llr"):
        assert prof[key]["format"].total_bits == hwmodel.DEFAULT_FORMATS[key].total_bits
        assert prof[key]["percentile_level"] > 0
