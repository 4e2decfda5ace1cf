import numpy as np
import pytest

from gbcd import denoise
from gbcd.constellation import make_constellation

from datapath_reference import (LAYOUTS, _box_denoise_reference,
                                _llrs_exhaustive_reference, _llrs_reference,
                                _pme_apply_reference,
                                _trailing_axis_llrs_reference, probe)


# ---------------------------------------------------------------------------
# box

def test_box_identity_inside(qam16, rng):
    a = qam16.max_amplitude
    v = rng.uniform(-a, a, 100) + 1j * rng.uniform(-a, a, 100)
    assert np.array_equal(denoise.box_denoise(v, qam16), v)


def test_box_corner_projection(qam16):
    a = qam16.max_amplitude
    v = (a + 1.0) + 1j * (-a - 2.0)
    assert denoise.box_denoise(v, qam16) == a - 1j * a


def test_box_matches_grid_projection_oracle(qam16, rng):
    a = qam16.max_amplitude
    grid = np.linspace(-a, a, 2001)
    step = grid[1] - grid[0]
    v = rng.uniform(-3 * a, 3 * a, 200) + 1j * rng.uniform(-3 * a, 3 * a, 200)
    out = denoise.box_denoise(v, qam16)
    for vi, oi in zip(v, out):
        gi = grid[np.argmin(np.abs(grid - vi.real))] + \
            1j * grid[np.argmin(np.abs(grid - vi.imag))]
        assert abs(oi - gi) <= step


# ---------------------------------------------------------------------------
# exact posterior mean

def test_pme_exact_odd_symmetry(qam16):
    x = np.linspace(-2, 2, 101)
    y1 = denoise.pme_exact(x, 3.0, 1.0, qam16.pam_points)
    y2 = denoise.pme_exact(-x, 3.0, 1.0, qam16.pam_points)
    assert np.max(np.abs(y1 + y2)) < 1e-12
    assert abs(denoise.pme_exact(np.array(0.0), 3.0, 1.0, qam16.pam_points)) < 1e-15


def test_pme_exact_hard_decision_limit(qam16, rng):
    v = rng.uniform(-1.5, 1.5, 50)
    beta = 0.9
    out = denoise.pme_exact(v, 1e8, beta, qam16.pam_points)
    nearest = qam16.pam_points[
        np.argmin(np.abs(v[:, None] - beta * qam16.pam_points), axis=1)]
    assert np.max(np.abs(out - nearest)) < 1e-6


def test_pme_exact_qpsk_tanh_oracle(rng):
    qpsk = make_constellation(4)
    a = qpsk.pam_points[1]
    omega, beta = 2.3, 0.8
    v = rng.uniform(-2, 2, 200)
    expected = a * np.tanh(2.0 * omega * a * beta * v)
    got = denoise.pme_exact(v, omega, beta, qpsk.pam_points)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_pme_exact_matches_unstabilized_sum(qam256, rng):
    v = rng.uniform(-1.5, 1.5, 100)
    omega, beta = 4.0, 1.1
    pam = qam256.pam_points
    w = np.exp(-omega * (v[:, None] - beta * pam) ** 2)
    expected = (w @ pam) / w.sum(axis=1)
    got = denoise.pme_exact(v, omega, beta, pam)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_pme_exact_stability_at_large_omega(qam256):
    out = denoise.pme_exact(np.array([0.7, -0.9]), 1e12, 1.0, qam256.pam_points)
    assert np.all(np.isfinite(out))


def test_pme_exact_range(qam16, rng):
    v = rng.uniform(-10, 10, 500)
    out = denoise.pme_exact(v, 2.0, 1.0, qam16.pam_points)
    assert out.min() >= qam16.pam_points[0] - 1e-12
    assert out.max() <= qam16.pam_points[-1] + 1e-12


# ---------------------------------------------------------------------------
# piecewise posterior mean

def test_piecewise_zero_at_zero():
    for order in (4, 16, 64, 256):
        for rho, beta in ((0.5, 0.3), (2.0, 1.0), (7.0, 0.2)):
            assert denoise.pme_piecewise(np.array(0.0), rho, beta, order) == 0.0


def test_piecewise_qpsk_is_single_clip():
    assert denoise.pme_piecewise(np.array(10.0 / 3.0), 3.0, 1.0, 4) == 1.0
    assert denoise.pme_piecewise(np.array(-5.0), 2.0, 1.0, 4) == -1.0
    x = np.array(0.2)
    assert abs(denoise.pme_piecewise(x, 2.0, 1.0, 4) - 0.4) < 1e-15


def test_piecewise_q64_direct_sum_oracle():
    rho, beta, v = 2.0, 1.0, 0.9
    total = 0.0
    for k in range(-3, 4):  # 7 clip terms for 8-PAM
        total += np.clip(rho * (v + 2 * beta * k), -1.0, 1.0)
    got = denoise.pme_piecewise(np.array(v), rho, beta, 64)
    assert abs(got - total) < 1e-12


def test_piecewise_monotone_odd_bounded(rng):
    for order in (4, 16, 64, 256):
        rho = float(rng.uniform(0.5, 6.0))
        beta = float(rng.uniform(0.2, 1.2))
        x = np.linspace(-30, 30, 4001)
        y = denoise.pme_piecewise(x, rho, beta, order)
        assert np.all(np.diff(y) >= -1e-12)
        assert np.max(np.abs(y + y[::-1])) < 1e-9
        lim = np.sqrt(order) - 1
        assert y.max() <= lim + 1e-12 and y.min() >= -lim - 1e-12


def test_invalid_parameters():
    with pytest.raises(ValueError):
        denoise.pme_piecewise(np.array(1.0), -1.0, 1.0, 16)
    with pytest.raises(ValueError):
        denoise.pme_exact(np.array(1.0), 0.0, 1.0, np.array([-1.0, 1.0]))


# ---------------------------------------------------------------------------
# tables

def test_pme_table_qpsk_three_bins():
    t = denoise.build_plm_table(2.5, 1.0, 4)
    assert t.n_bins == 3
    assert abs(t.slopes[1] - 2.5) < 1e-12
    assert t.slopes[0] == t.slopes[2] == 0.0


@pytest.mark.parametrize("order", (4, 16, 64, 256))
def test_table_matches_direct_high_resolution(order, rng):
    rho = float(rng.uniform(0.8, 6.0))
    beta = float(rng.uniform(0.2, 1.2))
    t = denoise.build_plm_table(rho, beta, order)
    lim = (np.sqrt(order) * beta + 2.0 / rho) * 1.5
    x = np.linspace(-lim, lim, 100000)
    direct = denoise.pme_piecewise(x, rho, beta, order)
    assert np.max(np.abs(t(x) - direct)) < 1e-9


def test_table_continuity_and_symmetry():
    t = denoise.build_plm_table(3.0, 0.5, 256)
    eps = 1e-12
    for b in t.boundaries:
        assert abs(t(np.array(b - eps)) - t(np.array(b + eps))) < 1e-9
    x = np.linspace(-20, 20, 5001)
    assert np.max(np.abs(t(x) + t(-x))) < 1e-9
    assert np.all(np.diff(t.boundaries) > 0)


# ---------------------------------------------------------------------------
# scaled denoiser used by the equalizer

def test_pme_denoiser_saturates_at_box_corner(qam16):
    den = denoise.pme_denoiser(qam16, [5.0], [qam16.scale])
    far = np.array([100.0 + 100.0j])
    out = den.apply(far, 0)
    a = qam16.max_amplitude
    assert abs(out[0] - (a + 1j * a)) < 1e-12


def test_pme_denoiser_box_equivalent_parameters(qam16, rng):
    den = denoise.pme_denoiser(qam16, [1.0 / qam16.scale], [qam16.scale])
    v = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
    assert np.max(np.abs(den.apply(v, 0) - denoise.box_denoise(v, qam16))) < 1e-12


def test_pme_denoiser_table_vs_direct(qam256, rng):
    rho, beta = [2.2], [qam256.scale * 1.1]
    den = denoise.pme_denoiser(qam256, rho, beta)
    v = rng.uniform(-2, 2, 500) + 1j * rng.uniform(-2, 2, 500)
    direct = qam256.scale * (
        denoise.pme_piecewise(v.real, rho[0], beta[0], qam256.order)
        + 1j * denoise.pme_piecewise(v.imag, rho[0], beta[0], qam256.order))
    assert np.max(np.abs(den.apply(v, 0) - direct)) < 1e-9


# ---------------------------------------------------------------------------
# the denoisers on the float64 view against the frozen split-part oracle

def _saturating(const):
    """Values on and beyond the box edge, zeros of both signs."""
    a = const.max_amplitude
    edge = [a, np.nextafter(a, 0.0), np.nextafter(a, np.inf), a + 1.0,
            10.0 * a, 1e300]
    return np.concatenate([edge, np.negative(edge), [0.0, -0.0]])


def _check_unchanged_and_fresh(v, before, outs):
    assert np.array_equal(v, before)
    assert v.tobytes() == before.tobytes()
    for out in outs:
        assert out.dtype == np.complex128
        assert not np.shares_memory(out, v)


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_box_denoise_matches_split_reference(layout, qam16, rng):
    v = LAYOUTS[layout](probe(rng, _saturating(qam16)))
    before = v.copy()
    ref = _box_denoise_reference(v, qam16)
    den = denoise.box_denoiser(qam16)
    outs = [denoise.box_denoise(v, qam16)] + [den.apply(v, k) for k in range(4)]
    for out in outs:
        assert out.shape == np.shape(ref)
        assert np.array_equal(out, ref)
    _check_unchanged_and_fresh(v, before, outs)


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_pme_denoiser_matches_split_reference(order, layout, rng):
    const = make_constellation(order)
    den = denoise.pme_denoiser(const, np.array([1.0, 2.0, 4.0]) / const.scale,
                               const.scale * np.array([1.0, 0.9, 1.1]))
    # every table's breakpoints, so each lands exactly on a bin edge
    breaks = np.concatenate([t.boundaries for t in den.tables])
    v = LAYOUTS[layout](probe(rng, np.concatenate([breaks,
                                                   _saturating(const)])))
    before = v.copy()
    outs = []
    for k in range(den.rho.size):
        ref = _pme_apply_reference(den, v, k)
        out = den.apply(v, k)
        assert out.shape == np.shape(ref), k
        assert np.array_equal(out, ref), k
        outs.append(out)
    _check_unchanged_and_fresh(v, before, outs)
    with pytest.raises(IndexError):
        den.apply(v, den.rho.size)


def test_real_view_shares_contiguous_input(rng):
    v = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    x = denoise.real_view(v)
    assert x.shape == (3, 5, 2) and np.shares_memory(x, v)
    assert np.array_equal(x[..., 0], v.real)
    assert np.array_equal(x[..., 1], v.imag)
    for other in (v.T, v[:, ::2], v.real):
        x = denoise.real_view(other)
        assert x.flags.c_contiguous and not np.shares_memory(x, v)
        assert np.array_equal(x.view(np.complex128)[..., 0], other)


# ---------------------------------------------------------------------------
# soft outputs

def test_llr_sign_pattern_on_points(qam16):
    G = 50.0 * np.eye(4, dtype=complex)
    alpha = 1e-4
    mu = 50.0 / (50.0 + alpha)
    v = mu * qam16.points[[3, 7, 9, 14]]
    soft = denoise.compute_llrs(v, G, alpha, qam16)
    want = qam16.bit_labels[[3, 7, 9, 14]].astype(bool)
    assert np.array_equal(soft.llrs > 0, want)


def test_llr_zero_at_equidistant_point(qam16):
    G = 10.0 * np.eye(1, dtype=complex)
    alpha = 0.1
    mu = 10.0 / 10.1
    # midpoint between the two innermost PAM levels differing in the last
    # real-axis bit
    i0, i1 = qam16.pam_bit_indices(1)
    x = mu * (qam16.pam_points[i0[0]] + qam16.pam_points[i1[0]]) / 2.0
    soft = denoise.compute_llrs(np.array([x + 0j]), G, alpha, qam16)
    assert abs(soft.llrs[0, 1]) < 1e-12


def _axis_llrs_reference(x, mu, const):
    """Per-bit metrics with the distances rebuilt for every axis bit."""
    mu_b = mu if x.ndim == 1 else mu[:, None]
    out = []
    for j in range(const.axis_bits):
        pam0, pam1 = (const.pam_points[i] for i in const.pam_bit_indices(j))
        d0 = np.min((x[..., None] - mu_b[..., None] * pam0) ** 2, axis=-1)
        d1 = np.min((x[..., None] - mu_b[..., None] * pam1) ** 2, axis=-1)
        out.append(d0 - d1)
    return out


@pytest.mark.parametrize("order", [4, 16, 64, 256])
@pytest.mark.parametrize("shape", [(8,), (8, 30)])
def test_axis_llrs_shared_distances_match_per_bit_formula(order, shape, rng):
    const = make_constellation(order)
    x = 1.5 * rng.standard_normal(shape)
    x[0] = 0.0                           # equidistant from the inner levels
    mu = rng.uniform(0.1, 1.0, shape[0])
    got = denoise._axis_llrs(x, mu, const)
    want = _axis_llrs_reference(x, mu, const)
    assert len(got) == len(want) == const.axis_bits
    for g, w in zip(got, want):
        assert g.shape == shape
        assert np.array_equal(g, w)


# one channel's vector and block, and every layout of LAYOUTS (its
# "c-contiguous" entry is the stack of blocks), each cut from (4, 6, 10)
LLR_INPUTS = {"vector": lambda v: v[0, :, 0], "block": lambda v: v[0],
              **LAYOUTS}


@pytest.mark.parametrize("name", list(LLR_INPUTS))
@pytest.mark.parametrize("order", [4, 16, 64, 256])
def test_llrs_match_trailing_axis_reference(order, name, rng):
    const = make_constellation(order)
    v = LLR_INPUTS[name](probe(rng, np.concatenate(
        [[0.0], const.pam_points, 0.4 * const.pam_points])))
    # one gain per UE; a vector shares its channel's gains with each entry
    lead = v.shape if name == "vector" else v.shape[:-1]
    params = denoise.LlrParams.from_mu(rng.uniform(0.05, 1.0, lead), 0.1)
    before = v.copy()
    got = denoise.compute_llrs_with_params(v, params, const).llrs
    want = _llrs_reference(v, params, const)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(v, before)
    x = np.asarray(v).real
    for g, w in zip(denoise._axis_llrs(x, params.mu, const),
                    _trailing_axis_llrs_reference(x, params.mu, const)):
        assert np.array_equal(g, w)


def test_axis_equals_exhaustive_256qam(qam256, rng):
    U = 8
    H = (rng.standard_normal((32, U)) + 1j * rng.standard_normal((32, U))) / np.sqrt(2)
    from gbcd.detector import gram

    G = gram(H)
    v = rng.standard_normal(U) + 1j * rng.standard_normal(U)
    a = denoise.compute_llrs(v, G, 0.01, qam256)
    b = _llrs_exhaustive_reference(v, a.params, qam256)
    assert np.max(np.abs(a.llrs - b)) < 1e-10


def test_llr_antisymmetry(qam16):
    G = 20.0 * np.eye(1, dtype=complex)
    v = np.array([0.4 + 0.7j])
    a = denoise.compute_llrs(v, G, 0.05, qam16).llrs[0]
    b = denoise.compute_llrs(-np.conj(v), G, 0.05, qam16).llrs[0]
    # negating the real axis flips exactly the real-axis sign bit (bit 0 of
    # the Gray label); magnitudes of all real-axis bits are preserved
    assert np.allclose(np.abs(a[:2]), np.abs(b[:2]))
    assert np.allclose(a[2:], b[2:])
    assert np.sign(a[0]) == -np.sign(b[0])


def test_xi_floor_flagged(qam16):
    G = 1e12 * np.eye(2, dtype=complex)
    soft = denoise.compute_llrs(np.zeros(2, complex), G, 1e-12, qam16)
    assert soft.flags["xi_floored"] == 2
    assert np.all(soft.params.xi >= 1e-9)


def test_llr_params_validation():
    with pytest.raises(ValueError):
        denoise.LlrParams.from_diagonal(np.ones(2), -0.5)
    p = denoise.LlrParams.from_diagonal(np.full(2, 10.0), 0.3)
    assert np.all((p.mu > 0) & (p.mu < 1))
    assert np.all(p.xi > 0)


def test_llr_to_prob_values():
    assert denoise.llr_to_prob(0.0) == 0.5
    assert denoise.llr_to_prob(1e6) == 1.0
    assert abs(denoise.llr_to_prob(2.0) - 0.5 * (1 + np.tanh(1.0))) < 1e-15
    assert abs(denoise.llr_to_prob(2.0) - 0.8807970779778823) < 1e-12


# ---------------------------------------------------------------------------
# fidelity tracking

def test_fitted_omega_tracks_sharpness(qam16):
    rep_soft = denoise.pme_fidelity(1.5, qam16.scale, qam16)
    rep_sharp = denoise.pme_fidelity(8.0, qam16.scale, qam16)
    assert rep_sharp["omega"] > rep_soft["omega"]
    assert rep_soft["sup_gap"] < 1.0
    assert rep_sharp["sup_gap"] < 1.0


def test_pme_exact_monotone_dense_grid(qam256):
    x = np.linspace(-3, 3, 5001)
    for omega in (0.5, 3.0, 20.0):
        y = denoise.pme_exact(x, omega, 1.0, qam256.pam_points)
        assert np.all(np.diff(y) >= -1e-12)
