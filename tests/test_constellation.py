import numpy as np
import pytest

from gbcd.constellation import (SUPPORTED_ORDERS, hard_decision_indices,
                                make_constellation, symbol_indices_from_bits)

from channel_reference import draw_symbols
from datapath_reference import (LAYOUTS, _bit_subsets_reference,
                                _hard_decision_indices_reference)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_unit_energy(order):
    c = make_constellation(order)
    assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_points_live_on_pam_grid(order):
    c = make_constellation(order)
    assert c.pam_points.size == int(np.sqrt(order))
    for p in c.points:
        assert np.min(np.abs(c.pam_points - p.real)) < 1e-12
        assert np.min(np.abs(c.pam_points - p.imag)) < 1e-12


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_bit_subsets_partition(order):
    # every label bit splits the alphabet into two halves
    c = make_constellation(order)
    for zero, one in _bit_subsets_reference(c):
        assert zero.size == one.size == order // 2
        assert np.array_equal(np.sort(np.concatenate([zero, one])),
                              np.arange(order))


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_gray_adjacency_per_axis(order):
    # adjacent PAM levels differ in exactly one bit of their axis label
    c = make_constellation(order)
    n = c.n_pam
    gray = np.arange(n) ^ (np.arange(n) >> 1)
    for i in range(n - 1):
        assert bin(gray[i] ^ gray[i + 1]).count("1") == 1


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_pam_bit_indices_follow_real_axis_labels(order):
    # the real-axis PAM level i sits at points[i * n_pam]; its axis bit j is
    # label bit j of that point
    c = make_constellation(order)
    for j in range(c.axis_bits):
        axis_labels = c.bit_labels[::c.n_pam, j]
        i0, i1 = c.pam_bit_indices(j)
        assert np.array_equal(i0, np.flatnonzero(axis_labels == 0))
        assert np.array_equal(i1, np.flatnonzero(axis_labels == 1))
        assert c.pam_bit_indices(j)[0] is i0             # computed once
        assert not (i0.flags.writeable or i1.flags.writeable)


def test_qpsk_normalizer():
    c = make_constellation(4)
    assert np.allclose(c.pam_points / c.scale, [-1.0, 1.0])
    assert abs(c.scale - 1.0 / np.sqrt(2.0)) < 1e-15


def test_16qam_normalizer_brute_force():
    # average energy of the unnormalized alphabet, summed over all 16 points
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    pts = [complex(a, b) for a in levels for b in levels]
    es_unnorm = np.mean([abs(p) ** 2 for p in pts])
    assert es_unnorm == 10.0
    c = make_constellation(16)
    assert abs(c.scale - 1.0 / np.sqrt(es_unnorm)) < 1e-15
    assert np.allclose(c.pam_points / c.scale, levels)


def test_256qam_shape():
    c = make_constellation(256)
    assert c.n_pam == 16
    assert c.bits_per_symbol == 8


def test_unsupported_order():
    with pytest.raises(ValueError):
        make_constellation(8)


def test_bits_round_trip(qam256, rng):
    idx, _ = draw_symbols(qam256, (50,), rng)
    bits = qam256.bit_labels[idx]
    assert np.array_equal(symbol_indices_from_bits(qam256, bits), idx)


def test_axis_separability(qam16):
    # a bit's value must be a function of its own axis index only
    n = qam16.n_pam
    re_idx, im_idx = np.divmod(np.arange(qam16.order), n)
    for b in range(qam16.bits_per_symbol):
        axis = re_idx if b < qam16.axis_bits else im_idx
        vals = {}
        for i, a in enumerate(axis):
            vals.setdefault(a, set()).add(qam16.bit_labels[i, b])
        assert all(len(v) == 1 for v in vals.values())


def test_hard_decisions_recover_symbols(qam16, rng):
    idx, pts = draw_symbols(qam16, (200,), rng)
    noisy = pts + 0.01 * (rng.standard_normal(200) + 1j * rng.standard_normal(200))
    assert np.array_equal(hard_decision_indices(qam16, noisy), idx)
    # gain scaling moves the decision grid
    assert np.array_equal(hard_decision_indices(qam16, 0.5 * pts, gain=0.5), idx)


# gains the nearest-level count must handle as the argmin does: the
# harness's range, a subnormal-scale one, zero and a negative one
GAINS = (1.0, 0.37, 1e-300, 0.0, -0.6)


def _edge_probe(rng, levels):
    """(4, 6, 10) complex values whose real parts hold the scaled levels,
    the midpoints between neighbours and those midpoints one ulp either
    side, signed zeros, huge values, NaN and infinities, each once, and
    uniform draws on [-3, 3]; the imaginary parts are the same values
    shuffled. Parts are assigned, not summed, so -0.0 and the non-finite
    values stay on the axis they were put on."""
    mids = (levels[:-1] + levels[1:]) / 2.0
    parts = np.concatenate([levels, mids, np.nextafter(mids, np.inf),
                            np.nextafter(mids, -np.inf),
                            [0.0, -0.0, 1e20, -1e20, np.nan, np.inf, -np.inf]])
    parts = np.concatenate([parts, rng.uniform(-3.0, 3.0, 240 - parts.size)])
    v = np.empty(240, dtype=np.complex128)
    v.real, v.imag = parts, rng.permutation(parts)
    return v.reshape(4, 6, 10)


@pytest.mark.parametrize("gain", GAINS)
@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_hard_decisions_match_argmin_reference(order, layout, gain, rng):
    const = make_constellation(order)
    v = LAYOUTS[layout](_edge_probe(rng, gain * const.pam_points))
    before = v.copy()
    got = hard_decision_indices(const, v, gain)
    assert np.array_equal(got, _hard_decision_indices_reference(const, v,
                                                                gain))
    assert np.array_equal(v, before, equal_nan=True)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_stacked_hard_decisions_with_per_ue_gains_match_argmin_reference(
        order, rng):
    const = make_constellation(order)
    gains = np.concatenate([GAINS, rng.uniform(0.05, 1.0, 7)]).reshape(2, 6)
    v = np.stack([_edge_probe(rng, g * const.pam_points).reshape(-1)
                  for g in gains.ravel()]).reshape(2, 6, 240)
    got = hard_decision_indices(const, v, gains[..., None])
    assert got.shape == v.shape
    assert np.array_equal(got, _hard_decision_indices_reference(
        const, v, gains[..., None]))


def test_symbols_roughly_uniform(qam16, rng):
    idx, _ = draw_symbols(qam16, (40000,), rng)
    counts = np.bincount(idx, minlength=16)
    assert counts.min() > 0.8 * 40000 / 16
    assert counts.max() < 1.2 * 40000 / 16
