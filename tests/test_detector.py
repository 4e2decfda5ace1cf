import math

import numpy as np
import pytest

from gbcd import denoise, detector, hwmodel
from gbcd.channel import gen_channel, transmit

from channel_reference import draw_symbols
from conftest import random_channel
from datapath_reference import _gbcd_equalize_reference


# ---------------------------------------------------------------------------
# gram / matched filter

def test_gram_identity():
    H = np.eye(4, dtype=complex)
    assert np.allclose(detector.gram(H), np.eye(4))


def test_gram_orthogonal_columns(rng):
    q, _ = np.linalg.qr(random_channel(rng, 8, 3))
    H = 2.0 * q
    assert np.allclose(detector.gram(H), 4.0 * np.eye(3), atol=1e-12)


def test_gram_vs_naive_oracle(rng):
    H = random_channel(rng, 6, 3)
    G = detector.gram(H)
    naive = np.zeros((3, 3), dtype=complex)
    for i in range(3):
        for j in range(3):
            for b in range(6):
                naive[i, j] += np.conj(H[b, i]) * H[b, j]
    assert np.max(np.abs(G - naive)) < 1e-12
    assert np.max(np.abs(G - G.conj().T)) == 0.0
    assert np.all(G.diagonal().imag == 0.0)


def test_matched_filter_trivials(rng):
    q, _ = np.linalg.qr(random_channel(rng, 8, 3))
    assert np.allclose(detector.matched_filter(q, q[:, 1]),
                       np.eye(3)[1], atol=1e-12)
    assert np.array_equal(detector.matched_filter(q, np.zeros(8, complex)),
                          np.zeros(3))


def test_matched_filter_vs_naive(rng):
    H = random_channel(rng, 6, 4)
    y = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    naive = np.array([np.sum(np.conj(H[:, u]) * y) for u in range(4)])
    assert np.max(np.abs(detector.matched_filter(H, y) - naive)) < 1e-12


# ---------------------------------------------------------------------------
# reciprocal SINR and sorting

def test_reciprocal_sinr_identity_gram():
    G = np.eye(5, dtype=complex)
    out = detector.reciprocal_sinr(G, N0=0.1)
    assert np.allclose(out, 0.1)


def test_reciprocal_sinr_hand_case():
    G = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    out = detector.reciprocal_sinr(G, N0=1.0)
    assert np.allclose(out, [0.75, 0.75])


def test_reciprocal_sinr_rejects_bad_diagonal():
    G = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        detector.reciprocal_sinr(G, 0.1)


def test_sinr_ordering_invariant_under_common_scale(rng):
    H = random_channel(rng, 16, 8)
    G = detector.gram(H)
    a = detector.reciprocal_sinr(G, 0.2)
    G2 = detector.gram(3.0 * H)
    b = detector.reciprocal_sinr(G2, 0.2)
    assert np.array_equal(np.argsort(a, kind="stable"),
                          np.argsort(b, kind="stable"))


def test_sort_identity_cases():
    assert np.array_equal(detector.sort_ues(np.arange(8.0)), np.arange(8))
    assert np.array_equal(detector.sort_ues(np.ones(8)), np.arange(8))


def test_sort_matches_stable_argsort(rng):
    for n in (4, 8, 16, 6, 10):
        for _ in range(20):
            x = rng.integers(0, 5, n).astype(float)  # ties likely
            assert np.array_equal(detector.sort_ues(x),
                                  np.argsort(x, kind="stable"))
    # a stack sorts each channel's row on its own; ties keep UE order
    x = rng.integers(0, 3, (7, 6)).astype(float)
    x[0] = 1.0
    expect = np.stack([np.argsort(row, kind="stable") for row in x])
    assert np.array_equal(detector.sort_ues(x), expect)
    assert np.array_equal(detector.sort_ues(x)[0], np.arange(6))


# ---------------------------------------------------------------------------
# block inverses

def test_block_inverse_identity():
    G = np.eye(4, dtype=complex)
    kinv = detector.block_inverses(G, np.array([[0, 1], [2, 3]]))
    assert np.allclose(kinv, np.stack([np.eye(2), np.eye(2)]))


def test_block_inverse_diagonal():
    G = np.diag([2.0, 4.0]).astype(complex)
    kinv = detector.block_inverses(G, np.array([[0, 1]]))
    assert np.allclose(kinv[0], np.diag([0.5, 0.25]))


def test_block_inverse_vs_adjugate_oracle(rng):
    for _ in range(50):
        a = rng.uniform(0.5, 3.0)
        d = rng.uniform(0.5, 3.0)
        b = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
        Gb = np.array([[a, b], [np.conj(b), d]])
        G = np.zeros((2, 2), dtype=complex)
        G[:] = Gb
        kinv = detector.block_inverses(G, np.array([[0, 1]]))[0]
        det = a * d - abs(b) ** 2
        adj = np.array([[d, -b], [-np.conj(b), a]]) / det
        assert np.max(np.abs(kinv - adj)) < 1e-12
        assert np.max(np.abs(kinv @ Gb - np.eye(2))) < 1e-8


def test_singular_block_regularized():
    G = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    reg = []
    kinv = detector.block_inverses(G, np.array([[0, 1]]), regularized=reg)
    assert reg == [0]
    assert np.all(np.isfinite(kinv))


# ---------------------------------------------------------------------------
# preprocessing contracts

def test_preprocess_invariants(rng):
    H = random_channel(rng, 16, 8)
    pre = detector.preprocess(H, 0.05, L=2)
    assert np.max(np.abs(pre.G - pre.G.conj().T)) < 1e-10 * np.abs(pre.G).max()
    assert np.all(pre.G.diagonal().real > 0)
    assert np.array_equal(np.sort(pre.perm), np.arange(8))
    sorted_vals = pre.inv_sinr[pre.perm]
    assert np.all(np.diff(sorted_vals) >= 0)
    for m in range(pre.M):
        A = pre.blocks[m]
        Gb = pre.G[np.ix_(A, A)]
        assert np.max(np.abs(pre.kinv[m] @ Gb - np.eye(2))) < 1e-8
    # every UE appears in exactly one block
    assert np.array_equal(np.sort(pre.blocks.ravel()), np.arange(8))


PREPROC_FIELDS = ("G", "inv_sinr", "perm", "blocks", "kinv")


def _assert_matches_per_channel(pre, H, N0, L, sort):
    for i in range(H.shape[0]):
        one = detector.preprocess(H[i], N0[i], L=L, sort=sort)
        for f in PREPROC_FIELDS:
            assert np.array_equal(getattr(pre, f)[i], getattr(one, f)), (f, i)
        assert pre.N0[i] == one.N0
        assert pre.L == one.L
        M = one.M
        assert [m - i * M for m in pre.regularized if m // M == i] \
            == one.regularized


@pytest.mark.parametrize("U, L, sort", [(8, 1, True), (8, 2, True),
                                        (8, 4, True), (8, 2, False),
                                        (6, 2, True)])
def test_batched_preprocess_matches_per_channel(U, L, sort, rng):
    H = np.stack([random_channel(rng, 16, U) for _ in range(6)])
    N0 = 10 ** rng.uniform(-3, 0, 6)
    pre = detector.preprocess(H, N0, L=L, sort=sort)
    assert pre.U == U and pre.M == 6 * (U // L)
    assert pre.regularized == []
    _assert_matches_per_channel(pre, H, N0, L, sort)
    # any leading shape: a (2, 3) grid of channels gives the same numbers
    grid = detector.preprocess(H.reshape(2, 3, 16, U), N0.reshape(2, 3),
                               L=L, sort=sort)
    for f in PREPROC_FIELDS:
        value = getattr(grid, f)
        assert np.array_equal(value.reshape((6,) + value.shape[2:]),
                              getattr(pre, f))


def _block_submatrices_reference(G, blocks):
    """G[..., blocks[..., m, i], blocks[..., m, j]] gathered with two
    take_along_axis calls, one per axis."""
    M, L = blocks.shape[-2:]
    rows = np.take_along_axis(
        G, blocks.reshape(blocks.shape[:-2] + (M * L, 1)), axis=-2)
    rows = rows.reshape(blocks.shape + (G.shape[-1],))
    return np.take_along_axis(rows, blocks[..., None, :], axis=-1)


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("L", [1, 2, 4])
def test_flat_gathers_match_take_along_axis(L, lead, rng):
    # the equalizer's permuted G and the block inverses' submatrices keep
    # the values and the strides (column-major per channel for the
    # permuted G) of the take_along_axis gathers
    H = random_channel(rng, 16, 8) if not lead else np.stack(
        [random_channel(rng, 16, 8) for _ in range(np.prod(lead))]
    ).reshape(lead + (16, 8))
    pre = detector.preprocess(H, np.full(lead, 0.1), L=L)
    got = detector._permuted_gram(pre.G, pre.perm)
    want = _block_submatrices_reference(
        pre.G.swapaxes(-1, -2),
        pre.perm[..., None, :])[..., 0, :, :].swapaxes(-1, -2)
    assert np.array_equal(got, want)
    assert got.strides == want.strides
    got = detector._gather(pre.G, pre.blocks[..., :, None],
                           pre.blocks[..., None, :])
    want = _block_submatrices_reference(pre.G, pre.blocks)
    assert np.array_equal(got, want)
    assert got.strides == want.strides


@pytest.mark.parametrize("L", [2, 4])
def test_batched_preprocess_flags_singular_blocks_mid_batch(L, rng):
    # Channel 2 has equal all-ones columns: G = 16 * ones exactly, so every
    # one of its blocks is singular (the dense L = 4 solve hits a zero pivot).
    H = np.stack([random_channel(rng, 16, 8) for _ in range(5)])
    H[2] = 1.0
    N0 = np.full(5, 0.1)
    pre = detector.preprocess(H, N0, L=L, sort=False)
    M = 8 // L
    assert pre.regularized == list(range(2 * M, 3 * M))
    assert len(pre.regularized) / pre.M == 1 / 5
    assert np.all(np.isfinite(pre.kinv))
    _assert_matches_per_channel(pre, H, N0, L, False)


def test_batched_matched_filter_matches_per_channel(rng):
    H = np.stack([random_channel(rng, 16, 4) for _ in range(3)])
    y = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    Y = rng.standard_normal((3, 16, 5)) + 1j * rng.standard_normal((3, 16, 5))
    vec = detector.matched_filter(H, y)
    mat = detector.matched_filter(H, Y)
    assert vec.shape == (3, 4) and mat.shape == (3, 4, 5)
    for i in range(3):
        assert np.array_equal(vec[i], detector.matched_filter(H[i], y[i]))
        assert np.array_equal(mat[i], detector.matched_filter(H[i], Y[i]))


@pytest.mark.parametrize("fixed", [False, True], ids=["float", "fixed"])
@pytest.mark.parametrize("T", [1, 5])
@pytest.mark.parametrize("U, L", [(6, 1), (6, 2), (12, 1), (12, 2), (12, 4)])
def test_stacked_equalizer_matches_per_channel(U, L, T, fixed, qam16, rng):
    numerics = hwmodel.FIXED_POINT if fixed else detector.FLOAT
    n = 5
    H = np.stack([random_channel(rng, 16, U) for _ in range(n)])
    # channel 3: nearly equal columns, so every 2x2 block is near-singular
    H[3] = 1.0 + 1e-6 * random_channel(rng, 16, U)
    H = numerics.quantize("h", H)
    N0 = 10 ** rng.uniform(-2, 0, n)
    Y = rng.standard_normal((n, 16, T)) + 1j * rng.standard_normal((n, 16, T))
    if T == 1:
        Y = Y[..., 0]
    y_mf = numerics.quantize("ymf", detector.matched_filter(H, Y))
    den = denoise.pme_denoiser(qam16, [2.0, 3.0, 4.0],
                               qam16.scale * np.array([0.9, 1.0, 1.1]))

    def run(pre, y):
        snaps = []
        st = detector.gbcd_equalize(
            pre, y, 3, den, numerics=numerics,
            trace_hook=lambda k, m, z, r: snaps.append((k, m, z, r)))
        return st, snaps

    pre = detector.preprocess(H, N0, L=L, numerics=numerics)
    if L == 2:
        assert 3 * (U // 2) in pre.regularized
    st, snaps = run(pre, y_mf)
    assert st.z.shape == y_mf.shape
    assert [s[:2] for s in snaps] == [(k, m) for k in range(3)
                                      for m in range(U // L)]
    for i in range(n):
        one = detector.preprocess(H[i], N0[i], L=L, numerics=numerics)
        st_i, snaps_i = run(one, y_mf[i])
        for f in ("z", "r", "v_last"):
            assert np.array_equal(getattr(st, f)[i], getattr(st_i, f)), f
        assert [s[:2] for s in snaps_i] == [s[:2] for s in snaps]
        for (_, _, z, r), (_, _, z_i, r_i) in zip(snaps, snaps_i):
            assert np.array_equal(z[i], z_i) and np.array_equal(r[i], r_i)


def test_indivisible_block_size(rng):
    H = random_channel(rng, 8, 5)
    with pytest.raises(ValueError):
        detector.preprocess(H, 0.1, L=2)


# ---------------------------------------------------------------------------
# equalizer

def test_orthogonal_noiseless_one_iteration(qam16, rng):
    q, _ = np.linalg.qr(random_channel(rng, 16, 4))
    H = np.sqrt(16.0) * q
    idx, s = draw_symbols(qam16, (4,), rng)
    y = H @ s
    pre = detector.preprocess(H, 1e-9, L=2)
    st = detector.gbcd_equalize(pre, detector.matched_filter(H, y), 1,
                                denoise.box_denoiser(qam16))
    assert np.max(np.abs(st.z - s)) < 1e-10
    assert np.max(np.abs(st.v_last - s)) < 1e-10


def test_k_zero_rejected(qam16, rng):
    H = random_channel(rng, 8, 4)
    pre = detector.preprocess(H, 0.1)
    with pytest.raises(ValueError):
        detector.gbcd_equalize(pre, np.zeros(4, complex), 0,
                               denoise.box_denoiser(qam16))


def _direct_bcd(H, y, K, den, pre):
    """Reference implementation solving the per-block least squares from the
    channel matrix and receive vector every inner iteration."""
    U = H.shape[1]
    z = np.zeros(U, dtype=complex)
    v_last = np.zeros(U, dtype=complex)
    for k in range(K):
        for m in range(pre.M):
            A = pre.blocks[m]
            HA = H[:, A]
            resid = y - H @ z + HA @ z[A]
            v = np.linalg.solve(HA.conj().T @ HA, HA.conj().T @ resid)
            if k == K - 1:
                v_last[A] = v
            z[A] = den.apply(v, k)
    return z, v_last


def test_gram_domain_equivalence_small_instance(qam16, rng):
    H = random_channel(rng, 8, 4)
    y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    den = denoise.box_denoiser(qam16)
    pre = detector.preprocess(H, 0.1, L=2)
    st = detector.gbcd_equalize(pre, detector.matched_filter(H, y), 3, den)
    z2, v2 = _direct_bcd(H, y, 3, den, pre)
    scale = max(1.0, np.abs(z2).max())
    assert np.max(np.abs(st.z - z2)) / scale < 1e-8
    assert np.max(np.abs(st.v_last - v2)) / scale < 1e-8


def test_gram_domain_equivalence_randomized(qam16, rng):
    for _ in range(100):
        U = int(rng.integers(1, 5)) * 2
        B = int(rng.integers(U, 17))
        L = int(rng.choice([1, 2]))
        K = int(rng.integers(1, 5))
        H = random_channel(rng, B, U)
        y = rng.standard_normal(B) + 1j * rng.standard_normal(B)
        if rng.random() < 0.5:
            den = denoise.box_denoiser(qam16)
        else:
            den = denoise.pme_denoiser(qam16, rng.uniform(0.5, 4.0, K),
                                       qam16.scale * rng.uniform(0.7, 1.3, K))
        pre = detector.preprocess(H, 10 ** rng.uniform(-3, 0), L=L)
        st = detector.gbcd_equalize(pre, detector.matched_filter(H, y), K, den)
        z2, v2 = _direct_bcd(H, y, K, den, pre)
        scale = max(1.0, np.abs(z2).max())
        assert np.max(np.abs(st.z - z2)) / scale < 1e-8
        assert np.max(np.abs(st.v_last - v2)) / scale < 1e-8


def test_residual_identity_after_every_inner_step(qam16, rng):
    H = random_channel(rng, 12, 6)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    pre = detector.preprocess(H, 0.1, L=2)
    y_mf = detector.matched_filter(H, y)
    checks = []

    def hook(k, m, z, r):
        expected = y_mf[:, None] - pre.G @ z
        checks.append(np.max(np.abs(r - expected)) / max(1.0, np.abs(expected).max()))

    detector.gbcd_equalize(pre, y_mf, 3, denoise.box_denoiser(qam16),
                           trace_hook=hook)
    assert len(checks) == 3 * pre.M
    assert max(checks) < 1e-8


def test_monotone_error_on_orthogonal_noiseless(qam16, rng):
    q, _ = np.linalg.qr(random_channel(rng, 16, 4))
    H = np.sqrt(16.0) * q
    idx, s = draw_symbols(qam16, (4,), rng)
    y = H @ s
    pre = detector.preprocess(H, 1e-12, L=2)
    y_mf = detector.matched_filter(H, y)
    errs = []
    for K in (1, 2, 3, 4):
        st = detector.gbcd_equalize(pre, y_mf, K, denoise.box_denoiser(qam16))
        errs.append(np.linalg.norm(st.z - s))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_batched_equalize_matches_loop(qam16, rng):
    H = random_channel(rng, 12, 4)
    Y = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
    pre = detector.preprocess(H, 0.1)
    den = denoise.box_denoiser(qam16)
    batch = detector.gbcd_equalize(pre, detector.matched_filter(H, Y), 3, den)
    for t in range(5):
        single = detector.gbcd_equalize(
            pre, detector.matched_filter(H, Y[:, t]), 3, den)
        assert np.max(np.abs(batch.z[:, t] - single.z)) < 1e-12
        assert np.max(np.abs(batch.v_last[:, t] - single.v_last)) < 1e-12


@pytest.mark.parametrize("T", [None, 1, 5])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_equalizer_matches_take_along_axis_reference(lead, T, qam16, rng):
    # the flat row gathers into and out of update order against the
    # take_along_axis permutations, float and fixed point, box and PME
    B, U, K = 12, 6, 3
    H = random_channel(rng, math.prod(lead) * B, U).reshape(lead + (B, U))
    shape = lead + (B,) if T is None else lead + (B, T)
    y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pre = detector.preprocess(H, rng.uniform(0.05, 0.2, lead))
    y_mf = detector.matched_filter(H, y)
    pme = denoise.pme_denoiser(qam16, [1.0, 2.0, 3.0], [0.3, 0.3, 0.35])
    for numerics in (detector.FLOAT, hwmodel.FIXED_POINT):
        for den in (denoise.box_denoiser(qam16), pme):
            got = detector.gbcd_equalize(pre, y_mf, K, den, numerics=numerics)
            want = _gbcd_equalize_reference(pre, y_mf, K, den, numerics)
            for field in ("z", "r", "v_last"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.shape == b.shape and np.array_equal(a, b), field


def test_detect_end_to_end_noiseless(qam16, rng):
    H = gen_channel(16, 4, "nonlos", rng)
    b = transmit(H, qam16, 6, 60.0, rng)
    soft, st, pre = detector.gbcd_detect(H, b.Y, b.N0, qam16, 3)
    signs = soft.llrs > 0
    bits = np.moveaxis(b.bits, 2, 1).astype(bool)  # (U, m, T)
    assert np.array_equal(signs, bits)


def test_generic_block_size_four(qam16, rng):
    # the shipped configuration is L=2, but the solver is generic over L
    H = random_channel(rng, 12, 4)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    den = denoise.box_denoiser(qam16)
    pre = detector.preprocess(H, 0.1, L=4)
    assert pre.M == 1
    st = detector.gbcd_equalize(pre, detector.matched_filter(H, y), 2, den)
    z2, v2 = _direct_bcd(H, y, 2, den, pre)
    assert np.max(np.abs(st.z - z2)) < 1e-8
    assert np.max(np.abs(st.v_last - v2)) < 1e-8
