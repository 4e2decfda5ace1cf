import tracemalloc

import numpy as np
import pytest

from gbcd import fec


def make_cfg(rate="1/2", n_coded=240, seed=0):
    return fec.CodeConfig(rate, n_coded, interleaver_seed=seed)


def test_rate_bookkeeping():
    for rate, expect_in in (("1/2", 120), ("3/4", 180), ("5/6", 200)):
        cfg = make_cfg(rate)
        assert cfg.n_input == expect_in
        assert cfg.payload_bits == expect_in - 6
    # output/input ratio is exactly the reciprocal rate
    cfg = make_cfg("5/6")
    assert cfg.n_coded * 5 == cfg.n_input * 6


def test_bad_lengths_rejected():
    with pytest.raises(ValueError):
        fec.CodeConfig("3/4", 241)
    with pytest.raises(ValueError):
        fec.CodeConfig("7/8", 240)
    with pytest.raises(ValueError):
        fec.CodeConfig("1/2", 8)  # too short to terminate


def test_all_zero_codeword():
    cfg = make_cfg()
    out = fec.encode(np.zeros(cfg.payload_bits, dtype=np.uint8), cfg)
    assert not out.any()


def test_impulse_response_is_generator_taps():
    cfg = make_cfg("1/2", 40)
    imp = np.zeros(cfg.payload_bits, dtype=np.uint8)
    imp[0] = 1
    out = fec.encode(imp, cfg)
    assert list(out[0:14:2]) == [1, 0, 1, 1, 0, 1, 1]  # 133 octal, msb first
    assert list(out[1:14:2]) == [1, 1, 1, 1, 0, 0, 1]  # 171 octal, msb first


def _encode_reference(payload, cfg):
    """The row-by-row encoder: np.convolve with each generator's taps."""
    u = np.concatenate([payload, np.zeros(payload.shape[:-1] + (6,), dtype=np.uint8)],
                       axis=-1)
    mother = np.empty(u.shape[:-1] + (2 * cfg.n_input,), dtype=np.uint8)
    for i, gen in enumerate(fec.GENERATORS):
        mother[..., i::2] = np.apply_along_axis(
            lambda row: np.convolve(row, fec._taps(gen))[:cfg.n_input] % 2, -1, u)
    return mother[..., fec._keep_mask(cfg)]


@pytest.mark.parametrize("rate", fec.RATES)
def test_encode_matches_row_reference(rate, rng):
    cfg = make_cfg(rate)
    payload = rng.integers(0, 2, (3, 5, cfg.payload_bits)).astype(np.uint8)
    got = fec.encode(payload, cfg)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _encode_reference(payload, cfg))
    assert np.array_equal(fec.encode(payload[0, 0], cfg),
                          _encode_reference(payload[0, 0], cfg))


def test_linearity(rng):
    cfg = make_cfg()
    for _ in range(10):
        a = rng.integers(0, 2, cfg.payload_bits).astype(np.uint8)
        b = rng.integers(0, 2, cfg.payload_bits).astype(np.uint8)
        assert np.array_equal(fec.encode(a ^ b, cfg),
                              fec.encode(a, cfg) ^ fec.encode(b, cfg))


@pytest.mark.parametrize("rate", fec.RATES)
def test_depuncture_inverse_on_kept_positions(rate, rng):
    cfg = make_cfg(rate)
    llr = rng.standard_normal(cfg.n_coded)
    full = fec.depuncture(llr, cfg)
    mask = fec._keep_mask(cfg)
    assert np.array_equal(full[mask], llr)
    assert not full[~mask].any()


def test_unpunctured_llrs_pass_through(rng):
    cfg = make_cfg("1/2")
    llr = rng.standard_normal((2, cfg.n_coded))
    assert fec.depuncture(llr, cfg) is llr


def test_interleave_round_trip(rng):
    x = rng.standard_normal((100, 240))
    back = fec.deinterleave_llrs(fec.interleave(x, seed=5), seed=5)
    assert np.array_equal(back, x)


def test_deinterleave_into_out_matches_allocating_call(rng):
    x = rng.standard_normal((3, 4, 240))
    expect = fec.deinterleave_llrs(x, seed=5)
    out = np.full_like(x, np.nan)
    assert fec.deinterleave_llrs(x, 5, out=out) is out
    assert np.array_equal(out, expect)


def test_deinterleave_rejects_overlapping_or_misshapen_out(rng):
    x = rng.standard_normal((4, 240))
    with pytest.raises(ValueError, match="share no memory"):
        fec.deinterleave_llrs(x, 5, out=x)
    with pytest.raises(ValueError, match="share no memory"):
        fec.deinterleave_llrs(x[:, :120], 5, out=x[:, 60:180])
    with pytest.raises(ValueError, match="shape"):
        fec.deinterleave_llrs(x[0], 5, out=np.empty((4, 240)))


def test_interleaver_perm_cached_and_read_only():
    perm = fec._interleaver_perm(240, 7)
    assert fec._interleaver_perm(240, 7) is perm
    assert not perm.flags.writeable
    with pytest.raises(ValueError):
        perm[0] = 0
    assert np.array_equal(perm, np.random.default_rng(7).permutation(240))


def test_interleaver_determinism():
    x = np.arange(240)
    a = fec.interleave(x, seed=11)
    b = fec.interleave(x, seed=11)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, fec.interleave(x, seed=12))


def test_interleaver_fixed_points_poisson():
    # a uniform random permutation has one fixed point in expectation
    counts = []
    for seed in range(1000):
        perm = fec._interleaver_perm(240, seed)
        counts.append(np.sum(perm == np.arange(240)))
    mean = np.mean(counts)
    assert 0.8 < mean < 1.2


@pytest.mark.parametrize("rate", fec.RATES)
def test_noiseless_round_trip_batch(rate, rng):
    cfg = make_cfg(rate)
    payload = rng.integers(0, 2, (200, cfg.payload_bits)).astype(np.uint8)
    coded = fec.encode(payload, cfg)
    llrs = 20.0 * (2.0 * coded - 1.0)
    decoded, ok = fec.decode_batch(llrs, cfg, payload)
    assert ok.all()
    assert np.array_equal(decoded, payload)


def test_zero_llrs_produce_some_valid_path(rng):
    cfg = make_cfg()
    payload = rng.integers(0, 2, (8, cfg.payload_bits)).astype(np.uint8)
    decoded, ok = fec.decode_batch(np.zeros((8, cfg.n_coded)), cfg, payload)
    assert not ok.any()  # no information, recovery essentially impossible
    # decoder still emits well-formed bits
    assert set(np.unique(decoded)) <= {0, 1}


def test_single_block_wrapper(rng):
    # one block decodes as a one-row batch
    cfg = make_cfg()
    payload = rng.integers(0, 2, cfg.payload_bits).astype(np.uint8)
    llrs = 20.0 * (2.0 * fec.encode(payload, cfg) - 1.0)
    bits, ok = fec.decode_batch(llrs[None], cfg, payload[None])
    assert ok.tolist() == [True]
    assert np.array_equal(bits, payload[None])
    bits2, ok2 = fec.decode_batch(llrs[None], cfg)
    assert ok2 is None
    assert np.array_equal(bits2, payload[None])


def _hard_viterbi_oracle(hard_bits, cfg):
    """Classical hard-decision Viterbi with Hamming metric, plain loops."""
    pairs = hard_bits.reshape(-1, 2)
    n_states = 64
    INF = 10 ** 9
    metric = [INF] * n_states
    metric[0] = 0
    hist = []
    taps = [0o133, 0o171]
    for t in range(pairs.shape[0]):
        new = [INF] * n_states
        back = [None] * n_states
        for s in range(n_states):
            if metric[s] >= INF:
                continue
            for b in (0, 1):
                w = (b << 6) | s
                c0 = bin(w & taps[0]).count("1") & 1
                c1 = bin(w & taps[1]).count("1") & 1
                ns = w >> 1
                d = (c0 != pairs[t, 0]) + (c1 != pairs[t, 1])
                if metric[s] + d < new[ns]:
                    new[ns] = metric[s] + d
                    back[ns] = (s, b)
        metric = new
        hist.append(back)
    state = 0
    out = []
    for t in range(len(hist) - 1, -1, -1):
        s, b = hist[t][state]
        out.append(b)
        state = s
    return np.array(out[::-1], dtype=np.uint8)


def test_soft_decoder_matches_hard_oracle(rng):
    cfg = make_cfg("1/2", 60)
    for trial in range(5):
        payload = rng.integers(0, 2, cfg.payload_bits).astype(np.uint8)
        coded = fec.encode(payload, cfg)
        noisy = coded.copy()
        flips = rng.choice(cfg.n_coded, size=3, replace=False)
        noisy[flips] ^= 1
        llrs = 2.0 * noisy - 1.0
        soft_bits = fec.decode_batch(llrs[None], cfg)[0][0]
        hard_bits = _hard_viterbi_oracle(noisy, cfg)[:cfg.payload_bits]
        assert np.array_equal(soft_bits, hard_bits)


# ---------------------------------------------------------------------------
# butterfly decoder against a per-state argmax reference

def _reference_trellis():
    """For each next state: its two predecessors, the input bit, and the
    +/-1 signs of both output bits, indexed (generator, next state, j)."""
    states = np.arange(64)
    prev = np.empty((64, 2), dtype=np.int64)
    prev_bit = states >> 5
    prev[:, 0] = (states & 31) * 2
    prev[:, 1] = prev[:, 0] + 1
    sgn = np.empty((2, 64, 2))
    for j in range(2):
        w = (prev_bit << 6) | prev[:, j]
        for i, gen in enumerate(fec.GENERATORS):
            bits = np.array([bin(int(x) & gen).count("1") & 1 for x in w])
            sgn[i, :, j] = 2.0 * bits - 1.0
    return prev, prev_bit, sgn


def _viterbi_reference(llr_pairs):
    """Max-log Viterbi with a gather, argmax and take_along_axis over both
    predecessors of every state; terminated blocks."""
    prev, prev_bit, sgn = _reference_trellis()
    nb, n_steps, _ = llr_pairs.shape
    metric = np.full((nb, 64), -1e30)
    metric[:, 0] = 0.0
    choice = np.empty((nb, n_steps, 64), dtype=np.uint8)
    for t in range(n_steps):
        bm = (llr_pairs[:, t, 0, None, None] * sgn[0]
              + llr_pairs[:, t, 1, None, None] * sgn[1])
        cand = metric[:, prev] + bm
        best = cand.argmax(axis=2)
        choice[:, t] = best
        metric = np.take_along_axis(cand, best[:, :, None], axis=2)[:, :, 0]
    decoded = np.empty((nb, n_steps), dtype=np.uint8)
    state = np.zeros(nb, dtype=np.int64)
    rows = np.arange(nb)
    for t in range(n_steps - 1, -1, -1):
        decoded[:, t] = prev_bit[state]
        state = prev[state, choice[rows, t, state]]
    return decoded


@pytest.mark.parametrize("n_blocks", [1, 16, 96])
@pytest.mark.parametrize("rate", fec.RATES)
@pytest.mark.parametrize("kind", ["float", "integer", "zero"])
def test_butterfly_decoder_matches_reference(kind, rate, n_blocks, rng):
    cfg = make_cfg(rate)
    shape = (n_blocks, cfg.n_coded)
    if kind == "float":
        llrs = 3.0 * rng.standard_normal(shape)
    elif kind == "integer":   # equal candidate metrics: ties everywhere
        llrs = rng.integers(-2, 3, shape).astype(np.float64)
    else:
        llrs = np.zeros(shape)
    pairs = fec.depuncture(llrs, cfg).reshape(n_blocks, cfg.n_input, 2)
    got = fec._viterbi_batch(pairs)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _viterbi_reference(pairs))


def test_butterfly_decoder_uneven_chunks(rng):
    # step counts around the decision-chunk length
    for n_steps in (1, fec._CHUNK - 1, fec._CHUNK, fec._CHUNK + 1, 7 * fec._CHUNK + 3):
        pairs = rng.standard_normal((5, n_steps, 2))
        assert np.array_equal(fec._viterbi_batch(pairs), _viterbi_reference(pairs))


@pytest.mark.parametrize("n_blocks", [128, 130])
@pytest.mark.parametrize("kind", ["float", "wide", "integer", "zero"])
def test_butterfly_decoder_matches_reference_at_design_size(kind, n_blocks, rng):
    # a full decode group, and one past it, over an uneven last chunk
    shape = (n_blocks, 483, 2)
    if kind == "float":
        pairs = 3.0 * rng.standard_normal(shape)
    elif kind == "wide":      # about the range of 256-QAM LLRs
        pairs = 300.0 * rng.standard_normal(shape)
    elif kind == "integer":
        pairs = rng.integers(-2, 3, shape).astype(np.float64)
    else:
        pairs = np.zeros(shape)
    assert np.array_equal(fec._viterbi_batch(pairs), _viterbi_reference(pairs))


def test_float32_metrics_match_reference_on_long_blocks(rng):
    # float32 metrics without the per-chunk rescale drift from the float64
    # oracle in a few of these blocks
    pairs = 30.0 * rng.standard_normal((128, 4000, 2))
    assert np.array_equal(fec._viterbi_batch(pairs), _viterbi_reference(pairs))


def test_decode_batch_memory_peak(rng):
    # 128 blocks x 960 rate-1/2 LLRs, a full decode group at 256-QAM: the
    # traced peak stays within 64 KB of the 868 KB the float32 decoder holds
    cfg = make_cfg("1/2", n_coded=960)
    llrs = 3.0 * rng.standard_normal((128, cfg.n_coded))
    fec.decode_batch(llrs[:2], cfg)
    tracemalloc.start()
    try:
        fec.decode_batch(llrs, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (868 + 64) * 1024


def test_generators_must_tap_newest_and_oldest_bit(monkeypatch):
    monkeypatch.setattr(fec, "GENERATORS", (0o133, 0o170))   # no oldest tap
    with pytest.raises(ValueError, match="register bit"):
        fec._butterfly_signs()
    monkeypatch.setattr(fec, "GENERATORS", (0o033, 0o171))   # no newest tap
    with pytest.raises(ValueError, match="register bit"):
        fec._butterfly_signs()


def test_decode_batch_rejects_truth_of_other_shape(rng):
    cfg = make_cfg()
    payload = rng.integers(0, 2, (4, cfg.payload_bits)).astype(np.uint8)
    llrs = 20.0 * (2.0 * fec.encode(payload, cfg) - 1.0)
    _, ok = fec.decode_batch(llrs, cfg, payload)
    assert ok.all()
    for bad in (payload[0], payload[:1], payload[:, :-1]):
        with pytest.raises(ValueError, match="truth shape"):
            fec.decode_batch(llrs, cfg, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_batch_rejects_non_finite_llrs(bad, rng):
    cfg = make_cfg()
    payload = rng.integers(0, 2, (4, cfg.payload_bits)).astype(np.uint8)
    llrs = 20.0 * (2.0 * fec.encode(payload, cfg) - 1.0)
    llrs[2, 17] = bad
    llrs[3, 0] = bad
    with pytest.raises(ValueError, match="non-finite LLR in block 2"):
        fec.decode_batch(llrs, cfg, payload)
    with pytest.raises(ValueError, match="non-finite LLR in block 0"):
        fec.decode_batch(llrs[3:], cfg, payload[3:])


def test_decode_batch_rejects_llrs_beyond_the_limit(rng):
    cfg = make_cfg()
    payload = rng.integers(0, 2, (4, cfg.payload_bits)).astype(np.uint8)
    llrs = 20.0 * (2.0 * fec.encode(payload, cfg) - 1.0)
    llrs[2, 17] = 1e21
    llrs[3, 0] = -1e21
    with pytest.raises(ValueError, match="beyond .*1e\\+20 in block 2"):
        fec.decode_batch(llrs, cfg, payload)
    with pytest.raises(ValueError, match="beyond .*1e\\+20 in block 0"):
        fec.decode_batch(llrs[3:], cfg, payload[3:])
    llrs[2, 17] = llrs[3, 0] = fec.LLR_LIMIT
    _, ok = fec.decode_batch(llrs, cfg, payload)
    assert ok[:2].all()
