"""One detection front end per stack: detectors that share a stack's
``detector.FrontEnd`` get bit for bit what each gets alone, and the harness
forms the Gram matrix, the matched filter and each preprocessing once per
stack and numeric context."""

import json

import numpy as np
import pytest

from gbcd import baselines, denoise, detector, harness, hwmodel
from gbcd.channel import apply_channel, gen_channel, noise_variance_for_snr
from gbcd.constellation import make_constellation
from gbcd.harness import (ABLATION_VARIANTS, DETECTOR_SPECS, PME_SOURCES,
                          ExperimentConfig, run_ablation, run_sweep)

B, U, T, K = 16, 4, 24, 3


def _stack(Q=16, n=3):
    """n channels (n, B, U) at their own SNRs, with receive blocks
    (n, B, T) and noise variances (n,)."""
    rng = np.random.default_rng([Q, n])
    const = make_constellation(Q)
    H = np.stack([gen_channel(B, U, "nonlos", rng) for _ in range(n)])
    N0 = np.array([noise_variance_for_snr(h, s)
                   for h, s in zip(H, rng.uniform(2.0, 14.0, n))])
    Y = np.stack([apply_channel(h, const.points[rng.integers(0, Q, (U, T))],
                                n0, rng) for h, n0 in zip(H, N0)])
    return const, H, Y, N0


def _runners(specs, const, fixed_point):
    """The harness's runner of every spec; each PME source gets its own
    schedule."""
    cfg = ExperimentConfig.from_dict(dict(
        B=B, U=U, Q=const.order, snr_db=[8.0], condition="nonlos",
        detectors=["gbcd-box"], K=K, seed=1, T=T, uncoded=True,
        fixed_point=fixed_point))
    pme = {s: [(denoise.pme_denoiser(const, np.full(K, i + 1.0) / const.scale,
                                     np.full(K, const.scale)), 0.05 * (i + 1))]
           for i, s in enumerate(PME_SOURCES)}
    return {name: harness._runner(spec, cfg, const, pme, 0)
            for name, spec in specs.items()}


def _alone(H, Y, N0):
    """A front end of its own for every call: what a detector called
    without one builds."""
    return lambda numerics: detector.FrontEnd(H, Y, N0, numerics)


def _assert_same(got, want):
    (soft, hard), (soft_ref, hard_ref) = got, want
    assert np.array_equal(soft.llrs, soft_ref.llrs)
    assert np.array_equal(soft.v_final, soft_ref.v_final)
    assert np.array_equal(soft.params.mu, soft_ref.params.mu)
    assert np.array_equal(soft.params.xi, soft_ref.params.xi)
    assert np.array_equal(hard, hard_ref)


ABLATION_SPECS = dict(ABLATION_VARIANTS)
CASES = {
    "sweep-float": (DETECTOR_SPECS, False),
    # gbcd-box and gbcd-pme in fixed point, lmmse and ocd in float
    "sweep-fixed": (DETECTOR_SPECS, True),
    "ablate-float": (ABLATION_SPECS, False),
    "ablate-fixed": (ABLATION_SPECS, True),
}


@pytest.mark.parametrize("order", ["listed", "reversed"])
@pytest.mark.parametrize("case", CASES)
def test_sharing_the_front_end_changes_no_result(case, order):
    specs, fixed_point = CASES[case]
    const, H, Y, N0 = _stack()
    runners = _runners(specs, const, fixed_point)
    names = list(runners)[::-1 if order == "reversed" else 1]
    if order == "reversed" and specs is DETECTOR_SPECS:
        assert names[:2] == ["ocd", "lmmse"]
    front = harness._front_ends(H, Y, N0)
    shared = {name: runners[name](front) for name in names}
    for name in names:
        _assert_same(shared[name], runners[name](_alone(H, Y, N0)))


@pytest.mark.parametrize("fixed_point", [False, True], ids=["float", "fixed"])
def test_detector_without_front_end_equals_one_with_it(fixed_point):
    const, H, Y, N0 = _stack(Q=64)
    numerics = hwmodel.FIXED_POINT if fixed_point else detector.FLOAT
    fe = detector.FrontEnd(H, Y, N0, numerics)
    got = detector.gbcd_detect(H, Y, N0, const, K, numerics=numerics,
                               front=fe)[0]
    want = detector.gbcd_detect(H, Y, N0, const, K, numerics=numerics)[0]
    assert np.array_equal(got.llrs, want.llrs)
    assert np.array_equal(got.v_final, want.v_final)
    fe = detector.FrontEnd(H, Y, N0)
    for detect in (lambda **kw: baselines.lmmse_detect(H, Y, N0, const, **kw),
                   lambda **kw: baselines.ocd_detect(H, Y, N0, K, const,
                                                     **kw)):
        got, want = detect(front=fe), detect()
        assert np.array_equal(got.llrs, want.llrs)
        assert np.array_equal(got.params.mu, want.params.mu)


def test_front_end_of_other_inputs_or_context_is_refused():
    const, H, Y, N0 = _stack()
    fe = detector.FrontEnd(H, Y, N0)
    with pytest.raises(ValueError, match="front end"):
        detector.gbcd_detect(H.copy(), Y, N0, const, K, front=fe)
    with pytest.raises(ValueError, match="front end"):
        hwmodel.detect_fixed_point(H, Y, N0, const, K, front=fe)
    with pytest.raises(ValueError, match="front end"):
        baselines.lmmse_detect(H, Y, N0, const,
                               front=detector.FrontEnd(H, Y, N0,
                                                       hwmodel.FIXED_POINT))


def test_preprocess_from_a_given_gram_matrix_equals_preprocess():
    _, H, _, N0 = _stack()
    for numerics in (detector.FLOAT, hwmodel.FIXED_POINT):
        Hq = numerics.quantize("h", H)
        G = numerics.quantize("g", detector.gram(Hq))
        for L, sort in ((1, False), (2, True)):
            got = detector.preprocess(Hq, N0, L=L, sort=sort,
                                      numerics=numerics, G=G)
            want = detector.preprocess(Hq, N0, L=L, sort=sort,
                                       numerics=numerics)
            for f in ("G", "Gp", "inv_sinr", "blocks", "kinv", "N0"):
                assert np.array_equal(getattr(got, f), getattr(want, f)), f


# ---------------------------------------------------------------------------
# work per stack in the harness

FRONT_END_WORK = ("detector.gram", "detector.matched_filter",
                  "detector.preprocess", "detector._permuted_gram")

# (mode, detectors, fixed point) -> gram, matched filter, preprocess and
# update-order Gram calls per stack: one Gram matrix per numeric context,
# one matched filter per context whose detectors read it, one
# preprocessing per (context, L, sort), each permuting its Gram matrix
# once for every detector that equalizes on it (gbcd-box and gbcd-pme
# share one); OCD reads the float (1, unsorted) preprocessing
PER_STACK = [
    ("sweep", ["gbcd-box", "gbcd-pme", "lmmse", "ocd"], False, (1, 1, 2, 2)),
    ("sweep", ["lmmse", "ocd", "gbcd-box", "gbcd-pme"], True, (2, 2, 2, 2)),
    ("sweep", ["ocd"], False, (1, 1, 1, 1)),
    ("ablate", None, False, (1, 1, 4, 4)),
    ("ablate", None, True, (1, 1, 4, 4)),
]


@pytest.mark.parametrize("coded", [False, True], ids=["uncoded", "coded"])
@pytest.mark.parametrize("mode, detectors, fixed_point, want", PER_STACK,
                         ids=["sweep-float", "sweep-fixed", "sweep-ocd",
                              "ablate-float", "ablate-fixed"])
def test_front_end_work_once_per_stack(mode, detectors, fixed_point, want,
                                       coded, count_calls, monkeypatch,
                                       tmp_path):
    store = tmp_path / "store.json"
    store.write_text(json.dumps({"records": [{
        "scenario": {"B": 16, "U": 4, "K": K, "Q": 16,
                     "condition": "nonlos", "snr_db": 8.0},
        "rho": [4.0, 5.0, 6.0], "beta": [0.316] * K, "alpha": 0.05,
        "meta": {}}]}))
    cfg = ExperimentConfig.from_dict(dict(
        B=16, U=4, Q=16, snr_db=[8.0], condition="nonlos", K=K, seed=3,
        T=120, trials=3, min_block_errors=10**6, uncoded=not coded,
        fixed_point=fixed_point, params_path=str(store),
        detectors=detectors or ["gbcd-box"]))
    calls = count_calls(FRONT_END_WORK)
    per_stack = []
    detect = harness._detect

    def counting_detect(*args):
        before = dict(calls)
        out = detect(*args)
        per_stack.append(tuple(calls[k] - before[k] for k in FRONT_END_WORK))
        return out

    monkeypatch.setattr(harness, "_detect", counting_detect)
    # two trials per stack: stacks of two and one
    monkeypatch.setattr(harness, "DETECT_SAMPLES", 2 * 16 * 120)
    if mode == "sweep":
        run_sweep(cfg)
    else:
        run_ablation(cfg)
    assert per_stack == [want, want]
