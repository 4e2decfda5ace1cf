"""Training the denoiser schedule by unrolling the detector.

Unrolls the K iterations, trains the per-iteration slope/spacing pair and
the soft-output normalizer with Adam on the bitwise cross-entropy, and
shows the result beating the box denoiser on held-out data. Ends with the
parameter store and its fallback ladder.
"""

import tempfile

import numpy as np

from gbcd import Scenario, TrainConfig, make_constellation, train
from gbcd.channel import gen_channel, transmit
from gbcd.constellation import hard_decision_indices
from gbcd.denoise import pme_denoiser
from gbcd.detector import gbcd_detect
from gbcd.unfolding import ParamStore

scen = Scenario(B=16, U=4, Q=16, snr_db=10.0, condition="nonlos")
K = 3
cfg = TrainConfig(n_train=800, n_val=800, batch_size=100, max_epochs=25,
                  seed=11)
print(f"training {scen.B}x{scen.U} {scen.Q}-QAM at {scen.snr_db} dB, "
      f"K={K} (2K+1 = {2 * K + 1} parameters)...")
params = train(scen, cfg, K)
print(f"slopes    rho  = {np.round(params.rho, 3)}")
print(f"spacings  beta = {np.round(params.beta, 3)} "
      f"(constellation scale is {make_constellation(16).scale:.3f})")
print(f"normalizer alpha = {params.alpha:.4f}")
print(f"meta: {params.meta}")

print("\n=== Held-out comparison against the box denoiser (paired data) ===")
const = make_constellation(16)
trained = dict(denoiser=pme_denoiser(const, params.rho, params.beta),
               alpha=params.alpha)
rng = np.random.default_rng(999)
err = {"box": 0, "pme": 0}
total = 0
for _ in range(100):
    ch = gen_channel(16, 4, "nonlos", rng)
    b = transmit(ch.H, const, 50, 10.0, rng)
    for mode, kw in (("box", {}), ("pme", trained)):
        soft, _, _ = gbcd_detect(ch.H, b.Y, b.N0, const, K, **kw)
        hard = hard_decision_indices(const, soft.v_final,
                                     soft.params.mu[:, None])
        err[mode] += int(np.sum(hard != b.symbol_indices))
    total += b.symbol_indices.size
print(f"box SER {err['box'] / total:.4f}   trained SER {err['pme'] / total:.4f}"
      f"   ({(err['box'] - err['pme']) / err['box']:.1%} fewer errors)")

print("\n=== Parameter store and fallbacks ===")
with tempfile.NamedTemporaryFile(suffix=".json") as f:
    store = ParamStore([params])
    store.save(f.name)
    store = ParamStore.load(f.name)
    for q in (10.0, 17.0, 30.0, -5.0):
        res = store.lookup(16, 4, K, 16, "nonlos", q)
        mode = "BOX" if res.params is None else "PME"
        print(f"lookup at {q:5.1f} dB -> {mode} fallback={res.fallback}")
