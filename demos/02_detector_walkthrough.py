"""The block-coordinate-descent detector, stage by stage.

Shows the once-per-channel preprocessing (Gram matrix, reciprocal SINR
metric, UE ordering, per-block inverses), the residual-recursion
equalization, and the soft outputs, then compares symbol decisions against
the LMMSE and plain coordinate-descent baselines on the same data.
"""

import numpy as np

from gbcd import lmmse_detect, make_constellation, ocd_detect
from gbcd.channel import gen_channel, transmit
from gbcd.constellation import hard_decision_indices
from gbcd.detector import gbcd_detect, matched_filter, preprocess

rng = np.random.default_rng(7)
const = make_constellation(4)
B, U, K = 16, 16, 6  # fully loaded square system, where detection is hard

H = gen_channel(B, U, "nonlos", rng)
batch = transmit(H, const, T=200, snr_db=8.0, rng=rng)

print("=== Preprocessing (once per coherence block) ===")
pre = preprocess(H, batch.N0, L=2)
print(f"Gram diagonal (column energies): {np.round(pre.G.diagonal().real, 1)}")
print(f"reciprocal SINR metric:          {np.round(pre.inv_sinr, 4)}")
print(f"update order (best UE first):    {pre.perm}")
print(f"blocks of size 2:                {pre.blocks.tolist()}")

print("\n=== Equalization + soft outputs ===")
soft, state, _ = gbcd_detect(H, batch.Y, batch.N0, const, K)
print(f"estimates shape {state.z.shape}, LLRs shape {soft.llrs.shape}")
resid = matched_filter(H, batch.Y) - pre.G @ state.z
print(f"residual recursion tracks its definition: "
      f"max |r - (y_mf - G z)| = {np.max(np.abs(state.r - resid)):.2e}")

print("\n=== Paired comparison on identical data ===")
results = {}
soft_l = lmmse_detect(H, batch.Y, batch.N0, const)
soft_o = ocd_detect(H, batch.Y, batch.N0, K, const)
for name, s in (("gbcd-box", soft), ("lmmse", soft_l), ("ocd", soft_o)):
    hard = hard_decision_indices(const, s.v_final, s.params.mu[:, None])
    results[name] = np.mean(hard != batch.symbol_indices)
for name, ser in results.items():
    print(f"{name:9s} uncoded SER = {ser:.4f}")
print("(on a fully loaded square channel the box-constrained detectors beat "
      "the linear solve; the coded sweep in demo 06 and the trained "
      "denoiser in demo 04 show the full ranking)")
