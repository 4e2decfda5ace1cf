"""Coded block-error-rate sweeps and the incremental-technique study.

Each Monte-Carlo trial is one coherence block: every UE's symbols over the
block form one interleaved convolutional codeword, detected to LLRs and
soft-decoded with Viterbi. Trials are paired across detectors and ablation
variants (identical channels, symbols, and noise), results are
byte-reproducible, and how trials are grouped for detection and decoding
cannot change them.
"""

import tempfile

from gbcd import ExperimentConfig, Scenario, TrainConfig, run_sweep, train
from gbcd.harness import run_ablation
from gbcd.unfolding import ParamStore

print("=== Detector sweep: a stressed square system (8x8, QPSK, R=1/2) ===")
cfg = ExperimentConfig(B=8, U=8, Q=4, snr_db=[6.0, 9.0, 12.0],
                       condition="nonlos", detectors=["gbcd-box", "lmmse", "ocd"],
                       K=4, seed=7, code_rate="1/2", T=120, trials=60,
                       min_block_errors=150)
rows = run_sweep(cfg)
print(f"{'snr':>5} {'detector':>9} {'bler':>8} {'ser':>8} {'blocks':>7}")
for r in rows:
    print(f"{r['snr_db']:5.1f} {r['detector']:>9} {r['bler']:8.4f} "
          f"{r['ser']:8.4f} {r['trials'] * cfg.U:7d}")

print("\n=== Ablation: one technique at a time (needs trained parameters) ===")
store = ParamStore()
for snr in (8.0,):
    scen = Scenario(B=8, U=8, Q=4, snr_db=snr, condition="nonlos")
    store.add(train(scen, TrainConfig(n_train=600, n_val=600, batch_size=100,
                                      max_epochs=20, seed=3), K=4))
with tempfile.NamedTemporaryFile(suffix=".json") as f:
    store.save(f.name)
    ab_cfg = ExperimentConfig(B=8, U=8, Q=4, snr_db=[8.0], condition="nonlos",
                              detectors=["gbcd-box"], K=4, seed=7,
                              code_rate="1/2", T=120, trials=80,
                              min_block_errors=150, params_path=f.name)
    ab = run_ablation(ab_cfg)
print(f"{'variant':>20} {'bler':>8} {'ser':>8} {'data hash':>18}")
for r in ab:
    print(f"{r['variant']:>20} {r['bler']:8.4f} {r['ser']:8.4f} "
          f"{r['data_hash']:>18}")
print("(identical data hashes: every variant saw the same channels, "
      "symbols, and noise)")
