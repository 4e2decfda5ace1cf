"""Constellations, channel models, and the transmission bundle.

Walks through the Gray-mapped QAM alphabets, the two synthetic propagation
conditions with receive-power control, and the package's SNR definition.
"""

import numpy as np

from gbcd import gen_channel, make_constellation, transmit
from gbcd.detector import gram

rng = np.random.default_rng(1)

print("=== Gray-mapped square QAM ===")
for order in (4, 16, 64, 256):
    c = make_constellation(order)
    print(f"{order:4d}-QAM: {c.bits_per_symbol} bits/symbol, "
          f"PAM levels {c.n_pam}, scale {c.scale:.5f}, "
          f"mean energy {np.mean(np.abs(c.points) ** 2):.12f}")

c16 = make_constellation(16)
print("\n16-QAM points (index: label -> point):")
for i in (0, 1, 5, 15):
    bits = "".join(map(str, c16.bit_labels[i]))
    print(f"  {i:2d}: {bits} -> {c16.points[i]:+.3f}")

print("\n=== Channel conditions ===")
H_iid = gen_channel(64, 8, "nonlos", rng)
H_los = gen_channel(64, 8, "los", rng, k_factor=20.0)
for name, H in (("nonlos", H_iid), ("los", H_los)):
    w = np.linalg.eigvalsh(gram(H))
    p = np.sum(np.abs(H) ** 2, axis=0)
    print(f"{name:7s}: Gram eigenvalue spread {w[-1] / w[0]:8.1f}, "
          f"per-UE power ratio {10 * np.log10(p.max() / p.min()):.2f} dB "
          f"(power control keeps it within 6 dB)")

print("\n=== Transmission and the SNR definition ===")
batch = transmit(H_iid, c16, T=100, snr_db=15.0, rng=rng)
sig = np.sum(np.abs(H_iid) ** 2) / 64
print(f"snr 15 dB -> N0 = {batch.N0:.4f}; "
      f"realized ||H||_F^2/(B*N0) = "
      f"{10 * np.log10(sig / batch.N0):.2f} dB")
print(f"reconstruction residual ||Y - HS - N|| = "
      f"{np.max(np.abs(batch.Y - H_iid @ batch.S - batch.noise))}")
