"""Hardware cost models: multiplication counts, timing, power, fixed point.

Prints the closed-form real-multiplication counts of GBCD, OCD and LMMSE,
evaluates the throughput/utilization model, fits the two-parameter power
curve, and runs the quantized detector against the float one.
"""

import numpy as np

from gbcd import hwmodel, make_constellation
from gbcd.channel import gen_channel, transmit
from gbcd.detector import gbcd_detect

B, U, K = 128, 16, 3

print("=== Real-multiplication counts (preprocessing + T x equalization) ===")
gb = hwmodel.complexity_gbcd(B, U, K)
oc = hwmodel.complexity_ocd(B, U, K)
lm = hwmodel.complexity_lmmse(B, U)
print(f"gbcd : pre {gb.preprocessing_mults:6d} = 2BU^2 + U(2U+2) + 3U, "
      f"per-vector {gb.per_transmission_mults:6d} = 4BU + 8KU + 4KU^2")
print(f"ocd  : pre {oc.preprocessing_mults:6d}, "
      f"per-vector {oc.per_transmission_mults:6d} = 2BU + U + KU(8B+2)")
print(f"lmmse: pre {lm.preprocessing_mults:6d} = 2BU^2 + (2U^3-2U)/3, "
      f"per-vector {lm.per_transmission_mults:6d} = 4BU + 4U^2")
print("\ntotal multiplications vs transmissions per coherence block:")
print(f"{'T':>6} {'gbcd':>12} {'ocd':>12} {'ocd/gbcd':>9}")
for T in (1, 5, 11, 50, 500):
    print(f"{T:6d} {gb.total(T):12d} {oc.total(T):12d} "
          f"{oc.total(T) / gb.total(T):9.2f}")

print("\n=== Timing model ===")
for T in (9, 54, 1000):
    th = hwmodel.throughput(T, 256, 16)
    print(f"T={T:5d}: throughput {th / 1e9:6.3f} Gbps, "
          f"utilization {hwmodel.utilization(T):.3f}")
print(f"asymptote {hwmodel.throughput_asymptote(256) / 1e9:.4f} Gbps")

print("\n=== Power fit on synthetic measurements ===")
rng = np.random.default_rng(3)
ts = np.arange(6, 55, 6)
truth = 420.0 + ts / (ts + 9.0) * 367.0
noisy = truth * (1 + 0.002 * rng.standard_normal(9))
p_idle, p_equ, r2 = hwmodel.fit_power(list(zip(ts, noisy)))
print(f"recovered P_idle = {p_idle:.1f} mW, P_equ = {p_equ:.1f} mW, "
      f"R^2 = {r2:.5f}")
print(f"asymptotic power P_idle + P_equ = {p_idle + p_equ:.1f} mW")

print("\n=== Fixed-point mode ===")
for k, f in hwmodel.DEFAULT_FORMATS.items():
    print(f"  {k:4s}: {f.total_bits:2d} bits total, {f.frac_bits} fractional")
const = make_constellation(16)
rng = np.random.default_rng(5)
agree = tot = 0
for _ in range(10):
    H = gen_channel(16, 4, "nonlos", rng)
    b = transmit(H, const, 50, 12.0, rng)
    sf, _, _ = gbcd_detect(H, b.Y, b.N0, const, 3)
    sq = hwmodel.detect_fixed_point(H, b.Y, b.N0, const, 3)
    agree += int(np.sum(np.sign(sf.llrs) == np.sign(sq.llrs)))
    tot += sf.llrs.size
print(f"LLR sign agreement quantized vs float: {agree / tot:.4%}")
