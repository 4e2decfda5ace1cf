"""Denoisers and their lookup-table form.

Compares the box projection, the exact posterior mean, and its
piecewise-linear approximation; renders the piecewise map as a slope/bias
table (the evaluation form a fixed-point datapath uses) and prints its
segments.
"""

import numpy as np

from gbcd import make_constellation
from gbcd.denoise import (build_plm_table, fit_omega, pme_exact,
                          pme_fidelity, pme_piecewise)

const = make_constellation(64)
rho, beta = 4.0, const.scale

print("=== The three denoisers on one axis (64-QAM -> 8-PAM) ===")
xs = np.array([-1.3, -0.6, -0.2, 0.0, 0.3, 0.9, 1.4])
omega = fit_omega(rho, beta, const)
print(f"fitted exact-PME precision omega = {omega:.2f}")
print(f"{'x':>8} {'clip':>8} {'exact':>8} {'piecewise':>10}")
a = const.max_amplitude
for x in xs:
    exact = pme_exact(np.array(x), omega, beta / const.scale, const.pam_points)
    approx = const.scale * pme_piecewise(np.array(x), rho, beta, 64)
    print(f"{x:8.2f} {np.clip(x, -a, a):8.4f} {float(exact):8.4f} "
          f"{float(approx):10.4f}")

rep = pme_fidelity(rho, beta, const)
print(f"\nsup-norm gap between piecewise and exact over 1.5x the box: "
      f"{rep['sup_gap']:.4f} (tracked, not asserted)")

print("\n=== Slope/bias table ===")
table = build_plm_table(rho, beta, 64)
print(f"{table.n_bins} bins, one per segment below")
x = np.linspace(-2, 2, 200001)
err = np.max(np.abs(table(x) - pme_piecewise(x, rho, beta, 64)))
print(f"table vs direct sum on 2e5 grid points: max |err| = {err:.2e}")

print(f"\n{'from':>8} {'to':>8} {'slope':>8} {'bias':>8}")
edges = np.concatenate([[-np.inf], table.boundaries, [np.inf]])
for lo, hi, slope, bias in zip(edges[:-1], edges[1:], table.slopes,
                               table.biases):
    print(f"{lo:8.3f} {hi:8.3f} {slope:8.2f} {bias:8.4f}")
