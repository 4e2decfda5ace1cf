"""Smoothness diagnostics of the trainer's unrolled forward pass, used to
pick evaluation points for the finite-difference gradient checks.

They read the cache that ``unfolding.grad`` reads, so they see the exact
forward pass the analytic gradient differentiates.
"""

import numpy as np

from gbcd import denoise
from gbcd.unfolding import LOSS_CAP, _params_arrays, _unrolled_forward


def ue_order_gram(batch) -> np.ndarray:
    """The batch's Gram matrices (N, U, U) in UE order, from the copies in
    update order it holds."""
    n, U = batch.diag.shape
    perm = batch.blocks.reshape(n, U)
    G = np.empty((n, U, U), dtype=np.complex128)
    G[np.arange(n)[:, None, None], perm[:, :, None], perm[:, None, :]] = \
        batch.Gp
    return G


def forward_diagnostics(params, batch, K: int) -> dict:
    """Distances to the nearest nondifferentiable point of the loss.

    Capped loss terms themselves are differentiation-consistent (both sides
    see zero); only terms sitting close to the cap boundary can flip under a
    finite-difference step, so the distance to the cap is what matters.
    """
    rho, beta, alpha = _params_arrays(params)
    _, c = _unrolled_forward(rho, beta, alpha, batch, K, want_cache=True)
    kink = np.inf
    for k in range(K):
        pre = rho[k] * (c["x"][:, k, ..., None] + 2.0 * beta[k] * c["offsets"])
        kink = min(kink, float(np.min(np.abs(np.abs(pre) - 1.0))))

    # the last step's estimates, from update order back to UE order
    n, U = batch.y_mf.shape
    v_final = np.empty((n, U), dtype=np.complex128)
    np.put_along_axis(v_final, batch.blocks.reshape(n, U),
                      c["x"][:, K - 1].copy().view(np.complex128)[..., 0],
                      axis=1)

    # gap between the two smallest distances of each bit's label subset
    def gap(d, cols):
        if cols.size == 1:
            return np.inf
        two = np.partition(d, 1, axis=0)
        return float(np.min(two[1] - two[0]))

    argmin_gap = min(min(pair) for ax in (v_final.real, v_final.imag)
                     for pair in denoise._gray_subsets(ax, c["mu"], batch.const,
                                                       gap))
    sgn = 1.0 - 2.0 * c["X"]
    cap_distance = float(np.min(np.abs(sgn * c["llr"] - LOSS_CAP)))
    return {"min_kink_distance": kink,
            "min_argmin_gap": argmin_gap,
            "min_cap_distance": cap_distance,
            "n_floored": int(c["floored"].sum())}
