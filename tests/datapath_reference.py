"""Frozen symbol-wise datapath oracle: the box and PME denoisers, the
quantizer and the GBCD equalizer as they were written when they split every
complex block into its real and imaginary parts and permuted the equalizer
state with ``take_along_axis``; the max-log LLRs and the hard decisions as
they were written when both scanned the PAM levels along a trailing axis.

The live versions run on the float64 view of the estimates, permute with
flat row gathers and put the level axis first; they must give the same
values as these for every input layout, and leave their input as it was.

The max-log LLRs by a search over the full alphabet are here too, as the
oracle of the per-axis Gray search; they agree with it to rounding (the
complex squared distance is not split per axis), not bitwise.
"""

import numpy as np

from gbcd.detector import EqualizerState, FLOAT, _permuted_gram


# input layouts the symbol-wise functions must accept, cut from (4, 6, 10)
LAYOUTS = {
    "c-contiguous": lambda v: v,
    "strided": lambda v: v[..., ::2],
    "transposed": lambda v: v.T,
    "one-element": lambda v: v[:1, 0, 0],
    "0-d": lambda v: v[0, 0, 0, ...],
}


def probe(rng, special, scale=3.0):
    """(4, 6, 10) complex values: the real parts hold every value of
    ``special`` (at most 240) once and uniform draws on [-scale, scale];
    the imaginary parts are the same values shuffled. The parts are
    assigned, not added, so -0.0, inf and NaN reach each axis as given."""
    special = np.asarray(special, dtype=np.float64)
    parts = np.concatenate([special,
                            rng.uniform(-scale, scale, 240 - special.size)])
    v = np.empty(240, dtype=np.complex128)
    v.real = parts
    v.imag = rng.permutation(parts)
    return v.reshape(4, 6, 10)


def _box_denoise_reference(v, const):
    a = const.max_amplitude
    return np.clip(np.real(v), -a, a) + 1j * np.clip(np.imag(v), -a, a)


def _table_reference(table, x):
    x = np.asarray(x, dtype=np.float64)
    idx = np.searchsorted(table.boundaries, x, side="right")
    return table.slopes[idx] * x + table.biases[idx]


def _pme_apply_reference(den, v, k):
    """``PmeDenoiser.apply`` with the denoiser's own tables."""
    if k >= den.rho.size:
        raise IndexError(f"no parameters for iteration {k}")
    c = den.const.scale
    table = den.tables[k]
    return (c * _table_reference(table, np.real(v))
            + 1j * c * _table_reference(table, np.imag(v)))


def _quantize_reference(x, fmt):
    """Raises TypeError on a 0-d complex input."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        out = np.multiply(1j, _quantize_reference(x.imag, fmt))
        return np.add(_quantize_reference(x.real, fmt), out, out=out)
    lsb = 2.0 ** (-fmt.frac_bits)
    lo = -(2 ** (fmt.total_bits - 1)) * lsb / lsb
    hi = (2 ** (fmt.total_bits - 1) - 1) * lsb / lsb
    codes = np.divide(x, lsb, out=np.empty(x.shape))
    np.rint(codes, out=codes)
    np.clip(codes, lo, hi, out=codes)
    return np.multiply(codes, lsb, out=codes)


def _gbcd_equalize_reference(pre, y_mf, K, denoiser, numerics=FLOAT):
    lead = pre.blocks.shape[:-2]
    M, L = pre.blocks.shape[-2:]
    y_mf = np.asarray(y_mf, dtype=np.complex128)
    single = y_mf.ndim == len(lead) + 1
    ymat = y_mf[..., None] if single else y_mf
    order = pre.perm
    restore = np.argsort(order, axis=-1)[..., None]

    def ue_order(x):
        return np.take_along_axis(x, restore, axis=-2)

    Gp = _permuted_gram(pre.G, order)
    r = np.take_along_axis(ymat, order[..., None], axis=-2)
    z = np.zeros_like(r)
    v_last = np.empty_like(r)
    for k in range(K):
        for m in range(M):
            A = slice(m * L, (m + 1) * L)
            v = pre.kinv[..., m, :, :] @ r[..., A, :] + z[..., A, :]
            if k == K - 1:
                v_last[..., A, :] = v
            z_new = numerics.quantize("z", denoiser.apply(v, k))
            dz = z_new - z[..., A, :]
            z[..., A, :] = z_new
            r -= Gp[..., :, A] @ dz
    z, r, v_last = ue_order(z), ue_order(r), ue_order(v_last)
    if single:
        return EqualizerState(z[..., 0], r[..., 0], v_last[..., 0])
    return EqualizerState(z, r, v_last)


def _trailing_axis_llrs_reference(x, mu, const):
    """Per-axis bit metrics min d0 - min d1 from one trailing-axis distance
    pass: d (..., sqrt Q), each Gray subset taken by a fancy index."""
    mu_b = mu[..., None] if x.ndim > mu.ndim else mu
    dist = x[..., None] - mu_b[..., None] * const.pam_points
    np.square(dist, out=dist)
    return [dist[..., i0].min(axis=-1) - dist[..., i1].min(axis=-1)
            for i0, i1 in map(const.pam_bit_indices, range(const.axis_bits))]


def _llrs_reference(v, params, const):
    """The LLRs of ``compute_llrs_with_params(v, params, const)``."""
    v = np.asarray(v, dtype=np.complex128)
    mu = params.mu
    inv_xi = np.reciprocal(params.xi)
    if v.ndim > mu.ndim:
        inv_xi = inv_xi[..., None]
    metrics = (_trailing_axis_llrs_reference(v.real, mu, const)
               + _trailing_axis_llrs_reference(v.imag, mu, const))
    return np.stack([d * inv_xi for d in metrics], axis=mu.ndim)


def _bit_subsets_reference(const):
    """Per bit b of the labels: the alphabet indices whose label has bit b
    equal to 0, and those with it equal to 1."""
    return [(np.flatnonzero(col == 0), np.flatnonzero(col == 1))
            for col in const.bit_labels.T]


def _llrs_exhaustive_reference(v, params, const):
    """The LLRs of ``compute_llrs_with_params(v, params, const)`` by a
    search over the full alphabet: per bit, the smallest squared distance
    of v to the gain-scaled points labelled 0 minus that to those labelled
    1, with no use of the per-axis Gray structure."""
    v = np.asarray(v, dtype=np.complex128)
    mu = params.mu
    inv_xi = np.reciprocal(params.xi)
    if v.ndim > mu.ndim:
        mu, inv_xi = mu[..., None], inv_xi[..., None]
    dist = np.abs(v[..., None] - mu[..., None] * const.points) ** 2
    return np.stack([(dist[..., i0].min(axis=-1) - dist[..., i1].min(axis=-1))
                     * inv_xi for i0, i1 in _bit_subsets_reference(const)],
                    axis=params.mu.ndim)


def _hard_decision_indices_reference(const, v, gain=1.0):
    """``hard_decision_indices`` as the first argmin of |x - g a| over a
    trailing level axis."""
    v = np.asarray(v)
    g = np.asarray(gain, dtype=np.float64)

    def nearest(axis):
        d = axis[..., None] - g[..., None] * const.pam_points
        return np.argmin(np.abs(d, out=d), axis=-1)

    return nearest(v.real) * const.n_pam + nearest(v.imag)
