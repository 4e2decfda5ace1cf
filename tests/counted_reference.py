"""Counted scalar references of the GBCD (block size 2, sorted), LMMSE and
OCD datapaths, the independent check of ``hwmodel``'s closed forms.

Each reference detects one receive vector on one channel with explicit
Python loops over scalar products, and tallies every real multiplication
at the line that performs it (divisions count the same):

* complex x complex       -> 4
* complex x real          -> 2
* |complex|^2             -> 2
* real x real, 1/real     -> 1
* complex / real          -> 2

Additions, comparisons, conjugations and square roots are free. Each
reference returns its outputs with (preprocessing, per-vector) counts, so
the tests can compare the outputs with the library's detectors and the
counts with ``hwmodel.complexity_*``.
"""

import numpy as np


class MultCounter:
    """Accumulates real-valued multiplication counts."""

    def __init__(self):
        self.total = 0

    def cmul(self, n=1):
        self.total += 4 * n

    def cmul_real(self, n=1):
        self.total += 2 * n

    def abs2(self, n=1):
        self.total += 2 * n

    def rmul(self, n=1):
        self.total += n

    def rdiv(self, n=1):
        self.total += n

    def cdiv_real(self, n=1):
        self.total += 2 * n


def _abs2(x, c):
    c.abs2()
    return x.real * x.real + x.imag * x.imag


def _columns(H):
    """H (B, U) as U lists of B Python complex numbers."""
    return [[complex(h) for h in col] for col in np.asarray(H).T]


def _gram(cols, c):
    """Upper triangle by complex products, diagonal by squared magnitudes,
    lower triangle by conjugation."""
    U = len(cols)
    G = [[0j] * U for _ in range(U)]
    for i in range(U):
        G[i][i] = complex(sum(_abs2(h, c) for h in cols[i]))
        for j in range(i + 1, U):
            acc = 0j
            for hi, hj in zip(cols[i], cols[j]):
                acc += hi.conjugate() * hj
                c.cmul()
            G[i][j] = acc
            G[j][i] = acc.conjugate()
    return G


def _matched_filter(cols, y, c):
    out = []
    for col in cols:
        acc = 0j
        for h, yb in zip(col, y):
            acc += h.conjugate() * yb
            c.cmul()
        out.append(acc)
    return out


def _box(v, a):
    return complex(min(max(v.real, -a), a), min(max(v.imag, -a), a))


def gbcd_reference(H, y, N0, K, const):
    """GBCD with L = 2, SINR-sorted blocks and BOX denoising.

    Returns (z, v_last, (pre, per)): the denoised and the final unconstrained
    estimates in UE order, and the preprocessing and per-vector counts.
    """
    cols = _columns(H)
    y = [complex(v) for v in y]
    U = len(cols)
    pre = MultCounter()
    G = _gram(cols, pre)
    # reciprocal SINR; each UE squares its own row, and the 2x2
    # determinants below reuse these squared magnitudes
    p = [[0.0] * U for _ in range(U)]
    inv_sinr = []
    for i in range(U):
        lam = 0.0
        for j in range(U):
            if j != i:
                p[i][j] = _abs2(G[i][j], pre)
                lam += p[i][j]
        r = 1.0 / G[i][i].real
        pre.rdiv()
        a = r * r
        b = N0 * r
        inv_sinr.append(lam * a + b)
        pre.rmul(3)
    order = sorted(range(U), key=lambda u: inv_sinr[u])
    blocks = [order[m:m + 2] for m in range(0, U, 2)]
    kinv = []
    for i, j in blocks:
        g11, g22, g12 = G[i][i].real, G[j][j].real, G[i][j]
        det = g11 * g22 - p[i][j]
        pre.rmul()
        d = 1.0 / det
        pre.rdiv()
        k11, k22 = g22 * d, g11 * d
        pre.rmul(2)
        k12 = -g12 * d
        pre.cmul_real()
        kinv.append(((k11, k12), (k12.conjugate(), k22)))

    per = MultCounter()
    r = _matched_filter(cols, y, per)
    z = [0j] * U
    v_last = [0j] * U
    a = const.max_amplitude
    for k in range(K):
        for (i, j), Ki in zip(blocks, kinv):
            v = []
            for row in Ki:
                acc = 0j
                for kij, rj in zip(row, (r[i], r[j])):
                    acc += kij * rj
                    per.cmul()
                v.append(acc)
            for u, vu in zip((i, j), v):
                vu += z[u]
                if k == K - 1:
                    v_last[u] = vu
                z_new = _box(vu, a)
                dz = z_new - z[u]
                z[u] = z_new
                for w in range(U):
                    r[w] -= G[w][u] * dz
                    per.cmul()
    return np.array(z), np.array(v_last), (pre.total, per.total)


def lmmse_reference(H, y, N0):
    """Implicit LMMSE: Cholesky of G + N0 I, then the matched filter and the
    forward and backward substitutions. Returns (s_hat, (pre, per))."""
    cols = _columns(H)
    y = [complex(v) for v in y]
    U = len(cols)
    pre = MultCounter()
    A = _gram(cols, pre)
    for i in range(U):
        A[i][i] += N0
    L = [[0j] * U for _ in range(U)]
    for j in range(U):
        s = A[j][j].real - sum(_abs2(L[j][k], pre) for k in range(j))
        L[j][j] = complex(s ** 0.5)
        for i in range(j + 1, U):
            acc = A[i][j]
            for k in range(j):
                acc -= L[i][k] * L[j][k].conjugate()
                pre.cmul()
            L[i][j] = acc / L[j][j].real
            pre.cdiv_real()

    per = MultCounter()
    x = _matched_filter(cols, y, per)
    for i in range(U):                      # L x' = y_mf
        acc = x[i]
        for k in range(i):
            acc -= L[i][k] * x[k]
            per.cmul()
        x[i] = acc / L[i][i].real
        per.cdiv_real()
    for i in range(U - 1, -1, -1):          # L^H s = x'
        acc = x[i]
        for k in range(i + 1, U):
            acc -= L[k][i].conjugate() * x[k]
            per.cmul()
        x[i] = acc / L[i][i].real
        per.cdiv_real()
    return np.array(x), (pre.total, per.total)


def ocd_reference(H, y, K, const):
    """Channel-domain coordinate descent in natural UE order with BOX
    denoising and a receive-domain residual; the column norms are part of
    every detection task. Returns (z, v_last, r, (pre, per))."""
    cols = _columns(H)
    r = [complex(v) for v in y]
    U = len(cols)
    per = MultCounter()
    inv_norms = []
    for col in cols:
        inv_norms.append(1.0 / sum(_abs2(h, per) for h in col))
        per.rdiv()
    z = [0j] * U
    v_last = [0j] * U
    a = const.max_amplitude
    for k in range(K):
        for u in range(U):
            acc = 0j
            for h, rb in zip(cols[u], r):
                acc += h.conjugate() * rb
                per.cmul()
            v = acc * inv_norms[u] + z[u]
            per.cmul_real()
            if k == K - 1:
                v_last[u] = v
            z_new = _box(v, a)
            dz = z_new - z[u]
            z[u] = z_new
            for b, h in enumerate(cols[u]):
                r[b] -= h * dz
                per.cmul()
    return np.array(z), np.array(v_last), np.array(r), (0, per.total)
