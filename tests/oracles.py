"""Independent reference implementations used to compute expected values.

Everything here deliberately avoids the package's own code paths: the db4
filter is derived from scratch by spectral factorization, the wavelet
transform runs through scipy's upfirdn, and gradients come from central
differences.
"""

import numpy as np
from scipy.signal import upfirdn


def db4_scaling_by_factorization() -> np.ndarray:
    """Derive the 8-tap Daubechies scaling filter with 4 vanishing moments
    from the half-band polynomial's minimum-phase spectral factor."""
    p = 4
    # P(y) = sum_k C(p-1+k, k) y^k, y = (2 - z - 1/z)/4
    from math import comb

    def poly_mul(a, b):
        out = np.zeros(len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            out[i : i + len(b)] += ai * np.asarray(b)
        return out

    q = np.zeros(1)
    for k in range(p):
        term = np.array([1.0])
        for _ in range(2 * k):
            term = poly_mul(term, [-1.0, 1.0])  # (z - 1), ascending
        term = term * comb(p - 1 + k, k) * (-1.0) ** k / 4.0**k
        term = np.concatenate([np.zeros(p - 1 - k), term])
        n = max(len(q), len(term))
        q = np.pad(q, (0, n - len(q))) + np.pad(term, (0, n - len(term)))
    roots = np.roots(q[::-1])
    inside = roots[np.abs(roots) < 1]
    assert inside.size == p - 1
    h = np.array([1.0 + 0j])
    for _ in range(p):
        h = np.convolve(h, [1.0, 1.0])  # (1 + z)
    for r in inside:
        h = np.convolve(h, [-r, 1.0])  # (z - r)
    h = np.real(h)
    h = h * np.sqrt(2.0) / h.sum()
    if abs(h[0]) < abs(h[-1]):
        h = h[::-1]
    return h


def _filters(g):
    k = np.arange(g.size)
    return g[::-1], ((-1.0) ** (k + 1)) * g, g, (((-1.0) ** (k + 1)) * g)[::-1]


def idwt_sym(ca, cd, g, out_len):
    _, _, rec_lo, rec_hi = _filters(g)
    rec = upfirdn(rec_lo, ca, up=2) + upfirdn(rec_hi, cd, up=2)
    return rec[g.size - 2 : g.size - 2 + out_len]


def lowpass_subspace_projection(x, g, levels=4):
    """Orthogonal projection onto the span of approximation-only synthesis,
    built from an SVD basis (the package uses QR)."""
    lengths = []
    m = x.size
    for _ in range(levels):
        lengths.append(m)
        m = (m + g.size - 1) // 2
    cols = []
    for i in range(m):
        a = np.zeros(m)
        a[i] = 1.0
        for out_len in reversed(lengths):
            a = idwt_sym(a, np.zeros((out_len + g.size - 1) // 2), g, out_len)
        cols.append(a)
    basis = np.stack(cols, axis=1)
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    q = u[:, s > s.max() * 1e-12]
    return q @ (q.T @ x)


def eta_lowfreq(x, g=None, levels=4):
    if g is None:
        g = db4_scaling_by_factorization()
    x = np.asarray(x, dtype=float)
    xn = x / np.linalg.norm(x)
    low = lowpass_subspace_projection(xn, g, levels)
    return float(np.sum(low**2))


def central_difference_grads(fn, params, eps=1e-6):
    """Gradient of a scalar function of a flat parameter vector."""
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += eps
        dn[i] -= eps
        grad[i] = (fn(up) - fn(dn)) / (2 * eps)
    return grad


def dft_of_taps(taps, delays, fft_size=64):
    """Frequency response of a sparse tap-delay line on the FFT grid."""
    k = np.arange(fft_size)
    h = np.zeros(fft_size, dtype=complex)
    for tap, d in zip(taps, delays):
        h += tap * np.exp(-2j * np.pi * k * d / fft_size)
    return h
